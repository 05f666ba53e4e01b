"""CLI tests: exit codes, output shapes, and the JSON emission path."""

import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import monodroma
from monodroma.cli import main

EX1 = "f = x + x^3; g = y + x^2"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(argv: list[str], timeout: float, prelude: str = "") -> subprocess.CompletedProcess:
    """Run ``monodroma <argv>`` in a fresh interpreter on this package,
    after the Python statements in ``prelude``."""
    package_root = str(Path(monodroma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = prelude + "import sys\nfrom monodroma.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=timeout, check=False)


# -- check -----------------------------------------------------------------------


def test_check_injective_exits_zero(capsys):
    assert main(["check", EX1]) == 0
    out = capsys.readouterr().out
    assert "verdict: Injective" in out
    assert "beta(6, 2) = 1/32" in out
    assert "diagram vertices: (0, 12), (6, 2), (8, 0)" in out
    assert "(d) pass" in out


def test_check_inconclusive_exits_two(capsys):
    assert main(["check", "f = 2*x - y^3 - 2*y^2 - y; g = -y"]) == 2
    out = capsys.readouterr().out
    assert "verdict: Inconclusive" in out
    assert "(d) FAIL" in out


def test_check_not_applicable_exits_three(capsys):
    assert main(["check", "f = x; g = x^2"]) == 3
    out = capsys.readouterr().out
    assert "verdict: NotApplicable" in out
    assert "identically zero" in out


def test_check_prints_the_det_evidence(capsys):
    assert main(["check", "f = x^2; g = y"]) == 3
    assert "jacobian determinant: VanishesAt at zero (0, -5)\n" in capsys.readouterr().out
    assert main(["check", "f = 1/2*x^2 - 1/3*x; g = y"]) == 3
    assert ("jacobian determinant: VanishesAt between (1/2, -5) where det > 0 "
            "and (-5, -5) where det < 0\n") in capsys.readouterr().out


def test_readme_check_example_is_current():
    readme = README.read_text(encoding="utf-8")
    block = readme.split("```text\n$ ", 1)[1].split("```", 1)[0]
    command, *expected = block.splitlines()
    argv = shlex.split(command)
    assert argv[:2] == ["monodroma", "check"]
    done = run_cli(argv[1:], timeout=60)
    assert done.returncode == 0, done.stderr
    actual = done.stdout.splitlines()
    assert not any(line.startswith("coprime leading forms") for line in actual)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        if not want.startswith("total time: "):
            assert got == want


def test_check_with_oracle_is_bounded():
    # b(X) of this degree-26 map has thousands of terms; each winding stops
    # at its term-evaluation budget instead of integrating for minutes.
    done = run_cli(["check", "--with-oracle", "f = x + (y + x^2)^13; g = y + x^2"],
                   timeout=60)
    assert done.returncode == 2, done.stderr
    assert "\ncoprime leading forms: no\noracle winding from r=0.05: " in done.stdout
    winding = [line for line in done.stdout.splitlines() if line.startswith("oracle winding")]
    assert len(winding) == 3
    assert all(line.endswith("(exhausted)") for line in winding)


def test_check_with_oracle_needs_the_oracle_extra():
    done = run_cli(["check", "--with-oracle", EX1], timeout=60,
                   prelude="import sys\nsys.modules['numpy'] = sys.modules['scipy'] = None\n")
    assert done.returncode == 1
    assert done.stderr == (
        "error: --with-oracle needs numpy and scipy (pip install -e '.[oracle]')\n")


def test_check_parse_error_exits_one(capsys):
    assert main(["check", "f = x +; g = y"]) == 1
    assert "parse error:" in capsys.readouterr().err


def test_check_assume_det(capsys):
    assert main(["check", "f = x + y^3; g = y + x^3"]) == 3
    capsys.readouterr()
    assert main(["check", "f = x + y^3; g = y + x^3", "--assume-det"]) == 0
    assert "AssumedByUser" in capsys.readouterr().out


def test_check_json_emits_a_valid_certificate(capsys):
    assert main(["check", EX1, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema = json.loads(
        resources.files("monodroma").joinpath("certificate.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["verdict"] == "Injective"
    assert [tuple(v["point"]) for v in doc["diagram"]["vertices"]] == [
        (0, 12), (6, 2), (8, 0)]


def test_check_json_is_one_compact_line(capsys):
    assert main(["check", EX1, "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, separators=(",", ":")) + "\n"  # one line, no padding
    f, g = monodroma.parse_map(EX1)
    expected = monodroma.certify(f, g).to_json_dict()
    doc.pop("timings_ms")
    expected.pop("timings_ms")
    assert doc == expected


def test_seed_env_is_ignored(capsys, monkeypatch):
    # The determinant sample is fixed: no environment variable reseeds it.
    assert main(["check", EX1, "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    monkeypatch.setenv("MONODROMA_SEED", "junk")
    assert main(["check", EX1, "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("timings_ms")
    second.pop("timings_ms")
    assert first == second and first["verdict"] == "Injective"


# -- diagram ------------------------------------------------------------------------


def test_diagram_ascii(capsys):
    assert main(["diagram", EX1]) == 0
    out = capsys.readouterr().out
    assert "(0, 12) exterior" in out
    assert "(6, 2) inner" in out
    assert "type (5,3) bounded" in out
    assert "(6, 2): 1/32" in out


def test_diagram_svg(tmp_path, capsys):
    target = tmp_path / "diagram.svg"
    assert main(["diagram", EX1, "--svg", str(target)]) == 0
    assert f"wrote {target}" in capsys.readouterr().out
    text = target.read_text()
    assert "<svg" in text and "</svg>" in text


def test_diagram_svg_to_an_unwritable_path_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    assert main(["diagram", EX1, "--svg", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err and not target.exists()


def test_diagram_of_a_constant_map_degenerates(capsys):
    assert main(["diagram", "f = 1; g = 0"]) == 3
    assert "identically zero" in capsys.readouterr().err


# -- monodromy ------------------------------------------------------------------------


def test_monodromy_command(capsys):
    assert main(["monodromy", "P = -v^3 - u^2*v; Q = u^3 + u*v^2"]) == 0
    out = capsys.readouterr().out
    assert "monodromy: Monodromic" in out
    assert "(a) pass" in out


def test_monodromy_rejects_the_zero_field(capsys):
    assert main(["monodromy", "P = 0; Q = 0"]) == 1
    assert "zero field" in capsys.readouterr().err


# -- bendixson -------------------------------------------------------------------------


def test_bendixson_command(capsys):
    assert main(["bendixson", "P = -y; Q = x"]) == 0
    out = capsys.readouterr().out
    assert "P = -u^2*v - v^3" in out
    assert "Q = u^3 + u*v^2" in out


def test_bendixson_rejects_constant_fields(capsys):
    assert main(["bendixson", "P = 1; Q = 0"]) == 1
    assert "error:" in capsys.readouterr().err


# -- factor-test -----------------------------------------------------------------------


def test_factor_test_finds_an_exact_factor(capsys):
    assert main(["factor-test", "u*v - v^2", "--type", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "has a factor v^1 - a*u^1" in out
    assert "a = 1" in out


def test_factor_test_reports_no_factor(capsys):
    assert main(["factor-test", "u^2 + v^2", "--type", "1,1"]) == 0
    assert "no factor" in capsys.readouterr().out


def test_factor_test_prints_nothing_when_formatting_fails(capsys):
    # The root 10^5000 has more digits than str(int) converts by default.
    assert main(["factor-test", "v - 10^5000*u", "--type", "1,1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_factor_test_reads_a_leading_minus_after_the_separator(capsys):
    assert main(["factor-test", "--type", "1,2", "--", "-u^2+v"]) == 0
    assert "  a = 1" in capsys.readouterr().out.splitlines()


def test_factor_test_rejects_bad_types(capsys):
    assert main(["factor-test", "u*v", "--type", "0,0"]) == 1
    assert "invalid --type" in capsys.readouterr().err
    assert main(["factor-test", "u*v", "--type", "2,4"]) == 1
    capsys.readouterr()
    for text in ("x", "1,2,3", "a,b", "٣,1", "-1,2"):  # ASCII digits only, as in map text
        assert main(["factor-test", "u*v", f"--type={text}"]) == 1
        assert capsys.readouterr().err == (f"invalid --type '{text}': expected T1,T2, "
                                           "two non-negative integers such as 3,1\n")


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["factor-test", "u*v"])
    assert exc.value.code == 1


# -- hostile input ---------------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    ("f = x^99999999999999999999; g = y", "exponent 99999999999999999999 exceeds"),
    ("f = " + "(" * 200 + "x" + ")" * 200 + "; g = y", "nesting deeper than 100 at byte 104"),
    ("f = " + "-" * 1000 + "x; g = y", "nesting deeper than 100 at byte 104"),
    ("f = x^²; g = y", "unexpected character '²' at byte 6"),  # a digit, not a decimal
], ids=["exponent", "parentheses", "unary-minus", "superscript"])
def test_hostile_input_is_a_parse_error(capsys, text, message):
    assert main(["check", text]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and message in err
    assert "Traceback" not in err


def test_exponent_overflow_in_a_product_exits_one(capsys):
    # Each factor is within the cap; their product is not.
    assert main(["check", f"f = x^{2 ** 62} * x; g = y"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exponent") and "Traceback" not in err


def test_edge_hamiltonian_past_the_cap_exits_one(capsys):
    # The field is within the cap, but its one edge's h holds v^(2^62 + 1)
    # at the support point (0, 2^62 + 1) of P = -v^(2^62).
    assert main(["monodromy", f"P = -v^{2 ** 62}; Q = u"]) == 1
    assert capsys.readouterr().err == f"error: exponent {2 ** 62 + 1} exceeds {2 ** 62}\n"
