"""CLI tests: every run of ``cli_runs.py``, then the runs that need a file,
an environment, a fresh interpreter or a schema."""

import hashlib
import importlib
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
from cli_runs import README_MAP, RUNS, Run
from monodroma.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_cli(argv: list[str], timeout: float, prelude: str = "") -> subprocess.CompletedProcess:
    """Run ``monodroma <argv>`` in a fresh interpreter on this package,
    after the Python statements in ``prelude``."""
    package_root = str(Path(monodroma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = prelude + "import sys\nfrom monodroma.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=timeout, check=False)


def _certificate_digest(out: str) -> str:
    doc = json.loads(out)
    del doc["timings_ms"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.id)
def test_cli_run(run: Run, capsys):
    if run.timeout is None:
        try:
            code = main(run.argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
    else:
        done = run_cli(list(run.argv), timeout=run.timeout)
        code, out, err = done.returncode, done.stdout, done.stderr
    assert code == run.code, err
    if run.out is not None:
        assert out == run.out
    assert set(run.lines) <= set(out.splitlines()), out
    if run.err is not None:
        assert err == run.err
    if run.digest is not None:
        assert _certificate_digest(out) == run.digest


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["monodroma"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


# -- check -----------------------------------------------------------------------


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


def test_check_with_oracle_is_bounded(capsys):
    pytest.importorskip("scipy")
    # The 2016 comparison: the README map's leading forms share a factor.
    assert main(["check", "--with-oracle", README_MAP]) == 0
    assert "coprime leading forms: no" in capsys.readouterr().out.splitlines()
    assert main(["check", "--with-oracle", "f = x; g = y"]) == 0
    assert "coprime leading forms: yes" in capsys.readouterr().out.splitlines()
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
    done = run_cli(["check", "--with-oracle", README_MAP], timeout=60,
                   prelude="import sys\nsys.modules['numpy'] = sys.modules['scipy'] = None\n")
    assert done.returncode == 1
    assert done.stderr == (
        "error: --with-oracle needs numpy and scipy (pip install -e '.[oracle]')\n")


def test_check_json_emits_a_valid_certificate(capsys):
    assert main(["check", README_MAP, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema = json.loads(
        resources.files("monodroma").joinpath("certificate.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["verdict"] == "Injective"
    assert [tuple(v["point"]) for v in doc["diagram"]["vertices"]] == [
        (0, 12), (6, 2), (8, 0)]


def test_check_json_is_one_compact_line(capsys):
    assert main(["check", README_MAP, "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, separators=(",", ":")) + "\n"  # one line, no padding
    f, g = monodroma.parse_map(README_MAP)
    expected = monodroma.certify(f, g).to_json_dict()
    doc.pop("timings_ms")
    expected.pop("timings_ms")
    assert doc == expected


def test_seed_env_is_ignored(capsys, monkeypatch):
    # The determinant sample is fixed: no environment variable reseeds it.
    assert main(["check", README_MAP, "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    monkeypatch.setenv("MONODROMA_SEED", "junk")
    assert main(["check", README_MAP, "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("timings_ms")
    second.pop("timings_ms")
    assert first == second and first["verdict"] == "Injective"


# -- diagram ------------------------------------------------------------------------


def test_diagram_svg(tmp_path, capsys):
    target = tmp_path / "diagram.svg"
    assert main(["diagram", README_MAP, "--svg", str(target)]) == 0
    assert f"wrote {target}" in capsys.readouterr().out
    text = target.read_text()
    assert "<svg" in text and "</svg>" in text


def test_diagram_svg_to_an_unwritable_path_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    assert main(["diagram", README_MAP, "--svg", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err and not target.exists()


# -- factor-test, usage and input errors ------------------------------------------


def test_factor_test_prints_nothing_when_formatting_fails(capsys):
    # The root 10^5000 has more digits than str(int) converts by default.
    assert main(["factor-test", "v - 10^5000*u", "--type", "1,1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["factor-test", "u*v"])
    assert exc.value.code == 1


def test_edge_hamiltonian_past_the_cap_exits_one(capsys):
    # The field is within the cap, but its one edge's h holds v^(2^62 + 1)
    # at the support point (0, 2^62 + 1) of P = -v^(2^62).
    assert main(["monodromy", f"P = -v^{2 ** 62}; Q = u"]) == 1
    assert capsys.readouterr().err == f"error: exponent {2 ** 62 + 1} exceeds {2 ** 62}\n"
