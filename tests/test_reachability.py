"""Every package function either runs on a command-line path or is listed.

A fresh interpreter records, with ``sys.setprofile``, each package function
that is called while ``cli.main`` imports the package and runs every
subcommand on a few fixed maps, ``diagram --svg`` and three error exits
included.  A function that never runs must be named in
``reachability_allowlist.txt`` with its reader: ``public API``,
``oracle.py``, ``bench/``, or ``error path`` and the test that takes it.
``oracle.py`` itself, the numeric cross-check, is not scanned, and neither
is ``check --with-oracle``, which needs numpy.

Functions are keyed by file, first line and name, the fields a code object
carries on every Python from 3.10 on; the module's syntax tree turns a key
into the qualified name the allowlist uses.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import monodroma

PACKAGE = Path(monodroma.__file__).resolve().parent
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")
READERS = ("public API", "oracle.py", "bench/", "error path")
NOT_SCANNED = {"oracle.py"}

README_MAP = "f = x + x^3; g = y + x^2"
UNKNOWN_DET = "f = x + x^3 + 3*x*y^2; g = y + 3*x^2*y + y^3"
SIGN_CHANGE_DET = "f = x - x^3; g = y"
TRIANGULAR = "f = x + (y + x^2)^3; g = y + x^2"  # condition (d) fails on a rational root
MONODROMIC = ("P = -u^6*v - 3*u^4*v^3 - 3*u^2*v^5 - v^7 - u^6 + u^2*v^4 - 2*u^2*v^3; "
              "Q = u^7 + 3*u^5*v^2 + 3*u^3*v^4 + u*v^6 - 2*u^5*v - 2*u^3*v^3 + u^3*v^2 - u*v^4")
OFF_AXES = ("P = u*v^4 - 2*u^2*v^3 + u^3*v^2 + u^5*v + 3*u^8*v - u*v^7 + u^4*v^3 + 2*u^2*v^5; "
            "Q = -v^5 + u*v^4 + u^2*v^3 - 2*u^4*v^2 + u^6*v^2")

# Each argument list with its exit code; "{svg}" is replaced by a file path.
RUNS = [
    (["check", README_MAP], 0),
    (["check", "--json", README_MAP], 0),
    (["check", UNKNOWN_DET], 2),
    (["check", "--assume-det", UNKNOWN_DET], 0),
    (["check", "--json", SIGN_CHANGE_DET], 3),
    (["check", "f = x^2; g = y"], 3),
    (["check", "--json", TRIANGULAR], 2),
    (["diagram", README_MAP], 0),
    (["diagram", "--svg", "{svg}", README_MAP], 0),
    (["monodromy", MONODROMIC], 0),
    (["monodromy", OFF_AXES], 0),
    (["bendixson", "P = x*y; Q = y^2 + x^3"], 0),
    (["factor-test", "--type", "1,1", "v^2 - 2*u^2"], 0),
    (["factor-test", "--type", "1,1", "2*v - 3*u"], 0),
    (["factor-test", "--type", "1,1", "v^4 - u^2*v^2 + u^4"], 0),
    (["factor-test", "--type", "3,1", "v^6 + 5*u^2"], 0),
    (["check", "f = x^; g = y"], 1),
    (["factor-test", "--type", "x", "u"], 1),
    (["check"], 1),
]

# Runs in a fresh interpreter so that import-time calls count and no other
# test's state (the determinant sample's power cache) changes what runs.
_RECORDER = """
import contextlib, io, json, sys
package = sys.argv[1]
called = set()

def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        called.add((code.co_filename[len(package) + 1:], code.co_firstlineno, code.co_name))

sys.setprofile(record)
from monodroma import cli
codes = []
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""


def _defined() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> 'file:qualname' for every def in the package."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object's first line is its first decorator's.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path.name, first, child.name)] = f"{path.name}:{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in NOT_SCANNED:
            walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, "")
    return found


def _allowlist() -> dict[str, str]:
    entries = {}
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, reader = line.split(None, 1)
            assert name not in entries, f"listed twice: {name}"
            entries[name] = reader.strip()
    return entries


def _record_calls(tmp_path) -> set[tuple[str, int, str]]:
    runs = [[a.format(svg=tmp_path / "diagram.svg") for a in argv] for argv, _ in RUNS]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent)] + sys.path))
    done = subprocess.run([sys.executable, "-c", _RECORDER, str(PACKAGE)], input=json.dumps(runs),
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    out = json.loads(done.stdout)
    assert out["codes"] == [code for _, code in RUNS]
    assert (tmp_path / "diagram.svg").read_text(encoding="utf-8").startswith("<svg")
    return {tuple(key) for key in out["called"]}


def test_every_uncalled_function_is_listed_with_its_reader(tmp_path):
    defined = _defined()
    called = _record_calls(tmp_path)
    never = {defined[key] for key in defined.keys() - called}
    allowed = _allowlist()
    unlisted, stale = sorted(never - allowed.keys()), sorted(allowed.keys() - never)
    assert not unlisted, f"never called and not in the allowlist: {unlisted}"
    assert not stale, f"in the allowlist but called or gone: {stale}"
    for name, reader in allowed.items():
        assert reader.startswith(READERS), f"{name}: unknown reader {reader!r}"
        if reader.startswith("error path"):
            test_file, _, test_name = reader.split()[-1].partition("::")
            source = (Path(__file__).parent.parent / test_file).read_text(encoding="utf-8")
            assert f"def {test_name}(" in source, f"{name}: no test {reader.split()[-1]}"
