"""Every package function either runs on a command-line path or is listed.

A fresh interpreter records, with ``sys.setprofile``, each package function
that is called while ``cli.main`` imports the package, runs the table of
command-line runs in ``cli_runs.py`` that ``test_cli.py`` checks, all but
the time-bounded ones, and then writes ``diagram --svg``.  A function that
never runs must be named in ``reachability_allowlist.txt`` with its reader:
``public API``, ``oracle.py``, ``bench/``, or ``error path`` and the test
that takes it.  ``oracle.py`` itself, the numeric cross-check, is not
scanned, and neither is ``check --with-oracle``, which needs numpy and
stays out of the table.

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
from cli_runs import README_MAP, RUNS

PACKAGE = Path(monodroma.__file__).resolve().parent
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")
READERS = ("public API", "oracle.py", "bench/", "error path")
NOT_SCANNED = {"oracle.py"}
# The time-bounded runs take paths that the others take too, and under the
# profiler the sparse edge's Sturm values, 200001 terms each, take seconds.
UNBOUNDED = [run for run in RUNS if run.timeout is None]

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
    svg = tmp_path / "diagram.svg"
    runs = [run.argv for run in UNBOUNDED] + [("diagram", "--svg", str(svg), README_MAP)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent)] + sys.path))
    done = subprocess.run([sys.executable, "-c", _RECORDER, str(PACKAGE)], input=json.dumps(runs),
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    out = json.loads(done.stdout)
    assert out["codes"] == [run.code for run in UNBOUNDED] + [0]
    assert svg.read_text(encoding="utf-8").startswith("<svg")
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
