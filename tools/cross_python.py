"""Check that every installed Python gives the same certificates and b(X).

For each of python3.10 to python3.13 found on PATH, a child interpreter
generates the ``random_maps``, ``high_degree`` and ``big_coeffs`` corpora of
``bench/workloads.py`` at seeds 1 and 29, certifies every map from this
checkout's ``src``, and hashes the certificates without ``timings_ms``: one
line ``<id>\\t<certificate as sorted compact JSON>`` per map, the form of the
benchmark's output digest.  Certificates reach only ``compactify_lower``, so
the child also hashes the full transform on the ``full_field`` corpus at the
same seeds: one line ``<id>\\t<denominator>\\t<sorted [point, a, b] list>``
per map, from ``vector_coefficients(compactify(hamiltonian_field(f, g)))``.
An interpreter that is not installed is skipped.

Usage: python3 tools/cross_python.py

Exit status: 0 when every interpreter that ran gives the same digests, 1 on
a mismatch, a failed child, or no interpreter at all.  Stdlib only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INTERPRETERS = ("python3.10", "python3.11", "python3.12", "python3.13")
WORKLOADS = ("random_maps", "high_degree", "big_coeffs", "full_field")
SEEDS = (1, 29)

_CHILD = """
import hashlib, json, sys
import monodroma, workloads
from monodroma.field import vector_coefficients

def line(workload, text):
    f, g = monodroma.parse_map(text)
    if workload == "full_field":
        coeffs, den = vector_coefficients(monodroma.compactify(monodroma.hamiltonian_field(f, g)))
        return f"{den}\\t{json.dumps(sorted([pt, a, b] for pt, (a, b) in coeffs.items()))}"
    doc = monodroma.certify(f, g).to_json_dict()
    doc.pop("timings_ms", None)
    return json.dumps(doc, sort_keys=True, separators=(',', ':'))

digests = {}
for workload in json.loads(sys.argv[1]):
    for seed in json.loads(sys.argv[2]):
        h = hashlib.sha256()
        for case in workloads.generate(workload, seed):
            h.update(f"{case.id}\\t{line(workload, case.text)}\\n".encode())
        digests[f"{workload} seed {seed}"] = h.hexdigest()
print(json.dumps({"version": sys.version.split()[0], "digests": digests}))
"""


def _run(interpreter: str) -> dict | None:
    """The child's report, or None when the interpreter is not installed."""
    path = shutil.which(interpreter)
    if path is None or subprocess.run([path, "-c", "pass"], capture_output=True).returncode:
        return None  # absent, or a shim with no interpreter behind it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([path, "-c", _CHILD, json.dumps(WORKLOADS), json.dumps(SEEDS)],
                          capture_output=True, text=True, env=env)
    if done.returncode:
        return {"version": "?", "error": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout)


def main() -> int:
    reports = {}
    for interpreter in INTERPRETERS:
        report = _run(interpreter)
        if report is None:
            print(f"{interpreter}: not installed, skipped")
            continue
        reports[interpreter] = report
        if "error" in report:
            print(f"{interpreter}: failed: {report['error']}")
            continue
        print(f"{interpreter} ({report['version']}):")
        for corpus, digest in report["digests"].items():
            print(f"  {corpus:<22} {digest}")
    digests = [r.get("digests") for r in reports.values()]
    if not digests:
        print("no interpreter ran")
        return 1
    if None in digests or any(d != digests[0] for d in digests):
        print(f"MISMATCH across {', '.join(reports)}")
        return 1
    print(f"all {len(digests)} interpreters agree on {len(digests[0])} corpora")
    return 0


if __name__ == "__main__":
    sys.exit(main())
