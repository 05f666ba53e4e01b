"""Smoke self-test of the benchmark itself.

    python3 bench/selftest.py

Runs all four workloads on a tiny corpus and checks that

* every end-to-end metric is printed with its unit (untraced run), and the
  result line carries exactly the metrics ``BENCHMARK.json`` names;
* every per-module metric is printed with its unit (traced run), and the
  traced counts repeat exactly across two invocations;
* the output digest repeats across all three invocations;
* without the program's source the benchmark exits nonzero and prints no
  result line.

Exits 0 when everything holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("high_degree", "full_field", "random_maps", "big_coeffs")
SEED = 7
# Per-module metrics that are work counts, not times: they must repeat.
EXACT_UNITS = {"count", "bits", "ratio"}


def invoke(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def result_of(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def digest_of(done) -> str:
    return next(line for line in done.stdout.splitlines() if line.startswith("digest "))


def check_workload(workload: str, bench_names: dict) -> list[str]:
    problems = []
    plain = invoke(workload, 0)
    traced = [invoke(workload, 1), invoke(workload, 1)]
    for label, done in (("untraced", plain), ("traced 1", traced[0]), ("traced 2", traced[1])):
        if done.returncode != 0:
            problems.append(f"{label} run exited {done.returncode}: {done.stderr.strip()[-300:]}")
    if problems:
        return problems

    result = result_of(plain)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != set(bench_names["end_to_end"]):
        problems.append(f"untraced metrics {sorted(result['metrics'])} != BENCHMARK.json end_to_end")
    for name, unit in bench_names["end_to_end"].items():
        line = next((ln for ln in plain.stdout.splitlines() if ln.split()[:1] == [name]), None)
        if line is None or not line.split()[2:3] == [unit]:
            problems.append(f"end-to-end metric {name} not printed with unit {unit}")

    counts = []
    for done in traced:
        metrics = result_of(done)["metrics"]
        if set(metrics) != set(bench_names["per_layer"]):
            problems.append(f"traced metrics {sorted(metrics)} != BENCHMARK.json per_layer")
        for name, unit in bench_names["per_layer"].items():
            if name not in metrics or metrics[name]["unit"] != unit:
                problems.append(f"per-module metric {name} missing or without unit {unit}")
        counts.append({k: v["value"] for k, v in metrics.items()
                       if bench_names["per_layer"].get(k) in EXACT_UNITS})
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append(f"traced counts differ between invocations: {diff}")
    if "tracing overhead" not in traced[0].stdout:
        problems.append("traced run does not print the tracing overhead")
    digests = {digest_of(done) for done in [plain, *traced]}
    if len(digests) != 1:
        problems.append(f"digests differ: {sorted(digests)}")
    return problems


def check_without_program() -> list[str]:
    """A directory holding only BENCHMARK.json and the benchmark must fail."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selftest-") as tmp:
        bare = Path(tmp)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if (ROOT / "BENCHMARK.json").is_file():
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = invoke("random_maps", 0, cwd=bare, script=bare / BENCH_DIR.name / "run.py")
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["without the program the benchmark did not fail cleanly"]
    return []


def main() -> int:
    bench_file = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    bench_names = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        found = check_workload(workload, bench_names)
        problems += [f"{workload}: {p}" for p in found]
        print(f"{workload}: {'PASS' if not found else 'FAIL'}", flush=True)
    found = check_without_program()
    problems += found
    print(f"without program: {'PASS' if not found else 'FAIL'}")
    for line in problems:
        print(f"FAILED {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
