"""Text-to-certificate benchmark for monodroma.

    python3 bench/run.py --workload high_degree --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

One process and one client in a closed loop: each request turns one map's
text into the program's output, and the next request starts only after the
previous one returns.  A run makes at least four passes over the workload's
corpus, each in a fresh seeded order, and goes on until ``--seconds`` of
request time have been measured.  Request times are scaled to the
reference host's nominal speed by a calibration kernel timed between
requests (``Speedometer``); the raw wall-clock rate is printed too.  Every
output is checked afterwards; see ``gate.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-module metrics, including
the tracing overhead; the spans go to ``.bench_spans/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when an output was wrong (the result line is
still printed) or the program's source is missing (no result line), and 2
when the arguments are wrong.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import gate
import shapes
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Report-only metrics, printed but not in BENCHMARK.json.
REPORTED_UNITS = {"proved_share": "ratio", "failed_share": "ratio"}
SETUP_REPEATS = 7
MIN_PASSES = 4
MIN_TRACE_PASSES = 2
TAIL_LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.9)
_FAILED = object()  # stands for the output of a request that raised
# The calibration kernel is timed at most every CALIBRATION_INTERVAL s;
# a request is scaled by the kernel times within CALIBRATION_WINDOW s of it.
CALIBRATION_INTERVAL = 0.1
CALIBRATION_WINDOW = 0.15
# calibration_kernel's time on the reference host (2 cores, Python 3.11)
# when nothing else competes for the CPU.
KERNEL_NOMINAL_S = 0.002


def import_program():
    """Import ``monodroma`` from the checkout's source tree, and only there."""
    package = SRC / "monodroma"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import monodroma

    if Path(monodroma.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: monodroma was imported from {monodroma.__file__}, not {package}")
    return monodroma


def calibration_kernel() -> int:
    """A fixed piece of standard-library Fraction work, unrelated to the
    program, whose time tracks how fast the host runs Python right now.

    ``Speedometer.tick`` runs it with the garbage collector off, so that no
    collection owed by the program's heap is charged to the kernel.
    """
    total = 0
    for i in range(1, 400):
        v = Fraction(i, i + 1) * Fraction(3, 7) + Fraction(1, i + 2)
        total += v.numerator % 7
    return total


class Speedometer:
    """Times ``calibration_kernel`` between requests.

    Other load on a shared host comes in phases that can slow all Python
    code by up to 2x for tens of seconds.  A request's time multiplied by
    ``factor`` is its time at the reference host's nominal speed.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def tick(self, force: bool = False) -> None:
        if force or not self.at or time.perf_counter() - self.at[-1] >= CALIBRATION_INTERVAL:
            enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                calibration_kernel()
                end = time.perf_counter()
            finally:
                if enabled:
                    gc.enable()
            self.at.append(end)
            self.kernel_s.append(end - start)

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - CALIBRATION_WINDOW)
        hi = bisect.bisect_right(self.at, end + CALIBRATION_WINDOW)
        near = self.kernel_s[lo:hi] or self.kernel_s[max(0, lo - 1):lo + 1]
        return KERNEL_NOMINAL_S / statistics.median(near)


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median seconds of set-up over fresh interpreters, at nominal speed."""
    repeats = 1 if tiny else SETUP_REPEATS
    speed = Speedometer()
    times = []
    for _ in range(repeats):
        speed.tick(force=True)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed),
             "1" if tiny else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        end = time.perf_counter()
        speed.tick(force=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) * speed.factor(start, end))
    return statistics.median(times)


class Run:
    """The timed passes of one run and everything checked about them."""

    def __init__(self, api, workload: str, cases: list, seed: int) -> None:
        self.api = api
        self.rng = random.Random(f"order/{workload}/{seed}")
        self.shape = workloads.SHAPE[workload]
        self.request = shapes.SHAPES[self.shape]
        self.cases = cases
        self.speed = Speedometer()
        self.samples: list[list[float]] = [[] for _ in cases]  # seconds at nominal speed
        self.first: list = [None] * len(cases)      # canonical first-pass output
        self.outputs: list = [None] * len(cases)    # raw first-pass output
        self.artifacts: list = [None] * len(cases)
        self.problems: dict[int, list[str]] = {}
        self.sent = [0] * len(cases)
        self.failed_requests = 0
        self.attempted = 0
        self.pass_seconds: list[float] = []
        self._have_first = False

    def one_pass(self, call=None, record: bool = True, budget: float = float("inf")) -> float:
        """Run every case once, in a fresh seeded order; return the pass's
        request seconds.

        ``call`` wraps each request (the tracer passes its own).  The pass
        stops early once ``budget`` seconds of requests have run.  Outputs
        are compared with the first pass after the timed loop of the pass.
        """
        outputs: list = [None] * len(self.cases)
        order = list(range(len(self.cases)))
        self.rng.shuffle(order)
        timed = []
        total = 0.0
        for idx in order:
            if total >= budget:
                break
            case = self.cases[idx]
            self.speed.tick()
            start = time.perf_counter()
            try:
                if call is None:
                    out = self.request(self.api, case.text)
                else:
                    out = call(self.request, self.api, case.text)
            except Exception:  # a failed request is counted, the run goes on
                out = None
                self.problems.setdefault(idx, []).append(
                    traceback.format_exc(limit=3).strip().splitlines()[-1])
            end = time.perf_counter()
            total += end - start
            timed.append((idx, start, end))
            outputs[idx] = out or _FAILED
        self.speed.tick(force=True)
        if record:
            for idx, start, end in timed:
                self.samples[idx].append((end - start) * self.speed.factor(start, end))
        self._compare(outputs)
        return total

    def _compare(self, outputs: list) -> None:
        first_pass = not self._have_first
        self._have_first = True
        for idx, out in enumerate(outputs):
            if out is None:
                continue
            self.attempted += 1
            self.sent[idx] += 1
            if out is _FAILED:
                self.failed_requests += 1
                continue
            text, artifact = out
            canon = gate.canonical(self.shape, text)
            if first_pass:
                self.first[idx], self.outputs[idx], self.artifacts[idx] = canon, text, artifact
            elif canon != self.first[idx]:
                self.failed_requests += 1
                self.problems.setdefault(idx, []).append("output differs between passes")

    def passes(self, seconds: float, min_passes: int) -> None:
        """At least ``min_passes`` whole passes, then more until ``seconds``
        of requests have run; the last pass may stop part-way."""
        measured = 0.0
        while len(self.pass_seconds) < min_passes or measured < seconds:
            budget = float("inf") if len(self.pass_seconds) < min_passes else seconds - measured
            self.pass_seconds.append(self.one_pass(budget=budget))
            measured += self.pass_seconds[-1]

    # -- checks, outside every timed region --------------------------------

    def check_outputs(self, oracle: bool) -> None:
        validator = gate.load_validator(self.api)
        for idx, case in enumerate(self.cases):
            if self.outputs[idx] is None:
                continue
            if self.shape == "check":
                found = gate.check_certificate(validator, case, self.outputs[idx],
                                               self.artifacts[idx])
            else:
                found = gate.check_diagram(self.outputs[idx], self.artifacts[idx])
            if oracle:
                found += gate.oracle_cross_check(self.shape, self.artifacts[idx])
            if found:
                self.problems.setdefault(idx, []).extend(found)
                self.failed_requests += self.sent[idx]
        known = gate.known_answers(self.api, shapes.check_request, shapes.diagram_request)
        self.attempted += len(workloads.KNOWN_ANSWERS) + 1
        self.failed_requests += len(known)
        for text, found in known.items():
            self.problems.setdefault(-1, []).extend(f"{text}: {line}" for line in found)

    def digest(self) -> str:
        h = hashlib.sha256()
        for case, canon in zip(self.cases, self.first):
            h.update(f"{case.id}\t{canon}\n".encode())
        return h.hexdigest()

    # -- per-map rows -------------------------------------------------------

    def rows(self) -> list[dict]:
        out = []
        for idx, case in enumerate(self.cases):
            f, g = self.api.parse_map(case.text)
            art = self.artifacts[idx]
            b_field = verdict = None
            if self.shape == "check" and art is not None:
                b_field, verdict = art.compactified, art.verdict
            elif art is not None:
                b_field, verdict = art[0], "diagram"
            out.append({
                "id": case.id,
                "degree": max(f.total_degree() if not f.is_zero else 0,
                              g.total_degree() if not g.is_zero else 0),
                "terms": len(f) + len(g),
                "bx_terms": None if b_field is None else len(b_field.p) + len(b_field.q),
                "verdict": verdict or "error",
                "median_ms": statistics.median(self.samples[idx]) * 1000
                if self.samples[idx] else float("nan"),
            })
        return out


# -- metrics ----------------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """(gated metric values, report-only details).

    Request times are taken at the reference host's nominal speed (see
    ``Speedometer``), and a map's time is the median over the run's
    passes.  Throughput is maps per second of those times, and the
    percentiles are taken over them with one sample per map.  The raw
    wall-clock throughput is reported beside them.
    """
    per_map = [statistics.median(per_case) for per_case in run.samples]
    requests = sum(len(per_case) for per_case in run.samples)
    p = tail_percentile(len(per_map))
    permille = statistics.quantiles(per_map, n=1000, method="inclusive")
    tail = permille[round(p * 10) - 1] * 1000
    beyond = sum(1 for b in per_map if b * 1000 > tail)
    verdicts = [getattr(art, "verdict", None) for art in run.artifacts]
    metrics = {
        "setup_s": setup_s,
        "maps_per_s": len(per_map) / sum(per_map),
        "latency_p50_ms": permille[499] * 1000,
        "latency_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "tail": f"p{p:g} of {len(per_map)} maps' median times, {beyond} maps beyond; {requests} requests",
        "wall": f"wall clock: {requests / sum(run.pass_seconds):.4g} maps/s over "
                f"{len(run.pass_seconds)} passes; host at "
                f"{KERNEL_NOMINAL_S / statistics.median(run.speed.kernel_s):.2f} of nominal speed",
        "proved_share": None if run.shape != "check"
        else sum(v == "Injective" for v in verdicts) / len(verdicts),
    }
    return metrics, details


def per_layer(trace_passes: list[dict], untraced: list[float], traced: list[float]) -> tuple[dict, list[str]]:
    """Per-module metrics from the traced passes; counts must repeat exactly."""
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    problems = []
    first_counts = trace_passes[0]["counts"]
    for rec in trace_passes[1:]:
        if rec["counts"] != first_counts:
            diff = sorted(k for k in set(rec["counts"]) | set(first_counts)
                          if rec["counts"].get(k) != first_counts.get(k))
            problems.append(f"traced counts differ between passes: {diff}")
    out = {}
    for name in names:
        if name.endswith(".self_ms"):
            span = name[: -len(".self_ms")]
            out[name] = statistics.median(rec["self_ms"].get(span, 0.0) for rec in trace_passes)
        elif name == "bendixson.edge_term_share":
            pts = first_counts.get("diagram.support_points", 0)
            out[name] = first_counts.get("diagram.edge_points", 0) / pts if pts else 0.0
        elif name == "trace.overhead_ratio":
            out[name] = statistics.median(traced) / statistics.median(untraced)
        else:
            out[name] = first_counts.get(name, 0)
    return out, problems


def module_shares(trace_passes: list[dict]) -> dict[str, float]:
    """Share of traced request time spent in each module's own code."""
    totals: dict[str, float] = {}
    wall = 0.0
    for rec in trace_passes:
        wall += rec["request_ms"]
        for span, ms in rec["self_ms"].items():
            module = span.split(".")[0]
            totals[module] = totals.get(module, 0.0) + ms
    return {m: v / wall for m, v in sorted(totals.items(), key=lambda kv: -kv[1])}


# -- report -------------------------------------------------------------------------


def print_rows(run: Run) -> None:
    rows = run.rows()
    print(f"{'map':<16} {'deg':>4} {'terms':>5} {'bX_terms':>8} {'verdict':<14} {'median_ms':>10}")
    for r in rows:
        bx = "-" if r["bx_terms"] is None else r["bx_terms"]
        print(f"{r['id']:<16} {r['degree']:>4} {r['terms']:>5} {bx:>8} {r['verdict']:<14} "
              f"{r['median_ms']:>10.3f}")
    slowest = max(rows, key=lambda r: r["median_ms"])
    print(f"slowest map: {slowest['id']} ({slowest['median_ms']:.3f} ms)")


def print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:>14.6g} {units[name]}{note}")


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; the worst exit code."""
    worst = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        worst = max(worst, subprocess.run(command, cwd=ROOT, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or 'all' to run each in turn in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small maps and the fewest passes (for the self-test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    api = import_program()
    setup_s = measure_setup(args.workload, args.seed, args.tiny) if not args.trace else None
    cases = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    run = Run(api, args.workload, cases, args.seed)
    # Warm-up: one untimed request, so first-call costs stay out of the timing.
    run.request(api, cases[0].text)

    min_passes = 1 if args.tiny else MIN_PASSES
    count_problems: list[str] = []
    if not args.trace:
        run.passes(args.seconds, min_passes)
    else:
        from spans import Tracer

        tracer = Tracer()
        untraced, traced, records = [], [], []
        min_trace = 1 if args.tiny else MIN_TRACE_PASSES
        measured = 0.0
        while len(traced) < min_trace or measured < args.seconds:
            untraced.append(run.one_pass())
            tracer.install()
            try:
                traced.append(run.one_pass(call=tracer.request, record=False))
            finally:
                tracer.uninstall()
            records.append(tracer.take_pass())
            measured += untraced[-1] + traced[-1]
        run.pass_seconds = untraced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    run.check_outputs(oracle=args.workload in ("high_degree", "full_field"))

    print(f"workload {args.workload}  seed {args.seed}  shape {run.shape}  "
          f"maps {len(cases)}  passes {len(run.pass_seconds)}  "
          f"closed loop, 1 client, 1 process")
    print(f"digest sha256:{run.digest()}")
    print_rows(run)
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    units.update(REPORTED_UNITS)
    if not args.trace:
        metrics, details = end_to_end(run, setup_s, peak_rss_mb)
        shown = dict(metrics)
        shown["proved_share"] = float("nan") if details["proved_share"] is None else details["proved_share"]
        shown["failed_share"] = run.failed_requests / run.attempted
        notes = {"latency_tail_ms": details["tail"], "maps_per_s": details["wall"]}
        if details["proved_share"] is None:
            notes["proved_share"] = "not applicable: diagram requests have no verdict"
        print("end-to-end metrics:")
        print_metrics(shown, units, notes)
    else:
        metrics, count_problems = per_layer(records, untraced, traced)
        print("per-module metrics (per corpus pass; self times are medians over traced passes):")
        print_metrics(metrics, units, {})
        print(f"  tracing overhead: untraced {len(run.cases) / statistics.median(untraced):.4g} maps/s, "
              f"traced {len(run.cases) / statistics.median(traced):.4g} maps/s")
        print("module shares of traced request time (self time):")
        for module, share in module_shares(records).items():
            print(f"  {module:<12} {share:7.2%}")
        out_dir = ROOT / ".bench_spans"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
        with span_file.open("w", encoding="utf-8") as handle:
            for record in tracer.span_records():
                handle.write(json.dumps(record) + "\n")
        print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")

    for idx, found in sorted(run.problems.items()):
        label = "known answers" if idx < 0 else cases[idx].id
        for line in found:
            print(f"FAILED {label}: {line}")
    for line in count_problems:
        print(f"FAILED {line}")
    failed = run.failed_requests + len(count_problems)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
