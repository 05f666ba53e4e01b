"""Spans and work counters recorded from outside the program.

The tracer replaces functions at the names their callers look up (for
example ``monodroma.pipeline.compactify``, which ``certify`` calls) with
wrappers that record a span: name, start, end, parent and request id.
Counters ride on the same wrappers and on a few ``BivarPoly`` methods.
Nothing under the program's source tree changes; ``uninstall`` puts every
original back.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

# Span name -> the (module, attribute) lookup sites to wrap.  A site is
# where a caller finds the function: the package namespace for the calls
# the request shapes make, the calling module's globals for the rest.
SPAN_SITES = {
    "parser.parse_map": [("monodroma", "parse_map")],
    "pipeline.certify": [("monodroma", "certify")],
    "pipeline.jacobian_det": [("monodroma.pipeline", "jacobian_det")],
    "pipeline.det_nonvanishing_heuristic": [("monodroma.pipeline", "det_nonvanishing_heuristic")],
    "field.hamiltonian_field": [("monodroma", "hamiltonian_field"),
                                ("monodroma.pipeline", "hamiltonian_field")],
    "bendixson.compactify": [("monodroma", "compactify"), ("monodroma.pipeline", "compactify")],
    "diagram.build_diagram": [("monodroma", "build_diagram"),
                              ("monodroma.pipeline", "build_diagram")],
    "field.support": [("monodroma", "support"), ("monodroma.diagram", "support")],
    "diagram.newton_chain": [("monodroma.diagram", "newton_chain")],
    "diagram.edge_hamiltonian": [("monodroma.diagram", "edge_hamiltonian")],
    "monodromy.check_monodromic": [("monodroma.pipeline", "check_monodromic")],
    "realroots.quasi_factor_test": [("monodroma.monodromy", "quasi_factor_test")],
    "pipeline.cima_condition": [("monodroma.pipeline", "cima_condition")],
    "field.common_real_linear_factors": [("monodroma.pipeline", "common_real_linear_factors")],
    "realroots.nonzero_real_roots": [("monodroma.field", "nonzero_real_roots")],
    "render.render_ascii": [("monodroma", "render_ascii")],
    "pipeline.to_json": [("shapes", "to_json")],
}
REQUEST = "request"
DET_SPAN = "pipeline.det_nonvanishing_heuristic"
# Spans whose arguments and results are inspected after each pass, outside
# the timed code, to derive size counters.
_INSPECTED = {"bendixson.compactify", "diagram.build_diagram", "realroots.quasi_factor_test"}


def _bits(c) -> int:
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _support_points(x_field) -> set[tuple[int, int]]:
    pts = {(i, j + 1) for (i, j), _ in x_field.p.terms()}
    pts.update((i + 1, j) for (i, j), _ in x_field.q.terms())
    return pts


class Tracer:
    """Records spans and counters for one traced run; one instance per run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, Optional[int], str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._request_id = 0
        self._inspect: list[tuple[str, tuple, object]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._pass_start = 0

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> tuple[int, Optional[int]]:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((self._next_id, name))
        return self._next_id, parent

    def _close(self, sid: int, parent: Optional[int], name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((self._request_id, sid, parent, name, start, end))

    def request(self, call: Callable, *args):
        """Run one request under a root span with a fresh request id."""
        self._request_id += 1
        sid, parent = self._open(REQUEST)
        start = time.perf_counter_ns()
        try:
            return call(*args)
        finally:
            self._close(sid, parent, REQUEST, start)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        inspected = name in _INSPECTED
        is_det = name == DET_SPAN

        def wrapper(*args, **kwargs):
            sid, parent = self._open(name)
            evals_before = self.counts["pipeline.det_evaluations"] if is_det else 0
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if inspected:
                self._inspect.append((name, args, result))
            if is_det:
                self.counts[f"pipeline.det_status.{result.status}"] += 1
                if result.status == "Unknown":
                    self.counts["pipeline.det_wasted_evaluations"] += (
                        self.counts["pipeline.det_evaluations"] - evals_before)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every span site and counter; raise if a site is missing."""
        for name, sites in SPAN_SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    raise LookupError(f"trace site {module_name}.{attr} for {name} is missing")
                self._replace(module, attr, self._wrap(name, original))

        from monodroma import realroots
        from monodroma.polycore import BivarPoly

        counts = self.counts
        stack = self._stack
        mul = BivarPoly.__mul__

        def counted_mul(a, b):
            counts["polycore.mul.calls"] += 1
            counts["polycore.mul.term_products"] += len(a) * (len(b) if isinstance(b, BivarPoly) else 1)
            return mul(a, b)

        evaluate = BivarPoly.evaluate

        def counted_evaluate(poly, x, y):
            if stack and stack[-1][1] == DET_SPAN:
                counts["pipeline.det_evaluations"] += 1
            return evaluate(poly, x, y)

        sturm_chain = realroots.sturm_chain

        def counted_sturm_chain(p):
            counts["realroots.sturm_chain.calls"] += 1
            return sturm_chain(p)

        self._replace(BivarPoly, "__mul__", counted_mul)
        self._replace(BivarPoly, "__rmul__", counted_mul)
        self._replace(BivarPoly, "evaluate", counted_evaluate)
        self._replace(realroots, "sturm_chain", counted_sturm_chain)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- per-pass aggregation --------------------------------------------

    def take_pass(self) -> dict:
        """Fold the spans and counters recorded since the last call into one
        pass record: self milliseconds per span name, and counts.

        Spans stay in ``self.spans`` for writing out at the end.
        """
        spans = self.spans[self._pass_start:]
        self._pass_start = len(self.spans)
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, t0, t1 in spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        self_ms: dict[str, float] = defaultdict(float)
        wall_ns = 0
        counts = Counter(self.counts)
        self.counts.clear()
        for _, sid, parent, name, t0, t1 in spans:
            self_ms[name] += (t1 - t0 - child_ns[sid]) / 1e6
            counts[f"{name}.calls"] += 1
            if parent is None:
                wall_ns += t1 - t0
        counts.update(self._derived_counts())
        return {"self_ms": dict(self_ms), "counts": dict(counts), "request_ms": wall_ns / 1e6}

    def _derived_counts(self) -> Counter:
        out: Counter = Counter()
        bits = {"polycore.coeff_bits_max": 0, "realroots.lambda_coeff_bits_max": 0}
        for name, args, result in self._inspect:
            if name == "bendixson.compactify":
                out["bendixson.compactify.terms_out"] += len(result.p) + len(result.q)
                for poly in (result.p, result.q):
                    for _, c in poly.terms():
                        bits["polycore.coeff_bits_max"] = max(bits["polycore.coeff_bits_max"], _bits(c))
            elif name == "diagram.build_diagram":
                pts = _support_points(args[0])
                lines = [(e.t, e.line_value) for e in result.edges]
                out["diagram.support_points"] += len(pts)
                out["diagram.edge_points"] += sum(
                    1 for x, y in pts if any(t1 * x + t2 * y == v for (t1, t2), v in lines))
            elif name == "realroots.quasi_factor_test":
                for c in result.lambda_poly.coeffs:
                    bits["realroots.lambda_coeff_bits_max"] = max(
                        bits["realroots.lambda_coeff_bits_max"], _bits(c))
        self._inspect.clear()
        out.update(bits)
        return out

    def span_records(self):
        """Spans as dicts, ready to be written out one per line."""
        for rid, sid, parent, name, t0, t1 in self.spans:
            yield {"request": rid, "id": sid, "parent": parent, "name": name,
                   "start_ns": t0, "end_ns": t1}
