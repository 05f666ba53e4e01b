"""Monodromy test for the origin from the Newton diagram of the field.

The origin is certified monodromic (every nearby orbit turns around it)
when the diagram passes four conditions:

    (a) every vertex has even coordinates;
    (b) there are exactly two exterior vertices, with vector coefficients
        (a, 0) and (0, b), and a*b < 0;
    (c) every inner vertex has beta > 0;
    (d) every bounded edge has a nonzero Hamiltonian h with no factor
        v^t1 - a*u^t2, a real nonzero.

The test is one-sided.  Two failure shapes are definite obstructions: an
edge with h = 0 and mu != 0 makes the origin a node, and beta < 0 at an
inner vertex produces a parabolic sector; both rule monodromy out.  Any
other failure leaves the question open and the verdict is Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import Edge, NewtonDiagram
from .realroots import FactorTest, quasi_factor_test

MONODROMIC = "Monodromic"
NOT_MONODROMIC = "NotMonodromic"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one of the four diagram conditions."""

    condition: str
    passed: bool
    detail: str
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class MonodromyVerdict:
    """Typed verdict with the per-condition evidence.

    ``edge_tests`` aligns factor-test results with indices into
    ``diagram.edges`` for the bounded edges whose Hamiltonian is nonzero.
    """

    outcome: str
    reason: Optional[str]
    conditions: tuple[ConditionReport, ...]
    edge_tests: tuple[tuple[int, FactorTest], ...]

    def condition(self, name: str) -> ConditionReport:
        for report in self.conditions:
            if report.condition == name:
                return report
        raise KeyError(name)


def _edge_label(e: Edge) -> str:
    t1, t2 = e.t
    kind = "bounded" if e.bounded else "unbounded"
    return f"{kind} edge of type ({t1},{t2}) on {t1}*x + {t2}*y = {e.line_value}"


def check_monodromic(diagram: NewtonDiagram) -> MonodromyVerdict:
    """Evaluate conditions (a)-(d) and the definite obstructions."""
    reports: list[ConditionReport] = []
    definite: list[str] = []

    odd = [v.point for v in diagram.vertices if v.point[0] % 2 or v.point[1] % 2]
    reports.append(ConditionReport(
        "a", not odd,
        "all vertices have even coordinates" if not odd
        else f"vertices with odd coordinates: {odd}",
        tuple(str(p) for p in odd),
    ))

    exterior = [v for v in diagram.vertices if v.kind == "exterior"]
    if len(exterior) != 2:
        reports.append(ConditionReport(
            "b", False,
            f"expected exactly two exterior vertices, found {len(exterior)}",
            tuple(str(v.point) for v in exterior),
        ))
    else:
        # Two exterior vertices are the first, on x = 0 holding (a, 0), and
        # the last, on y = 0 holding (0, b): a is from P and b from Q alone.
        a, b = diagram.vertices[0].coeff[0], diagram.vertices[-1].coeff[1]
        product = a * b
        reports.append(ConditionReport(
            "b", product < 0,
            f"exterior coefficients a = {a}, b = {b}, "
            f"a*b = {product} {'<' if product < 0 else '>='} 0",
        ))

    for edge in diagram.edges:
        if edge.h.is_zero and not edge.mu.is_zero:
            definite.append(
                f"{_edge_label(edge)} has h = 0 and mu != 0: the origin is a node")

    negative = [(pt, beta) for pt, beta in diagram.inner_betas if beta < 0]
    for pt, beta in negative:
        definite.append(
            f"beta = {beta} < 0 at inner vertex {pt}: parabolic sector at the origin")
    c_witnesses = [f"beta({pt}) = {beta}" for pt, beta in negative]
    c_witnesses += [f"beta({pt}) undefined: {why}" for pt, why in diagram.beta_undefined]
    reports.append(ConditionReport(
        "c", not negative and not diagram.beta_undefined,
        "all inner-vertex betas are positive" if not c_witnesses
        else "; ".join(c_witnesses),
        tuple(c_witnesses),
    ))

    edge_tests: list[tuple[int, FactorTest]] = []
    d_witnesses: list[str] = []
    for idx, edge in enumerate(diagram.edges):
        if not edge.bounded:
            continue
        if edge.h.is_zero:
            d_witnesses.append(f"{_edge_label(edge)} has a null Hamiltonian")
            continue
        test = quasi_factor_test(edge.h, edge.t)
        edge_tests.append((idx, test))
        if test.has_factor:
            spots = ", ".join(map(str, test.witnesses))
            d_witnesses.append(f"{_edge_label(edge)} has factor v^{edge.t[0]} - a*u^{edge.t[1]}: {spots}")
    reports.append(ConditionReport(
        "d", not d_witnesses,
        "every bounded edge Hamiltonian is nonzero and factor-free" if not d_witnesses
        else "; ".join(d_witnesses),
        tuple(d_witnesses),
    ))

    if definite:
        outcome, reason = NOT_MONODROMIC, "; ".join(definite)
    elif all(report.passed for report in reports):
        outcome, reason = MONODROMIC, None
    else:
        failed = ", ".join(r.condition for r in reports if not r.passed)
        outcome, reason = INCONCLUSIVE, f"conditions not established: {failed}"
    return MonodromyVerdict(outcome, reason, tuple(reports), tuple(edge_tests))
