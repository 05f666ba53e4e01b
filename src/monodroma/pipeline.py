"""End-to-end injectivity certification for planar polynomial maps.

Given F = (f, g) with F(0, 0) = (0, 0) and nowhere-vanishing Jacobian
determinant, F is globally injective as soon as the origin of the
compactified Hamiltonian field b(X) is monodromic; the pipeline chains

    F -> det check -> X -> b(X) -> Newton diagram -> monodromy conditions

entirely in exact arithmetic and returns a Certificate recording every
stage.  The determinant hypothesis is only ever proved by two conservative
patterns (nonzero constant; positive constant plus even monomials with
positive coefficients, or the global negation).  Anything else is Unknown
unless the caller assumes it, and an exact zero or a sign change between two
sample points makes the map ineligible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Mapping, Optional

from .polycore import BivarPoly, Monomial, mul_numerators
from .field import PlanarField, common_real_linear_factors, hamiltonian_field
from .bendixson import compactify, compactify_lower
from .diagram import NewtonDiagram, build_diagram
from .monodromy import MONODROMIC, MonodromyVerdict, check_monodromic
from .realroots import FactorWitness

SCHEMA_VERSION = 3

PROVED = "ProvedNonvanishing"
ASSUMED = "AssumedByUser"
UNKNOWN = "Unknown"
VANISHES = "VanishesAt"

INJECTIVE = "Injective"
INCONCLUSIVE = "Inconclusive"
NOT_APPLICABLE = "NotApplicable"

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class DetStatus:
    """What is known about the Jacobian determinant of the input map.

    ``VanishesAt`` carries one piece of exact evidence: a ``witness`` where
    det = 0, or a ``segment`` (p, n) with det(p) > 0 > det(n), so det
    vanishes between p and n by the intermediate value theorem.
    """

    status: str
    method: Optional[str] = None
    witness: Optional[Point] = None
    segment: Optional[tuple[Point, Point]] = None
    detail: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.status in (PROVED, ASSUMED)

    @property
    def witness_exact(self) -> bool:
        return self.witness is not None


def _partials(num: Mapping[Monomial, int]) -> tuple[dict[Monomial, int], dict[Monomial, int]]:
    """The x and y partial derivatives of integer numerators, over the same denominator."""
    return ({(i - 1, j): i * n for (i, j), n in num.items() if i},
            {(i, j - 1): j * n for (i, j), n in num.items() if j})


def jacobian_det(f: BivarPoly, g: BivarPoly) -> BivarPoly:
    """det DF = f_x * g_y - f_y * g_x, in integers over den f * den g."""
    (nf, df), (ng, dg) = f.numerators(), g.numerators()
    (fx, fy), (gx, gy) = _partials(nf), _partials(ng)
    det = mul_numerators(fx, gy)
    for key, n in mul_numerators(fy, gx).items():
        det[key] = det.get(key, 0) - n
    return BivarPoly.from_numerators(det, df * dg)


def _even_positive_method(det: BivarPoly) -> Optional[str]:
    """Match the even-monomial positivity pattern, or its global negation."""
    num, _ = det.numerators()  # the denominator is positive: numerator signs suffice
    for sign, name in ((1, "positive"), (-1, "negative")):
        if sign * num.get((0, 0), 0) <= 0:
            continue
        if all(i % 2 == 0 and j % 2 == 0 and sign * n > 0 for (i, j), n in num.items()):
            return f"{name} constant plus even monomials of matching sign"
    return None


def _sample_points() -> tuple[Point, ...]:
    """The half-integer grid over [-5, 5]^2, then 100 fixed pseudo-random points."""
    rng = random.Random(20260814)
    grid = [Fraction(k, 2) for k in range(-10, 11)]
    points = [(gx, gy) for gx in grid for gy in grid]
    for _ in range(100):
        x = Fraction(rng.randint(-1000, 1000), rng.randint(1, 100))
        points.append((x, Fraction(rng.randint(-1000, 1000), rng.randint(1, 100))))
    return tuple(points)


_SAMPLE_POINTS = _sample_points()

# The sample as maximal runs of consecutive points sharing x, in sample
# order: (a, b, ((point, c, d), ...)) with x = a/b and y = c/d.  That is the
# 21 grid columns, then the pseudo-random points.
_SAMPLE_COLUMNS = tuple(
    (x.numerator, x.denominator, tuple((p, p[1].numerator, p[1].denominator) for p in run))
    for x, run in groupby(_SAMPLE_POINTS, key=itemgetter(0)))


def det_nonvanishing_heuristic(det: BivarPoly) -> DetStatus:
    """Conservative decision procedure for the determinant hypothesis.

    Deliberately incomplete: positivity proofs beyond the two syntactic
    patterns are out of scope, so a positive-definite determinant such as
    (x^2 - y^2)^2 + 1 comes back Unknown.  Zeros, however, are hunted by
    exact evaluation on the half-integer grid over [-5, 5]^2 and 100 fixed
    pseudo-random rational points, up to the first exact zero (the witness)
    or the first sign change (the segment from the first point with det > 0
    to the first with det < 0).  The sample is the same on every call, so
    the status is deterministic.

    Only signs are read, in integers, lazily, column by column.  On entering
    a column x = a/b, det collapses to one integer coefficient per distinct
    y exponent, O(terms); each point y = c/d of the column then costs one
    Horner pass over those exponents, O(distinct y exponents), stepping by
    their gaps rather than over a dense degree range.
    """
    if det.is_zero:
        return DetStatus(VANISHES, witness=(Fraction(0), Fraction(0)),
                         detail="determinant is identically zero")
    if det.support() == [(0, 0)]:
        return DetStatus(PROVED, method="nonzero constant")
    method = _even_positive_method(det)
    if method is not None:
        return DetStatus(PROVED, method=method)

    num, _ = det.numerators()
    rows: dict[int, list[tuple[int, int]]] = {}
    for (i, j), n in num.items():
        rows.setdefault(j, []).append((i, n))
    x_exps = {i for i, _ in num}
    dx = max(x_exps)
    y_exps = sorted(rows, reverse=True)
    positive: Optional[Point] = None
    negative: Optional[Point] = None
    for a, b, column in _SAMPLE_COLUMNS:
        # b^dx den det(a/b, y) = sum over j of C_j y^j.
        xs = {i: a**i * b**(dx - i) for i in x_exps}
        coeffs = [(j, cj) for j in y_exps if (cj := sum(n * xs[i] for i, n in rows[j]))]
        if not coeffs:
            return DetStatus(VANISHES, witness=column[0][0], detail="exact zero found by sampling")
        lead, low = coeffs[0][1], coeffs[-1][0]
        steps = [(prev - j, cj) for (prev, _), (j, cj) in zip(coeffs, coeffs[1:])]
        for point, c, d in column:
            # Horner over the kept j, high to low, stepping by their gaps:
            # sum_j C_j c^j d^(J - j) = c^low * acc, J the largest kept j.
            # den, b and d are positive, so det(x, y) has the sign of that.
            acc, d_pow = lead, 1
            for gap, cj in steps:
                d_pow *= d**gap
                acc = acc * c**gap + cj * d_pow
            if c < 0 and low & 1:
                acc = -acc
            if acc == 0 or (c == 0 and low):
                return DetStatus(VANISHES, witness=point, detail="exact zero found by sampling")
            if acc > 0:
                positive = positive or point
            else:
                negative = negative or point
            if positive and negative:
                return DetStatus(VANISHES, segment=(positive, negative),
                                 detail="sign change between two sample points")
    return DetStatus(UNKNOWN, detail="no syntactic pattern matched and sampling saw one sign")


def cima_condition(f: BivarPoly, g: BivarPoly) -> bool:
    """Whether the leading forms of the Hamiltonian field components share
    no real linear factor: the 2016 condition the criterion generalizes
    (J. Differential Equations 260, 5250-5258).  No verdict reads it.  A
    zero component is divisible by every linear form, so it takes its
    partner's place, and only real-factor-free partners survive it."""
    x_field = hamiltonian_field(f, g)
    lam, omg = (c.leading_form() if c else c for c in (x_field.p, x_field.q))
    return not common_real_linear_factors(lam or omg, omg or lam)


@dataclass(frozen=True)
class Certificate:
    """Full record of one certification run: the fields its JSON serializes,
    and nothing else.  ``compactified``, the full b(X) for auditors and
    numeric cross-checks, is rebuilt from f and g on first access, outside
    the timed stages, when there is a diagram; otherwise it is None."""

    f: BivarPoly
    g: BivarPoly
    verdict: str
    reason: Optional[str]
    det_status: DetStatus
    diagram: Optional[NewtonDiagram]
    monodromy: Optional[MonodromyVerdict]
    timings_ms: dict[str, float]

    @cached_property
    def compactified(self) -> Optional[PlanarField]:
        return None if self.diagram is None else compactify(hamiltonian_field(self.f, self.g))

    def to_json_dict(self) -> dict:
        return _certificate_json(self)


def certify(f: BivarPoly, g: BivarPoly, *, assume_det: bool = False) -> Certificate:
    """Run the full pipeline on F = (f, g)."""
    timings: dict[str, float] = {}
    start_total = time.perf_counter()

    def done(stage: str, start: float) -> None:
        timings[stage] = (time.perf_counter() - start) * 1000.0

    def finish(verdict: str, reason: Optional[str], det: DetStatus,
               dia: Optional[NewtonDiagram] = None,
               mono: Optional[MonodromyVerdict] = None) -> Certificate:
        timings["total"] = (time.perf_counter() - start_total) * 1000.0
        return Certificate(f, g, verdict, reason, det, dia, mono, timings)

    if f.is_zero and g.is_zero:
        return finish(NOT_APPLICABLE, "zero map: the Hamiltonian field vanishes identically",
                      det_nonvanishing_heuristic(BivarPoly.zero()))

    f0, g0 = f.coeff(0, 0), g.coeff(0, 0)
    if f0 or g0:
        return finish(
            NOT_APPLICABLE,
            f"origin is not fixed: F(0,0) = ({f0}, {g0}); "
            "certify the translate (f - f(0,0), g - g(0,0)) instead",
            DetStatus(UNKNOWN))

    start = time.perf_counter()
    det = jacobian_det(f, g)
    if assume_det and not det.is_zero:
        det_status = DetStatus(ASSUMED, detail="determinant hypothesis assumed by the caller")
    else:
        det_status = det_nonvanishing_heuristic(det)
    done("det", start)
    if det_status.status == VANISHES:
        return finish(NOT_APPLICABLE,
                      f"Jacobian determinant vanishes ({det_status.detail})", det_status)

    # One support map from here to the diagram: X's, read off the energy's
    # numerators, then b(X)'s terms on or below the segment of the axis hits.
    start = time.perf_counter()
    x_field = hamiltonian_field(f, g)
    done("hamiltonian_field", start)

    start = time.perf_counter()
    b_field = compactify_lower(x_field)
    done("compactify", start)

    start = time.perf_counter()
    dia = build_diagram(b_field)
    done("diagram", start)

    start = time.perf_counter()
    mono = check_monodromic(dia)
    done("monodromy", start)

    if mono.outcome == MONODROMIC and det_status.holds:
        verdict, reason = INJECTIVE, None
    elif mono.outcome == MONODROMIC:
        verdict = INCONCLUSIVE
        reason = "origin is monodromic but the determinant hypothesis is unproved"
    else:
        verdict = INCONCLUSIVE
        reason = f"monodromy: {mono.outcome}" + (f" ({mono.reason})" if mono.reason else "")
    return finish(verdict, reason, det_status, dia, mono)


# -- JSON serialization --------------------------------------------------------


def _exponent_str(e: Optional[Fraction]) -> str:
    return "inf" if e is None else str(e)


def _witness_json(w: FactorWitness) -> dict:
    return {
        "lo": str(w.lo),
        "hi": str(w.hi),
        "sign": w.sign,
        "exact": None if w.exact is None else str(w.exact),
    }


def _diagram_json(dia: NewtonDiagram, mono: Optional[MonodromyVerdict]) -> dict:
    tests = dict(mono.edge_tests) if mono is not None else {}
    edges = []
    for idx, edge in enumerate(dia.edges):
        test = tests.get(idx)
        edges.append({
            "type": [edge.t[0], edge.t[1]],
            "exponent": _exponent_str(edge.exponent),
            "bounded": edge.bounded,
            "endpoints": [list(v.point) for v in edge.endpoints],
            "line_value": edge.line_value,
            "r": edge.r,
            "hamiltonian": [[i, j, c] for i, j, c in edge.h.to_term_list()],
            "mu": [[i, j, c] for i, j, c in edge.mu.to_term_list()],
            "factor_test": None if test is None else {
                "has_factor": test.has_factor,
                "witnesses": [_witness_json(w) for w in test.witnesses],
            },
        })
    return {
        "vertices": [{
            "point": list(v.point),
            "coeff": [str(v.coeff[0]), str(v.coeff[1])],
            "kind": v.kind,
            "exponent": _exponent_str(v.exponent),
        } for v in dia.vertices],
        "edges": edges,
        "betas": [{"vertex": list(pt), "beta": str(beta)}
                  for pt, beta in dia.inner_betas],
        "beta_undefined": [{"vertex": list(pt), "reason": reason}
                           for pt, reason in dia.beta_undefined],
    }


def _point_json(p: Point) -> dict:
    return {"x": str(p[0]), "y": str(p[1])}


def _det_json(det: DetStatus) -> dict:
    out: dict = {"status": det.status}
    if det.method is not None:
        out["method"] = det.method
    if det.witness is not None:
        out["witness"] = _point_json(det.witness)
    if det.segment is not None:
        out["segment"] = {"positive": _point_json(det.segment[0]),
                          "negative": _point_json(det.segment[1])}
    if det.detail is not None:
        out["detail"] = det.detail
    return out


def _certificate_json(cert: Certificate) -> dict:
    mono = None
    if cert.monodromy is not None:
        mono = {
            "outcome": cert.monodromy.outcome,
            "reason": cert.monodromy.reason,
            "conditions": [{
                "condition": r.condition,
                "passed": r.passed,
                "detail": r.detail,
                "witnesses": list(r.witnesses),
            } for r in cert.monodromy.conditions],
        }
    return {
        "schema": SCHEMA_VERSION,
        "input": {"f": cert.f.to_string(), "g": cert.g.to_string()},
        "verdict": cert.verdict,
        "reason": cert.reason,
        "det_status": _det_json(cert.det_status),
        "diagram": None if cert.diagram is None
        else _diagram_json(cert.diagram, cert.monodromy),
        "monodromy": mono,
        "timings_ms": dict(cert.timings_ms),
    }
