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
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterable, Mapping, Optional

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


# The grid's coordinates, doubled: x = kx/2 and y = ky/2 for kx, ky in here.
_HALVES = range(-10, 11)
# The pseudo-random points are evaluated this many at a time.
_BLOCK = 20


def _sample_points() -> tuple[Point, ...]:
    """The half-integer grid over [-5, 5]^2, then 100 fixed pseudo-random points."""
    rng = random.Random(20260814)
    points = [(Fraction(kx, 2), Fraction(ky, 2)) for kx in _HALVES for ky in _HALVES]
    for _ in range(100):
        x = Fraction(rng.randint(-1000, 1000), rng.randint(1, 100))
        points.append((x, Fraction(rng.randint(-1000, 1000), rng.randint(1, 100))))
    return tuple(points)


_SAMPLE_POINTS = _sample_points()

# Powers of the sample coordinates at or below this exponent are kept once
# formed; higher ones are formed on every use.  Filled to the cap, the 20
# vectors of the blocks hold about 0.3 MB.
_POWER_CAP = 16


class _Powers(dict):
    """The powers of one coordinate vector, by exponent: ``self[e]`` yields
    base[n]**e for every n.  For e <= _POWER_CAP that is a tuple, kept once
    formed: the ones at e = 0 with the vector, any other on first use.
    Above the cap it is a fresh one-pass iterator, so no vector of big
    powers is ever held whole."""

    __slots__ = ("base",)

    def __init__(self, base: tuple[int, ...]):
        super().__init__({0: (1,) * len(base)})
        self.base = base

    def __missing__(self, e: int) -> Iterable[int]:
        if e > _POWER_CAP:
            return map(pow, self.base, repeat(e))
        powers = self[e] = tuple(map(pow, self.base, repeat(e)))
        return powers


# The sample in evaluation order.  First the 21 grid columns (kx, points),
# point n of a column at y = ky/2 for ky = _HALVES[n]; then the pseudo-random
# points in blocks (points, a, b, c, d), point n at (a[n]/b[n], c[n]/d[n]),
# each of a, b, c, d the _Powers of that integer vector.
_GRID_COLUMNS = tuple((kx, _SAMPLE_POINTS[n * len(_HALVES):(n + 1) * len(_HALVES)])
                      for n, kx in enumerate(_HALVES))
_BLOCKS = tuple(
    (block, *map(_Powers, zip(*((x.numerator, x.denominator, y.numerator, y.denominator)
                                for x, y in block))))
    for block in (_SAMPLE_POINTS[n:n + _BLOCK]
                  for n in range(len(_HALVES) ** 2, len(_SAMPLE_POINTS), _BLOCK)))


def _block_values(rows: Mapping[int, list[tuple[int, int]]], x_exps: set[int], dx: int, dy: int,
                  a: _Powers, b: _Powers, c: _Powers, d: _Powers) -> list[int]:
    """b^dx d^dy den det(a/b, c/d), which has det's sign, at every point of a
    block: the sum over (i, j) of n_ij a^i b^(dx - i) c^j d^(dy - j), with
    ``rows`` the terms (i, n_ij) of det's numerators by y exponent j."""
    xs = {i: list(map(mul, a[i], b[dx - i])) for i in x_exps}
    values = repeat(0)
    for j, terms in rows.items():
        row = repeat(0)
        for i, n in terms:
            row = list(map(add, row, map(mul, xs[i], repeat(n))))
        ys = map(mul, c[j], d[dy - j])
        values = list(map(add, values, map(mul, row, ys)))
    return values


def _zero_found(point: Point) -> DetStatus:
    return DetStatus(VANISHES, witness=point, detail="exact zero found by sampling")


def _sign_change(positive: Point, negative: Point) -> DetStatus:
    return DetStatus(VANISHES, segment=(positive, negative),
                     detail="sign change between two sample points")


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

    Only signs are read, in integers, lazily.  The grid is read at the
    integer points (kx, ky) of the doubled grid: det's numerators are scaled
    once per call, n_ij by 2^(dx - i + dy - j), so a column x = kx/2
    collapses to one integer per distinct y exponent, O(terms), and each of
    its points costs one Horner pass in ky down to y^0, O(distinct y
    exponents), stepping by the gaps between them.  That value is exactly
    2^(dx + dy) den det(kx/2, ky/2), so a zero and the signs are read off
    it.  The pseudo-random points go in blocks of 20, all the points of a
    block at once: a vector of integer values per x exponent and per y row,
    formed by C-level ``map``.  The powers of the fixed sample coordinates
    these vectors are built from are kept across calls, one tuple per
    coordinate vector and exponent, formed on first use; only exponents up
    to ``_POWER_CAP`` are kept, so a det such as x^40000 - 2x^20000 + 2
    forms its high powers afresh on every call and keeps none of them past
    it.  A block of one sign is settled by its minimum and maximum; only a
    mixed block is scanned point by point.
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
    dx, dy = max(x_exps), max(rows)
    # The terms (i, n_ij 2^(dx - i + dy - j)) by y exponent j, high to low.
    grid = {j: [(i, n << (dx - i + dy - j)) for i, n in rows[j]] for j in sorted(rows, reverse=True)}
    positive: Optional[Point] = None
    negative: Optional[Point] = None
    for kx, column in _GRID_COLUMNS:
        # 2^(dx + dy) den det(kx/2, ky/2), of det's sign as den > 0, is the
        # sum over j of C_j ky^j: Horner over the kept j, then down to j = 0.
        xs = {i: kx**i for i in x_exps}
        steps, prev = [], dy
        for j, terms in grid.items():
            if cj := sum(n * xs[i] for i, n in terms):
                steps.append((prev - j, cj))
                prev = j
        if prev:
            steps.append((prev, 0))
        for point, ky in zip(column, _HALVES):
            acc = 0
            for gap, cj in steps:
                acc = acc * ky**gap + cj
            if acc == 0:
                return _zero_found(point)
            if acc > 0:
                positive = positive or point
            else:
                negative = negative or point
            if positive and negative:
                return _sign_change(positive, negative)
    for block, a, b, c, d in _BLOCKS:
        values = _block_values(rows, x_exps, dx, dy, a, b, c, d)
        if min(values) > 0 or max(values) < 0:
            block, values = block[:1], values[:1]  # one sign: its first point is all a scan reads
        for point, value in zip(block, values):
            if value == 0:
                return _zero_found(point)
            if value > 0:
                positive = positive or point
            else:
                negative = negative or point
            if positive and negative:
                return _sign_change(positive, negative)
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
    and nothing else.  Equality and the hash leave ``timings_ms`` out, so two
    runs on one map compare equal.  ``compactified``, the full b(X) for
    auditors and numeric cross-checks, is rebuilt from f and g on every
    access, outside the timed stages, when there is a diagram; otherwise it
    is None."""

    f: BivarPoly
    g: BivarPoly
    verdict: str
    reason: Optional[str]
    det_status: DetStatus
    diagram: Optional[NewtonDiagram]
    monodromy: Optional[MonodromyVerdict]
    timings_ms: dict[str, float] = dataclass_field(compare=False)

    @property
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
