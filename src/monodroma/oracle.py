"""Numeric cross-checks, kept strictly out of the exact pipeline: ``certify``
never imports this module, only ``check --with-oracle`` and the tests do.

Everything here exists to double-check the exact modules from a different
direction: a definition-chasing Newton diagram, a sign-change real-root
count, trajectory winding by integration, a random collision search, and
the bihomogeneous pieces of the compactification, built exactly but the
slow way, by powers of u^2 + v^2 from repeated squaring, and the
quasi-homogeneous components of a field.  Two exact helpers that no verdict
needs live here too: root-witness refinement by a Sturm count, and the
sector reading of an inner vertex's beta.  Floating point is allowed in
this module only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from .polycore import BivarPoly, QuasiType, quasi_type
from .diagram import NewtonDiagram, inner_beta
from .field import PlanarField, ZERO_FIELD
from .realroots import FactorWitness, UniPoly, sturm_count

ORACLE_SEED = 20260814

# Work bound of one ``winding`` call, in right-hand-side evaluations times
# terms of the field; the README map from r = 0.05 uses 154,048 (4,814 x 32).
WINDING_TERM_BUDGET = 2_000_000
# A ``winding`` trajectory escapes past this radius and stops after this arc
# length; RK45 runs at these relative and absolute tolerances.
WINDING_SAFETY_RADIUS, WINDING_MAX_ARC_LENGTH = 100.0, 200.0
WINDING_RTOL, WINDING_ATOL = 1e-10, 1e-12
# Bisection width at which ``numeric_root_count`` stops locating a root.
ROOT_COUNT_TOL = 1e-9


def brute_force_diagram(points: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Newton diagram vertices straight from the definition, O(n^3).

    A point is a vertex exactly when some direction with strictly positive
    coordinates exposes it as the unique minimizer over the support.  It is
    enough to test the normals of all support pairs plus two steep
    axis-like normals (M, 1) and (1, M) with M larger than any coordinate.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("empty support")
    m = max(max(x, y) for x, y in pts) + 1
    normals = {(m, 1), (1, m), (1, 1)}
    for idx, (x1, y1) in enumerate(pts):
        for x2, y2 in pts[idx + 1:]:
            for w in ((y1 - y2, x2 - x1), (y2 - y1, x1 - x2)):
                if w[0] > 0 and w[1] > 0:
                    normals.add(w)
    vertices = set()
    for w1, w2 in normals:
        values = [w1 * x + w2 * y for x, y in pts]
        best = min(values)
        if values.count(best) == 1:
            vertices.add(pts[values.index(best)])
    return sorted(vertices)


# -- bihomogeneous pieces of the compactification ------------------------------


def _pair_piece(fi: BivarPoly, fj: BivarPoly, gi: BivarPoly, gj: BivarPoly,
                power: int, circle: BivarPoly) -> PlanarField:
    """Compactified contribution of one pair of homogeneous map components."""
    s = fi * fj + gi * gj
    if s.is_zero:
        return ZERO_FIELD
    u = BivarPoly.monomial(1, 0)
    v = BivarPoly.monomial(0, 1)
    uu_vv = u * u - v * v
    two_uv = u * v * 2
    pre = circle ** power
    return PlanarField(
        pre * (uu_vv * s.partial(1) - two_uv * s.partial(0)),
        pre * (uu_vv * s.partial(0) + two_uv * s.partial(1)),
    )


def map_degree(f: BivarPoly, g: BivarPoly) -> int:
    """max(deg f, deg g) over the nonzero components; error if both zero."""
    return PlanarField(f, g).degree()


def pair_component(f: BivarPoly, g: BivarPoly, i: int, j: int) -> PlanarField:
    """Compactified piece coming from degrees (i, j) of the map.

    Summing 1/2 * piece(i, i) over i plus piece(i, j) over i < j rebuilds
    b(X) for the Hamiltonian field of ((f^2 + g^2)/2); the diagonal sum
    alone is the diagonal part.
    """
    d = map_degree(f, g)
    parts_f = dict(f.homogeneous_components())
    parts_g = dict(g.homogeneous_components())
    u = BivarPoly.monomial(1, 0)
    v = BivarPoly.monomial(0, 1)
    circle = u * u + v * v
    zero = BivarPoly.zero()
    return _pair_piece(
        parts_f.get(i, zero), parts_f.get(j, zero),
        parts_g.get(i, zero), parts_g.get(j, zero),
        2 * d - i - j, circle,
    )


def diagonal_part(f: BivarPoly, g: BivarPoly) -> PlanarField:
    """Diagonal part of b(X): 1/2 of the sum of the pure-degree pieces.

    It shares its Newton diagram vertices with the full compactified field,
    which makes it a cheap structural cross-check.
    """
    d = map_degree(f, g)
    acc_p, acc_q = BivarPoly.zero(), BivarPoly.zero()
    for i in range(1, d + 1):
        piece = pair_component(f, g, i, i)
        acc_p = acc_p + piece.p
        acc_q = acc_q + piece.q
    return PlanarField(acc_p * Fraction(1, 2), acc_q * Fraction(1, 2))


def quasi_field_components(x_field: PlanarField, t: QuasiType) -> list[tuple[int, PlanarField]]:
    """Quasi-homogeneous field components, ascending degree.

    The component of degree k pairs the p-part of quasi-degree k + t1 with
    the q-part of quasi-degree k + t2; k may be negative (constant terms).
    """
    t1, t2 = quasi_type(*t)
    buckets: dict[int, list[BivarPoly]] = {}
    for deg, part in x_field.p.quasi_components((t1, t2)):
        buckets.setdefault(deg - t1, [BivarPoly.zero(), BivarPoly.zero()])[0] = part
    for deg, part in x_field.q.quasi_components((t1, t2)):
        buckets.setdefault(deg - t2, [BivarPoly.zero(), BivarPoly.zero()])[1] = part
    return [(k, PlanarField(*buckets[k])) for k in sorted(buckets)]


# -- numeric real-root count ---------------------------------------------------


def _bisect_root(coeffs: np.ndarray, a: float, b: float) -> float:
    fa = np.polyval(coeffs, a)
    while b - a > ROOT_COUNT_TOL:
        mid = (a + b) / 2
        fm = np.polyval(coeffs, mid)
        if fm == 0.0:
            return mid
        if (fa > 0) != (fm > 0):
            b = mid
        else:
            a, fa = mid, fm
    return (a + b) / 2


def _sign_change_roots(coeffs: np.ndarray, bound: float) -> list[float]:
    degree = len(coeffs) - 1
    if degree <= 0:
        return []
    if degree == 1:
        root = -coeffs[1] / coeffs[0]
        return [root] if -bound < root < bound else []
    critical = _sign_change_roots(np.polyder(coeffs), bound)
    cuts = [-bound] + [c for c in critical if -bound < c < bound] + [bound]
    roots: list[float] = []
    for a, b in zip(cuts, cuts[1:]):
        fa, fb = np.polyval(coeffs, a), np.polyval(coeffs, b)
        if fa == 0.0:
            fa = np.polyval(coeffs, a + (b - a) * 1e-12)
        if fb == 0.0:
            roots.append(b)
            continue
        if (fa > 0) != (fb > 0):
            roots.append(_bisect_root(coeffs, a, b))
    return roots


def numeric_root_count(p: UniPoly) -> int:
    """Distinct real roots of a square-free polynomial by sign changes.

    The real line is partitioned at the extrema of p (found recursively on
    the derivative); p is monotone between consecutive extrema, so each
    sign change there is exactly one root, located by bisection to
    ROOT_COUNT_TOL.
    """
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    if p.degree == 0:
        return 0
    coeffs = np.array([float(c) for c in reversed(p.coeffs)])
    bound = 1.0 + float(max(abs(c) for c in p.coeffs[:-1]) / abs(p.coeffs[-1]))
    return len(_sign_change_roots(coeffs, bound + 1.0))


def refine_witness(p: UniPoly, w: FactorWitness) -> FactorWitness:
    """Halve a root witness of p once; it keeps isolating its root.

    A midpoint that is a root becomes the exact value; an interval with an
    exact value shrinks to at most half around it, inside the old one.
    """
    lo, hi, exact = w.lo, w.hi, w.exact
    mid = (lo + hi) / 2
    if exact is None and p(mid) == 0:
        exact = mid
    if exact is not None:
        quarter = (hi - lo) / 4
        lo, hi = max(lo, exact - quarter), min(hi, exact + quarter)
    elif sturm_count(p, lo, mid) == 1:
        hi = mid
    else:
        lo = mid
    return FactorWitness(lo, hi, w.sign, exact)


def sector_classification(diagram: NewtonDiagram, point: tuple[int, int]) -> str:
    """Classify the wedge at an inner vertex from the sign of beta.

    Only the sector cut out by the two adjacent edge Hamiltonians at this
    vertex is classified: "parabolic" when beta < 0, "non-parabolic" when
    beta > 0.  Errors where beta is undefined.
    """
    return "parabolic" if inner_beta(diagram, point) < 0 else "non-parabolic"


# -- winding of a trajectory ---------------------------------------------------


def _compile(poly: BivarPoly) -> Callable[[float, float], float]:
    terms = [(i, j, float(c)) for (i, j), c in poly.terms()]

    def evaluate(x: float, y: float) -> float:
        return sum(c * x**i * y**j for i, j, c in terms)

    return evaluate


@dataclass(frozen=True)
class WindingResult:
    """Accumulated polar angle along one trajectory.

    status: "returned" (first return to the start ray, |angle| = 2*pi),
    "escaped" (left the safety radius), "exhausted" (arc-length budget or
    WINDING_TERM_BUDGET hit), or "failed" (integrator gave up).
    """

    angle: float
    status: str
    arc_length: float


def winding(field: PlanarField, start: tuple[float, float]) -> WindingResult:
    """Integrate the unit-speed field from ``start`` and track the angle.

    The field is reparametrized by arc length, which keeps the integration
    honest where polynomial growth would stall or blow up the raw field.
    RK45 runs at WINDING_RTOL and WINDING_ATOL.  Terminates at the first
    return to the start ray (accumulated angle reaching 2*pi in absolute
    value), at WINDING_SAFETY_RADIUS, at WINDING_MAX_ARC_LENGTH, or after
    the first step that takes the term evaluations past WINDING_TERM_BUDGET.
    """
    p_eval, q_eval = _compile(field.p), _compile(field.q)
    terms = len(field.p) + len(field.q)
    calls, stop_at = 0, np.inf

    def rhs(_s: float, state: np.ndarray) -> list[float]:
        nonlocal calls
        calls += 1
        x, y, _theta = state
        vx, vy = p_eval(x, y), q_eval(x, y)
        norm = float(np.hypot(vx, vy))
        if norm < 1e-300:
            return [0.0, 0.0, 0.0]
        dx, dy = vx / norm, vy / norm
        rr = x * x + y * y
        return [dx, dy, (x * dy - y * dx) / rr]

    def full_turn(_s: float, state: np.ndarray) -> float:
        return abs(state[2]) - 2.0 * np.pi

    def escape(_s: float, state: np.ndarray) -> float:
        return float(np.hypot(state[0], state[1])) - WINDING_SAFETY_RADIUS

    def budget(s: float, _state: np.ndarray) -> float:
        # -inf until a step spends the budget, then 0 at that step's end.
        nonlocal stop_at
        if stop_at == np.inf and calls * terms > WINDING_TERM_BUDGET:
            stop_at = s
        return s - stop_at

    for event in (full_turn, escape, budget):
        event.terminal = True

    sol = solve_ivp(
        rhs, (0.0, WINDING_MAX_ARC_LENGTH), [start[0], start[1], 0.0],
        method="RK45", rtol=WINDING_RTOL, atol=WINDING_ATOL,
        events=[full_turn, escape, budget],
    )
    for idx, status in enumerate(("returned", "escaped", "exhausted")):
        if sol.t_events[idx].size:
            return WindingResult(float(sol.y_events[idx][0][2]), status,
                                 float(sol.t_events[idx][0]))
    status = "exhausted" if sol.status == 0 else "failed"
    return WindingResult(float(sol.y[2, -1]), status, float(sol.t[-1]))


# -- collision search ----------------------------------------------------------


def collision_search(f: BivarPoly, g: BivarPoly, *, trials: int = 60,
                     seed: Optional[int] = None) -> Optional[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]:
    """Search for distinct rational points with F(p) = F(q), exactly.

    Random starts plus local minimization of |F(p) - F(q)|^2 / |p - q|^2;
    a numeric near-collision only counts once both points round to
    rationals on which the equality holds exactly, so there are no false
    positives.  Returns None when nothing is found.
    """
    rng = np.random.default_rng(ORACLE_SEED if seed is None else seed)
    f_eval, g_eval = _compile(f), _compile(g)

    def objective(z: np.ndarray) -> float:
        px, py, qx, qy = z
        df = f_eval(px, py) - f_eval(qx, qy)
        dg = g_eval(px, py) - g_eval(qx, qy)
        sep = (px - qx) ** 2 + (py - qy) ** 2
        return (df * df + dg * dg) / (1e-9 + sep)

    for _ in range(trials):
        z0 = rng.uniform(-3.0, 3.0, 4)
        res = minimize(objective, z0, method="Nelder-Mead",
                       options={"xatol": 1e-13, "fatol": 1e-26, "maxiter": 5000})
        px, py, qx, qy = res.x
        if (px - qx) ** 2 + (py - qy) ** 2 < 1e-2 or res.fun > 1e-18:
            continue
        for denominator in (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024):
            p = (Fraction(px).limit_denominator(denominator),
                 Fraction(py).limit_denominator(denominator))
            q = (Fraction(qx).limit_denominator(denominator),
                 Fraction(qy).limit_denominator(denominator))
            if p == q:
                continue
            if (f.evaluate(*p) == f.evaluate(*q) and g.evaluate(*p) == g.evaluate(*q)):
                return p, q
    return None
