"""Planar polynomial vector fields and their quasi-homogeneous structure.

The central construction: for a polynomial map F = (f, g) the Hamiltonian
field of (f^2 + g^2)/2 is

    X = (P, Q) = (-f*f_y - g*g_y,  f*f_x + g*g_x).

Support points of a field are read off the shifted products y*P and x*Q, so
each lattice point (x, y) carries a vector coefficient (a, b), a from P at
(x, y-1) and b from Q at (x-1, y): vector_coefficients reads this map and
from_vector_coefficients, its inverse, builds a field from it.  A field that
is quasi-homogeneous of type t and degree k splits uniquely into the
Hamiltonian field of h plus mu * (t1*x, t2*y), point by point: with
w = k + t1 + t2, h gets (t1*b - t2*a)/w at x^x y^y and mu gets (x*a + y*b)/w
at x^(x-1) y^(y-1).  split_line is this formula on the points of one line
t1*x + t2*y = w of a support map; the Newton diagram splits each edge with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

from .polycore import BivarPoly, QuasiType, Scalar, ZeroPolynomialError, quasi_type
from .realroots import FactorWitness, UniPoly, dehomogenize, nonzero_real_roots, poly_gcd, sturm_count


@dataclass(frozen=True)
class PlanarField:
    """A polynomial vector field (p, q) on the plane."""

    p: BivarPoly
    q: BivarPoly

    @property
    def is_zero(self) -> bool:
        return self.p.is_zero and self.q.is_zero

    def evaluate(self, x: Scalar, y: Scalar) -> tuple[Fraction, Fraction]:
        return self.p.evaluate(x, y), self.q.evaluate(x, y)

    def degree(self) -> int:
        """max(deg p, deg q); error on the zero field."""
        if self.is_zero:
            raise ZeroPolynomialError("degree of the zero field")
        degs = [c.total_degree() for c in (self.p, self.q) if not c.is_zero]
        return max(degs)


ZERO_FIELD = PlanarField(BivarPoly.zero(), BivarPoly.zero())
# {(x, y): (a, b)} integer numerators over one denominator, as vector_coefficients returns.
SupportMap = Mapping[tuple[int, int], Sequence[int]]


def hamiltonian_field(f: BivarPoly, g: BivarPoly) -> PlanarField:
    """Hamiltonian vector field of (f^2 + g^2)/2."""
    return PlanarField(
        -(f * f.partial(1) + g * g.partial(1)),
        f * f.partial(0) + g * g.partial(0),
    )


@dataclass(frozen=True)
class SupportPoint:
    """Lattice point of supp(X) with its vector coefficient (a, b)."""

    point: tuple[int, int]
    coeff: tuple[Fraction, Fraction]


def vector_coefficients(x_field: PlanarField) -> tuple[dict[tuple[int, int], list[int]], int]:
    """{(x, y): [a, b]} on supp(X), a from p at (x, y - 1) and b from q at (x - 1, y),
    as integer numerators over one positive denominator.  Error on the zero field."""
    if x_field.is_zero:
        raise ZeroPolynomialError("support of the zero field")
    (p, p_den), (q, q_den) = x_field.p.numerators(), x_field.q.numerators()
    den = lcm(p_den, q_den)
    p_scale, q_scale = den // p_den, den // q_den
    coeffs = {(i, j + 1): [n * p_scale, 0] for (i, j), n in p.items()}
    for (i, j), n in q.items():
        coeffs.setdefault((i + 1, j), [0, 0])[1] = n * q_scale
    return coeffs, den


def from_vector_coefficients(coeffs: SupportMap, den: int) -> PlanarField:
    """The inverse of vector_coefficients: a goes to p at (x, y - 1) and b to q at
    (x - 1, y), each over den > 0; zero entries are dropped."""
    p = {(x, y - 1): a for (x, y), (a, _) in coeffs.items() if a}
    q = {(x - 1, y): b for (x, y), (_, b) in coeffs.items() if b}
    return PlanarField(BivarPoly.from_numerators(p, den), BivarPoly.from_numerators(q, den))


def support(x_field: PlanarField) -> list[SupportPoint]:
    """vector_coefficients as Fractions, sorted by lattice point; error on the zero field."""
    coeffs, den = vector_coefficients(x_field)
    return [SupportPoint(pt, (Fraction(a, den), Fraction(b, den)))
            for pt, (a, b) in sorted(coeffs.items())]


def support_points(x_field: PlanarField) -> set[tuple[int, int]]:
    """The lattice points of supp(X), without coefficients.  Error on the zero field."""
    return set(vector_coefficients(x_field)[0])


@dataclass(frozen=True)
class SplitField:
    """Conservative-dissipative splitting of a quasi-homogeneous field.

    X = X_h + mu * (t1*x, t2*y) with X_h the Hamiltonian field of h, where
    h has quasi-degree k + t1 + t2 and mu has quasi-degree k.
    """

    k: int
    t: QuasiType
    h: BivarPoly
    mu: BivarPoly

    def reconstruct(self) -> PlanarField:
        t1, t2 = self.t
        return PlanarField(
            -self.h.partial(1) + self.mu * BivarPoly.monomial(1, 0, t1),
            self.h.partial(0) + self.mu * BivarPoly.monomial(0, 1, t2),
        )


def split(x_field: PlanarField, k: int, t: QuasiType) -> SplitField:
    """Split a field that is quasi-homogeneous of type t and degree k by
    split_line on w = k + t1 + t2; the zero field splits into zeros.  Errors
    when w = 0 or when the field is not quasi-homogeneous of that type and degree."""
    t1, t2 = quasi_type(*t)
    weight = k + t1 + t2
    if weight == 0:
        raise ValueError("splitting is undefined when k + t1 + t2 = 0")
    if x_field.is_zero:
        return SplitField(k, (t1, t2), BivarPoly.zero(), BivarPoly.zero())
    coeffs, den = vector_coefficients(x_field)
    if any(t1 * x + t2 * y != weight for x, y in coeffs):
        raise ValueError(f"field is not quasi-homogeneous of type {t} and degree {k}")
    return split_line(coeffs, den, (t1, t2), weight)


def split_line(coeffs: SupportMap, den: int, t: QuasiType, w: int) -> Optional[SplitField]:
    """The per-point split of the module docstring, over den*w, of the points of a
    support map on the line t1*x + t2*y = w, all others ignored.  None when no
    point lies on the line; error when w = 0."""
    t1, t2 = t
    on_line = [(x, y, a, b) for (x, y), (a, b) in coeffs.items() if t1 * x + t2 * y == w]
    if not on_line:
        return None
    if w == 0:
        raise ValueError("splitting is undefined when k + t1 + t2 = 0")
    h = {(x, y): t1 * b - t2 * a for x, y, a, b in on_line}
    mu = {(x - 1, y - 1): x * a + y * b for x, y, a, b in on_line if x * a + y * b}
    return SplitField(w - t1 - t2, t, BivarPoly.from_numerators(h, den * w),
                      BivarPoly.from_numerators(mu, den * w))


# -- common real linear factors of binary forms -------------------------------


@dataclass(frozen=True)
class CommonLinearFactor:
    """A real linear form dividing two homogeneous polynomials.

    kind "x" and "y" are the axis factors; kind "slope" is y - a*x, with the
    slope given exactly when rational and by an isolating interval otherwise.
    """

    kind: str
    mult_a: int
    mult_b: int
    slope: Optional[Fraction] = None
    slope_interval: Optional[tuple[Fraction, Fraction]] = None


def _multiplicity(p: UniPoly, common: UniPoly, w: FactorWitness) -> int:
    """Multiplicity in p of the one distinct root of common that w isolates:
    its first nonzero derivative."""
    mult = 0
    while (p(w.exact) == 0 if w.exact is not None
           else sturm_count(poly_gcd(common, p), w.lo, w.hi) > 0):
        p, mult = p.derivative(), mult + 1
    return mult


def common_real_linear_factors(a: BivarPoly, b: BivarPoly) -> list[CommonLinearFactor]:
    """All real linear forms dividing both homogeneous polynomials; with
    a = b, all real linear factors of a.

    Errors when either input is zero or not homogeneous.  Factors are
    returned as x, then y, then slope factors ordered by slope.
    """
    for form in (a, b):
        if form.is_zero:
            raise ZeroPolynomialError("common factors of the zero polynomial")
        if len(form.homogeneous_components()) != 1:
            raise ValueError("common_real_linear_factors expects homogeneous inputs")
    out: list[CommonLinearFactor] = []
    ax, ay = a.min_exponents()
    bx, by = b.min_exponents()
    if ax and bx:
        out.append(CommonLinearFactor("x", ax, bx))
    if ay and by:
        out.append(CommonLinearFactor("y", ay, by))
    pa, pb = dehomogenize(a, (1, 1)), dehomogenize(b, (1, 1))
    common = poly_gcd(pa, pb)
    for witness in nonzero_real_roots(common):
        out.append(CommonLinearFactor(
            "slope", _multiplicity(pa, common, witness), _multiplicity(pb, common, witness),
            slope=witness.exact,
            slope_interval=None if witness.exact is not None else (witness.lo, witness.hi),
        ))
    return out
