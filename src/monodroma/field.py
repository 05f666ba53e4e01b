"""Planar polynomial vector fields, the energy of a map, and support maps.

The central construction: for a polynomial map F = (f, g) the Hamiltonian
field of (f^2 + g^2)/2 is

    X = (P, Q) = (-f*f_y - g*g_y,  f*f_x + g*g_x).

Support points of a field are read off the shifted products y*P and x*Q, so
each lattice point (x, y) carries a vector coefficient (a, b), a from P at
(x, y-1) and b from Q at (x-1, y): vector_coefficients reads this map and
_field_from_support, its inverse, builds a field from it.  For X that map is
read straight off the energy H = (f^2 + g^2)/2: with h the integer numerators
of H, the point (i, j) holds (-j*h_ij, i*h_ij).  The Newton diagram splits
each of its edges from this map (diagram.edge_hamiltonian).

common_real_linear_factors serves the 2016 comparison (pipeline.cima_condition).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

from .polycore import BivarPoly, Monomial, Scalar, ZeroPolynomialError, _normalise, _square_numerators
from .realroots import dehomogenize, nonzero_real_roots, poly_gcd


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
    """Hamiltonian vector field (-H_y, H_x) of H = (f^2 + g^2)/2, built from
    _energy's numerators.  ExponentOverflowError when a square's exponent
    would pass MAX_EXPONENT."""
    h, den = _energy(f, g)
    return _field_from_support(_energy_support(h), den)


def _energy(f: BivarPoly, g: BivarPoly) -> tuple[dict[Monomial, int], int]:
    """(h, 2L^2): H = (f^2 + g^2)/2 as the sum h of the squared integer
    numerators of f and g over L = lcm(den f, den g), unreduced: h may hold
    zero entries where the squares cancel.  ExponentOverflowError when a
    square's exponent would pass MAX_EXPONENT, f's square checked first."""
    (nf, df), (ng, dg) = f.numerators(), g.numerators()
    den = lcm(df, dg)
    if df != dg:
        nf = {key: n * (den // df) for key, n in nf.items()}
        ng = {key: n * (den // dg) for key, n in ng.items()}
    h = _square_numerators(nf)
    for key, n in _square_numerators(ng).items():
        h[key] = h.get(key, 0) + n
    return h, 2 * den * den


def _energy_support(h: Mapping[Monomial, int]) -> dict[tuple[int, int], list[int]]:
    """The support map of X = (-H_y, H_x), over h's denominator: (-j*n, i*n)
    at each point (i, j) where h holds n, both entries 0 left out."""
    return {(i, j): [-j * n, i * n] for (i, j), n in h.items() if n and (i or j)}


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


def _field_from_support(coeffs: SupportMap, den: int) -> PlanarField:
    """The inverse of vector_coefficients: a goes to p at (x, y - 1) and b to q at
    (x - 1, y), each over den > 0; zero entries are dropped.  The exponents are
    not scanned: the caller has kept them within MAX_EXPONENT."""
    p = {(x, y - 1): a for (x, y), (a, _) in coeffs.items() if a}
    q = {(x - 1, y): b for (x, y), (_, b) in coeffs.items() if b}
    return PlanarField(_normalise(p, den), _normalise(q, den))


def support(x_field: PlanarField) -> list[SupportPoint]:
    """vector_coefficients as Fractions, sorted by lattice point; error on the zero field."""
    coeffs, den = vector_coefficients(x_field)
    return [SupportPoint(pt, (Fraction(a, den), Fraction(b, den)))
            for pt, (a, b) in sorted(coeffs.items())]


def support_points(x_field: PlanarField) -> set[tuple[int, int]]:
    """The lattice points of supp(X), without coefficients.  Error on the zero field."""
    return set(vector_coefficients(x_field)[0])


# -- common real linear factors of binary forms -------------------------------


@dataclass(frozen=True)
class CommonLinearFactor:
    """A real linear form dividing two homogeneous polynomials.

    kind "x" and "y" are the axis factors; kind "slope" is y - a*x, with the
    slope given exactly when rational and by an isolating interval otherwise.
    """

    kind: str
    slope: Optional[Fraction] = None
    slope_interval: Optional[tuple[Fraction, Fraction]] = None


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
        out.append(CommonLinearFactor("x"))
    if ay and by:
        out.append(CommonLinearFactor("y"))
    common = poly_gcd(dehomogenize(a, (1, 1)), dehomogenize(b, (1, 1)))
    for witness in nonzero_real_roots(common):
        out.append(CommonLinearFactor(
            "slope", slope=witness.exact,
            slope_interval=None if witness.exact is not None else (witness.lo, witness.hi),
        ))
    return out
