"""Exact real-root counting and isolation for univariate rational polynomials.

This backs the edge factor test: a quasi-homogeneous polynomial h of type
(t1, t2) with both weights positive collapses, after pulling out the monomial
content, to a binary form in (u^t2, v^t1); h has a factor v^t1 - a*u^t2 with
real a != 0 exactly when the dehomogenized form has a nonzero real root.
Root counting is Sturm's method on integer chains with primitive-part
normalization, signs taken by integer Horner on the homogenized form.
Witnesses are isolating rational intervals, with exact values whenever a root
is rational: by the rational root theorem every rational root of the
primitive square-free part is k/lc for an integer k, lc its leading
coefficient, so bisecting the grid of those fractions with Sturm counts finds
them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd
from typing import Iterable, Optional, Sequence, Union

from .polycore import BivarPoly, QuasiType, Scalar, ZeroPolynomialError, quasi_type


class UniPoly:
    """Dense univariate polynomial over the rationals, lowest degree first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "UniPoly":
        return cls([c])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        if not self._coeffs:
            raise ZeroPolynomialError("degree of the zero polynomial")
        return len(self._coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else Fraction(0)

    def __call__(self, x: Scalar) -> Fraction:
        x = x if isinstance(x, Fraction) else Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self._coeffs]})"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self._coeffs), len(other._coeffs))
        return UniPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self._coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self._coeffs])
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs))
        for i, a in enumerate(self._coeffs):
            if not a:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self._coeffs)][1:])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self._coeffs)
        dn, dd = len(rem) - 1, other.degree
        lead = other._coeffs[-1]
        quo = [Fraction(0)] * max(dn - dd + 1, 0)
        for k in range(dn - dd, -1, -1):
            c = rem[dd + k] / lead
            if c:
                quo[k] = c
                for i, b in enumerate(other._coeffs):
                    rem[i + k] -= c * b
        return UniPoly(quo), UniPoly(rem)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * (1 / self._coeffs[-1])


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the rationals."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'); same roots, all simple."""
    if p.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    if p.degree == 0:
        return p.monic()
    return p.exact_div(poly_gcd(p, p.derivative())).monic()


# -- integer Sturm chains ----------------------------------------------------


def _int_primitive(p: UniPoly) -> list[int]:
    """Scale to integer coefficients and divide out the content; keeps sign."""
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints] if g else ints


def _ideg(a: Sequence[int]) -> int:
    return len(a) - 1


def _prem_negated(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of -(a mod b), the Sturm chain successor step.

    Works over the integers: each reduction multiplies the remainder by the
    leading coefficient of b, and the accumulated sign is corrected at the
    end so the result is a positive multiple of -(a mod b).
    """
    lead = b[-1]
    r = list(a)
    steps = 0
    while r and _ideg(r) >= _ideg(b):
        shift = _ideg(r) - _ideg(b)
        top = r[-1]
        r = [lead * c for c in r]
        for i, bc in enumerate(b):
            r[i + shift] -= top * bc
        while r and r[-1] == 0:
            r.pop()
        steps += 1
    if lead < 0 and steps % 2 == 1:
        r = [-c for c in r]
    r = [-c for c in r]
    g = 0
    for v in r:
        g = gcd(g, v)
    return [v // g for v in r] if g else r


def sturm_chain(p: UniPoly) -> list[list[int]]:
    """Sturm chain of p as primitive integer polynomials."""
    p0 = _int_primitive(p)
    chain = [p0]
    if _ideg(p0) >= 1:
        d = [k * c for k, c in enumerate(p0)][1:]
        g = 0
        for v in d:
            g = gcd(g, v)
        chain.append([v // g for v in d] if g else d)
        while _ideg(chain[-1]) >= 1:
            nxt = _prem_negated(chain[-2], chain[-1])
            if not nxt:
                break
            chain.append(nxt)
    return chain


def _sign_at(coeffs: Sequence[int], num: int, den: int) -> int:
    """Sign of the integer polynomial at num/den, den > 0.

    Horner on the homogenized form sum c_i num^i den^(n-i), which is the
    value times den^n and stays in integers.
    """
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _sign_at_inf(coeffs: Sequence[int], positive: bool) -> int:
    if not coeffs:
        return 0
    s = (coeffs[-1] > 0) - (coeffs[-1] < 0)
    if not positive and _ideg(coeffs) % 2 == 1:
        s = -s
    return s


def _variations(signs: Iterable[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


Endpoint = Union[Fraction, None]


def _signs(chain: list[list[int]], x: Fraction) -> list[int]:
    num, den = x.numerator, x.denominator
    return [_sign_at(c, num, den) for c in chain]


def _chain_variations(chain: list[list[int]], x: Endpoint, positive_inf: bool = True) -> int:
    if x is None:
        return _variations(_sign_at_inf(c, positive_inf) for c in chain)
    return _variations(_signs(chain, x))


def sturm_count(p: UniPoly, lo: Endpoint = None, hi: Endpoint = None) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    None stands for the corresponding infinity.  Multiplicities never count:
    the square-free part is taken first.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root count of the zero polynomial")
    if p.degree == 0:
        return 0
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError("empty interval")
    ps = squarefree_part(p)
    if ps.degree == 0:
        return 0
    chain = sturm_chain(ps)
    va = _chain_variations(chain, lo, positive_inf=False)
    vb = _chain_variations(chain, hi, positive_inf=True)
    count = va - vb
    # Sign variations at a root equal the limit from the right, so a root at
    # lo is already excluded while a root at hi is included; drop the latter.
    if hi is not None and ps(hi) == 0:
        count -= 1
    return count


def cauchy_bound(p: UniPoly) -> Fraction:
    """Strict bound B with every real root in (-B, B)."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lead = abs(p.coeffs[-1])
    top = max(abs(c) for c in p.coeffs[:-1])
    return 1 + top / lead


# -- root isolation ----------------------------------------------------------


@dataclass(frozen=True)
class FactorWitness:
    """One isolated real root: an open rational interval avoiding zero.

    ``exact`` carries the root itself when it is rational.
    """

    lo: Fraction
    hi: Fraction
    sign: int
    exact: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("witness interval is empty")
        if self.lo <= 0 <= self.hi:
            raise ValueError("witness interval must exclude zero")
        if self.exact is not None and not self.lo < self.exact < self.hi:
            raise ValueError("exact root outside its interval")


def _grid_roots(chain: list[list[int]], bound: Fraction) -> list[Fraction]:
    """Every rational root of the square-free chain[0] in (-bound, bound), ascending.

    By the rational root theorem each one is k/lc for an integer k, lc the
    leading coefficient of the primitive chain[0].  Bisect the grid range
    (-top/lc, top/lc], top = ceil(bound * lc), at grid points, where the
    variation difference V(a) - V(b) counts the roots in (a, b], and drop
    every piece it finds empty.  A piece one grid step wide, (k-1, k]/lc,
    can hold a rational root only at its right end k/lc.
    """
    lc = abs(chain[0][-1])

    def variations(k: int) -> int:
        return _variations([_sign_at(c, k, lc) for c in chain])

    top = ceil(bound * lc)
    roots = []
    stack = [(-top, top, variations(-top), variations(top))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            if _sign_at(chain[0], b, lc) == 0:
                roots.append(Fraction(b, lc))
            continue
        m = (a + b) // 2
        vm = variations(m)
        stack.append((m, b, vm, vb))
        stack.append((a, m, va, vm))
    return roots


def _count_open(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of the square-free chain[0] in (lo, hi); hi is not a root."""
    return _variations(_signs(chain, lo)) - _variations(_signs(chain, hi))


def _shrink_around(chain: list[list[int]], root: Fraction, radius: Fraction) -> tuple[Fraction, Fraction]:
    """Interval around a known exact root containing no other root of chain[0]."""
    w = radius
    while True:
        lo_signs, hi_signs = _signs(chain, root - w), _signs(chain, root + w)
        if lo_signs[0] and hi_signs[0] and _variations(lo_signs) - _variations(hi_signs) == 1:
            return root - w, root + w
        w /= 2


def _isolate_segment(chain: list[list[int]], lo: Fraction, hi: Fraction,
                     out: list[tuple[Fraction, Fraction, Optional[Fraction]]]) -> None:
    """Isolate the roots of chain[0] inside (lo, hi), none of them rational.

    With no rational root inside, no bisection point is a root.
    """
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = _count_open(chain, a, b)
        if n == 0:
            continue
        if n == 1:
            out.append((a, b, None))
            continue
        mid = (a + b) / 2
        stack.append((a, mid))
        stack.append((mid, b))


def _off_zero(chain: list[list[int]], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an interval isolating an irrational root so zero is not an endpoint."""
    while lo == 0 or hi == 0:
        mid = (lo + hi) / 2
        if _count_open(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def nonzero_real_roots(p: UniPoly) -> list[FactorWitness]:
    """Isolate every real root of p other than zero.

    Returns pairwise-disjoint open rational intervals sorted left to right,
    one root each, none containing zero.  Rational roots come with their
    exact value, found first by a Sturm bisection of the grid k/lc (lc the
    leading coefficient of the primitive square-free part); the irrational
    roots are then isolated by bisection in the gaps between them.
    """
    if p.is_zero:
        raise ZeroPolynomialError("roots of the zero polynomial")
    if p.degree == 0:
        return []
    ps = squarefree_part(p)
    k = next(i for i, c in enumerate(ps.coeffs) if c)
    if k:
        ps = UniPoly(ps.coeffs[k:])
    if ps.degree == 0:
        return []
    chain = sturm_chain(ps)
    bound = cauchy_bound(ps)

    found: list[tuple[Fraction, Fraction, Optional[Fraction]]] = []
    rationals = _grid_roots(chain, bound)
    for idx, root in enumerate(rationals):
        radius = abs(root) / 2
        if idx > 0:
            radius = min(radius, (root - rationals[idx - 1]) / 4)
        if idx + 1 < len(rationals):
            radius = min(radius, (rationals[idx + 1] - root) / 4)
        lo, hi = _shrink_around(chain, root, radius)
        found.append((lo, hi, root))

    # Gaps between the exact-root intervals, split at zero: every root left
    # in them is irrational.
    cuts = [-bound]
    for lo, hi, _ in sorted(found):
        cuts.extend((lo, hi))
    cuts.append(bound)
    for a, b in zip(cuts[::2], cuts[1::2]):
        for seg_lo, seg_hi in ((a, min(b, Fraction(0))), (max(a, Fraction(0)), b)):
            if seg_lo < seg_hi:
                _isolate_segment(chain, seg_lo, seg_hi, found)

    found.sort()
    out = []
    for lo, hi, exact in found:
        if lo == 0 or hi == 0:
            lo, hi = _off_zero(chain, lo, hi)
        out.append(FactorWitness(lo, hi, 1 if lo > 0 else -1, exact))
    return out


# -- the quasi-homogeneous factor test ---------------------------------------


@dataclass(frozen=True)
class FactorTest:
    """Outcome of the edge factor test.

    ``lambda_poly`` is the dehomogenized form g with g(a) = 0 exactly when
    v^t1 - a*u^t2 divides the tested polynomial.
    """

    has_factor: bool
    witnesses: tuple[FactorWitness, ...]
    lambda_poly: UniPoly


def quasi_factor_test(h: BivarPoly, t: QuasiType) -> FactorTest:
    """Decide whether h has a factor v^t1 - a*u^t2 with real a != 0.

    h must be nonzero and quasi-homogeneous of type t with t1, t2 >= 1.
    """
    t1, t2 = quasi_type(*t)
    if t1 < 1 or t2 < 1:
        raise ValueError(f"factor test needs positive weights, got {(t1, t2)}")
    if h.is_zero:
        raise ZeroPolynomialError("factor test on the zero polynomial")
    degree = h.quasi_degree(t)
    a, b = h.min_exponents()
    span = degree - t1 * a - t2 * b
    if span % (t1 * t2) != 0:
        raise ValueError(f"support of h is not of type {(t1, t2)}")
    m_top = span // (t1 * t2)
    coeffs = [Fraction(0)] * (m_top + 1)
    for (i, j), c in h.terms():
        step, rem = divmod(i - a, t2)
        if rem:
            raise ValueError(f"support of h is not of type {(t1, t2)}")
        coeffs[m_top - step] = c
    lam = UniPoly(coeffs)
    witnesses = tuple(nonzero_real_roots(lam))
    return FactorTest(bool(witnesses), witnesses, lam)
