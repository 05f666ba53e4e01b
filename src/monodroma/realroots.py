"""Exact real-root counting and isolation for univariate polynomials.

This backs the edge factor test: a quasi-homogeneous polynomial h of type
(t1, t2) with both weights positive collapses, after pulling out the monomial
content, to a binary form in (u^t2, v^t1); h has a factor v^t1 - a*u^t2 with
real a != 0 exactly when the dehomogenized form has a nonzero real root.

Every consumer reads only roots and signs, and neither changes when a
polynomial is multiplied by a positive rational, so a polynomial is kept in
one form: its primitive integer multiple (``UniPoly``).  One remainder
sequence, the primitive PRS (Collins 1967) by integer pseudo-division, is
both the Sturm chain of (p, p') and the gcd of any two polynomials; one
square-free step reads gcd(p, p') off the chain's last entry and divides
it out.

Root isolation tries four steps in turn.  Descartes' rule of signs: a
polynomial has at most as many positive roots, counted with multiplicity,
as sign changes in its nonzero coefficients, so with no sign change in p(x)
and none in p(-x) it has no nonzero real root, a proof from one sign read
per coefficient.  The quadratic exit: nor has a quadratic with a negative
discriminant, one integer comparison.  The count: one Sturm chain of p
without its root at zero, whose leading coefficients' signs at +-inf give
the number of distinct nonzero real roots; 0 ends there.  The bisection:
the chain's last entry gives the square-free part, whose roots one Sturm
bisection isolates.  Every root count is Sturm's method on these chains;
one sign-variation count serves Descartes and Sturm alike.

Every value and sign comes from one integer Horner loop on the homogenized
form at a projective point (num : den): den > 0 is the rational num/den, and
(1 : 0), (-1 : 0) stand for +inf and -inf, where the form is lc * (+-1)^n.
Witnesses are isolating rational intervals, with exact values whenever a
root is rational: by the rational root theorem every rational root of the
primitive square-free part is k/lc for an integer k, lc its leading
coefficient.  One Sturm bisection from half-grid ends, (2T + 1)/(2 lc) for
an integer T, cuts only between those fractions, so every cut point has a
variation count and every witness narrower than 1/lc holds at most one
candidate, tested exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm
from typing import Iterable, Optional, Sequence

from .polycore import BivarPoly, QuasiType, Scalar, ZeroPolynomialError, quasi_type


def _primitive(cs: Sequence[Scalar]) -> tuple[int, ...]:
    """The positive rational multiple of cs with coprime integer entries."""
    if not all(type(c) is int for c in cs):
        den = lcm(*(c.denominator for c in cs))
        cs = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*cs)
    return tuple(cs) if g == 1 else tuple(v // g for v in cs)


class UniPoly:
    """A univariate polynomial up to a positive factor, lowest degree first.

    The constructor scales its rational coefficients by a positive rational
    to coprime integers, and that primitive multiple is what is stored.  A
    UniPoly therefore stands for its roots and its sign at every point, not
    its values: polynomials that differ by a positive factor are equal, and
    ``p(x)`` is the value of the primitive multiple.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "_coeffs", _primitive(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        # __setattr__ refuses the slot-by-slot restore that copy and pickle would do.
        return UniPoly, (self._coeffs,)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        if not self._coeffs:
            raise ZeroPolynomialError("degree of the zero polynomial")
        return len(self._coeffs) - 1

    def coeff(self, k: int) -> int:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0

    def __call__(self, x: Scalar) -> Fraction:
        x = x if isinstance(x, Fraction) else Fraction(x)
        return Fraction(*_homogenized(self._coeffs, x.numerator, x.denominator))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self._coeffs)})"

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self._coeffs])
        out = [0] * (len(self._coeffs) + len(other._coeffs))
        for i, a in enumerate(self._coeffs):
            if not a:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self._coeffs)][1:])


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division over the integers: |lc(b)|^k * a = q*b + r, deg r < deg b.

    With k = deg a - deg b + 1 every step of the long division below
    divides exactly, and as |lc(b)|^k > 0, q and r are positive multiples of
    the rational quotient and remainder.  b must be nonzero.
    """
    n, lead = len(b) - 1, b[-1]
    k = len(a) - n
    r = [c * abs(lead) ** k for c in a] if k > 0 else list(a)
    q = [0] * max(k, 0)
    for s in range(k - 1, -1, -1):
        c = q[s] = r[s + n] // lead
        for i, bc in enumerate(b):
            r[s + i] -= c * bc
    del r[n:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _positive(p: UniPoly) -> UniPoly:
    return p * -1 if p.coeffs and p.coeffs[-1] < 0 else p


def _remainder_sequence(a: tuple[int, ...], b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The primitive PRS (Collins 1967) of primitive a and b: a, then b
    unless it is zero, then the primitive part of -prem of the last two,
    up to a zero remainder or a constant.

    The last entry is gcd(a, b) up to a nonzero factor.  Pseudo-division
    scales by a positive factor, so every entry has the sign of the
    rational Euclid's -(rem) and the sequence on (p, p') is a Sturm chain.
    """
    seq = [a]
    if b:
        seq.append(b)
        while len(seq[-1]) > 1 and (r := _pseudo_divmod(seq[-2], seq[-1])[1]):
            seq.append(_primitive([-c for c in r]))
    return seq


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Greatest common divisor, primitive with a positive leading coefficient;
    zero when a and b are."""
    return _positive(UniPoly(_remainder_sequence(a.coeffs, b.coeffs)[-1]))


def sturm_chain(p: UniPoly) -> list[tuple[int, ...]]:
    """Sturm chain of p, each entry the coefficients of a UniPoly: the
    remainder sequence of p and p'."""
    return _remainder_sequence(p.coeffs, p.derivative().coeffs)


def _squarefree(q: UniPoly, chain: list[tuple[int, ...]]) -> tuple[UniPoly, list[tuple[int, ...]]]:
    """The square-free part of nonzero q and its Sturm chain, from
    chain = sturm_chain(q).

    The part is primitive with a positive leading coefficient.  The chain's
    last entry is gcd(q, q') up to a nonzero factor: a constant when q is
    square-free, and then the chain is the part's too; else the exact
    pseudo-quotient of q by it is the part, with a chain of its own.
    """
    if len(chain[-1]) == 1:
        return _positive(q), chain
    ps = _positive(UniPoly(_pseudo_divmod(q.coeffs, chain[-1])[0]))
    return ps, sturm_chain(ps)


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): same roots, all simple.

    Primitive, with a positive leading coefficient.
    """
    if p.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    return _squarefree(p, sturm_chain(p))[0]


def _homogenized(coeffs: Sequence[int], num: int, den: int) -> tuple[int, int]:
    """(sum c_i num^i den^(n-i), den^n) by Horner, n = len(coeffs) - 1;
    (0, 1) for no coefficients.

    For den != 0 the ratio is the value at num/den; at (+-1 : 0) the first
    entry is lc * (+-1)^n, whose sign is the polynomial's near +-inf.  The
    loop steps over zero coefficients by their gaps, one power of num and of
    den per nonzero coefficient, so a sparse form such as lambda^N + 1
    costs a few big powers, not N products of growing integers.
    """
    it = reversed(coeffs)
    acc, scale, gap = next(it, 0), 1, 1  # gap: the distance down from the last nonzero c read
    for c in it:
        if not c:
            gap += 1
        else:
            scale *= den**gap
            acc = acc * num**gap + c * scale
            gap = 1
    return acc * num**(gap - 1), scale * den**(gap - 1)


def _variations(values: Iterable[int]) -> int:
    """Number of sign changes along values, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_at(chain: list[tuple[int, ...]], num: int, den: int) -> tuple[bool, int]:
    """Whether the projective point (num : den), den >= 0, is a root of
    chain[0], and the number of sign variations along the chain there."""
    values = [_homogenized(c, num, den)[0] for c in chain]
    return not values[0], _variations(values)


def sturm_count(p: UniPoly, lo: Optional[Fraction] = None, hi: Optional[Fraction] = None) -> int:
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
    _, chain = _squarefree(p, sturm_chain(p))
    a = (-1, 0) if lo is None else (lo.numerator, lo.denominator)
    b = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    _, va = _sturm_at(chain, *a)
    hi_root, vb = _sturm_at(chain, *b)
    # Sign variations at a root equal the limit from the right, so a root at
    # lo is already excluded while a root at hi is included; drop the latter.
    return va - vb - hi_root


def cauchy_bound(p: UniPoly) -> Fraction:
    """Strict bound B with every real root in (-B, B)."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lead = abs(p.coeffs[-1])
    top = max(abs(c) for c in p.coeffs[:-1])
    return 1 + Fraction(top, lead)


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

    def __str__(self) -> str:
        """The root as the factor test prints it: ``a = 3/2`` or ``a in (lo, hi)``."""
        return f"a = {self.exact}" if self.exact is not None else f"a in ({self.lo}, {self.hi})"


def nonzero_real_roots(p: UniPoly) -> list[FactorWitness]:
    """Isolate every real root of p other than zero.

    Returns pairwise-disjoint open rational intervals sorted left to right,
    one root each, none containing zero, with the exact value of every
    rational root.

    Descartes' rule of signs answers first: p has at most as many positive
    roots, counted with multiplicity, as sign changes in its nonzero
    coefficients, and p(-x) likewise bounds the negative roots; a root at
    zero is on neither side.  When neither shows a sign change there is no
    nonzero real root, a proof read off one sign per coefficient; a nonzero
    constant is such a p.  A quadratic c0 + c1*x + c2*x^2 with a negative
    discriminant, c1^2 < 4*c0*c2, has no real root either.

    Every other p is divided by its root at zero, lambda^k, and the Sturm
    chain of that quotient q is built once.  Sturm's theorem holds for the
    chain of q, p_0 = q, p_1 = q', ... with each next entry -(rem), whether
    or not q is square-free: between two points that are not roots, the
    drop in sign variations counts the distinct roots.  At +-inf each
    entry has the sign of its leading coefficient times (+-1)^degree, read
    by ``_sturm_at`` at the points (+-1 : 0), so V(-inf) - V(+inf) is the
    number of distinct nonzero real roots of p.  When it is 0 there is no
    root to isolate.  Otherwise ``_squarefree`` takes the square-free part
    and its chain from this one, and ``_sturm_roots`` isolates the roots.
    """
    if p.is_zero:
        raise ZeroPolynomialError("roots of the zero polynomial")
    cs = p.coeffs
    if not _variations(cs) and not _variations(-c if i % 2 else c for i, c in enumerate(cs)):
        return []
    if len(cs) == 3 and cs[1] * cs[1] < 4 * cs[0] * cs[2]:
        return []
    q = p if cs[0] else UniPoly(cs[next(i for i, c in enumerate(cs) if c):])
    chain = sturm_chain(q)
    if _sturm_at(chain, -1, 0)[1] == _sturm_at(chain, 1, 0)[1]:
        return []
    return _sturm_roots(*_squarefree(q, chain))


def _sturm_roots(ps: UniPoly, chain: list[tuple[int, ...]]) -> list[FactorWitness]:
    """Every nonzero real root of ps by one Sturm bisection.

    ps is square-free, primitive, with a positive leading coefficient lc,
    no root at zero and at least one real root; chain[0] is a nonzero
    multiple of ps, and the chain's variation drop between two points that
    are not roots counts ps's roots between them.  Every rational root is
    k/lc for an integer k, and every root lies in (-e, e) for the half-grid
    point e = (2T + 1)/(2 lc), T = ceil(cauchy_bound * lc).  Bisecting
    (-e, 0) and (0, e) cuts only at odd multiples of e/2^s, which are never
    grid points and so never roots: the variation difference V(a) - V(b)
    counts the roots of every open piece (a, b).  A piece with one root,
    neither end at zero, and narrower than 1/lc holds at most one grid
    point, k/lc with k = ceil(a * lc), and its root is that point exactly
    when the point lies in the piece and is a root.
    """
    lc = ps.coeffs[-1]
    odd = 2 * ceil(cauchy_bound(ps) * lc) + 1  # e = odd / (2 lc)

    def variations(j: int, s: int) -> int:
        """Sign variations at the cut point j * e / 2^s."""
        return _sturm_at(chain, j * odd, lc << (s + 1))[1]

    # The piece (j, j + 1) * e / 2^s, with the variations at its ends.
    at_zero = variations(0, 0)
    stack = [(0, 0, at_zero, variations(1, 0)), (-1, 0, variations(-1, 0), at_zero)]
    found = []
    while stack:
        j, s, va, vb = stack.pop()
        if va == vb:
            continue
        scale = 2 << s  # e / 2^s = odd / (lc * scale), narrower than 1/lc when odd < scale
        if va - vb == 1 and j not in (0, -1) and odd < scale:
            k = -(-j * odd // scale)  # ceil(a * lc), so k/lc > a
            exact = None
            if k * scale < (j + 1) * odd and not _homogenized(chain[0], k, lc)[0]:  # k/lc < b
                exact = Fraction(k, lc)
            found.append(FactorWitness(Fraction(j * odd, lc * scale),
                                       Fraction((j + 1) * odd, lc * scale), 1 if j > 0 else -1, exact))
            continue
        at_mid = variations(2 * j + 1, s + 1)
        stack.append((2 * j + 1, s + 1, at_mid, vb))
        stack.append((2 * j, s + 1, va, at_mid))
    return found


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


def dehomogenize(h: BivarPoly, t: QuasiType) -> UniPoly:
    """h as a polynomial g in one variable: g(a) = 0 exactly when v^t1 - a*u^t2 divides h.

    h must be nonzero and quasi-homogeneous of type t with t1, t2 >= 1.  Its
    monomial content u^a v^b is pulled out; the term u^i v^j left has
    i = a + t2*s, and its coefficient becomes that of lambda^(m - s), m the
    largest s.  For t = (1, 1) this is the substitution u = 1, v = lambda.
    """
    t1, t2 = quasi_type(*t)
    if t1 < 1 or t2 < 1:
        raise ValueError(f"factor test needs positive weights, got {(t1, t2)}")
    if h.is_zero:
        raise ZeroPolynomialError("factor test on the zero polynomial")
    num, _ = h.numerators()  # a UniPoly is defined up to a positive factor
    degrees = {t1 * i + t2 * j for i, j in num}
    if len(degrees) != 1:
        raise ValueError(f"polynomial is not quasi-homogeneous of type {t}")
    degree, = degrees
    a, b = h.min_exponents()
    m_top = (degree - t1 * a - t2 * b) // (t1 * t2)
    coeffs = [0] * (m_top + 1)
    for (i, _), c in num.items():
        coeffs[m_top - (i - a) // t2] = c
    return UniPoly(coeffs)


def quasi_factor_test(h: BivarPoly, t: QuasiType) -> FactorTest:
    """Decide whether h has a factor v^t1 - a*u^t2 with real a != 0.

    h must be nonzero and quasi-homogeneous of type t with t1, t2 >= 1.
    """
    lam = dehomogenize(h, t)
    witnesses = tuple(nonzero_real_roots(lam))
    return FactorTest(bool(witnesses), witnesses, lam)
