"""Sturm counting, root isolation, and the quasi-homogeneous factor test."""

import random
from fractions import Fraction
from math import ceil, gcd, isqrt
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from monodroma import BivarPoly, ZeroPolynomialError, quasi_factor_test, realroots
from monodroma.realroots import (
    FactorWitness,
    UniPoly,
    cauchy_bound,
    dehomogenize,
    nonzero_real_roots,
    poly_gcd,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from monodroma.oracle import numeric_root_count, refine_witness

U = BivarPoly.monomial(1, 0)
V = BivarPoly.monomial(0, 1)


def lam(*coeffs):
    """UniPoly from low-order-first coefficients."""
    return UniPoly(list(coeffs))


def from_roots(roots):
    p = lam(1)
    for r in roots:
        p = p * lam(-Fraction(r), 1)
    return p


def test_sturm_count_examples():
    assert sturm_count(lam(-2, 0, 1)) == 2          # lambda^2 - 2
    assert sturm_count(lam(1, 0, 1)) == 0           # lambda^2 + 1
    assert sturm_count(from_roots([1, 1, 1, -2])) == 2
    assert sturm_count(from_roots(range(1, 11))) == 10
    assert sturm_count(lam(0, 1)) == 1
    assert sturm_count(lam(5)) == 0


def test_sturm_count_open_interval_semantics():
    p = from_roots([1, 2, 3])
    assert sturm_count(p, Fraction(0), Fraction(5, 2)) == 2
    assert sturm_count(p, Fraction(1), Fraction(3)) == 1   # endpoints excluded
    assert sturm_count(p, Fraction(3), Fraction(10)) == 0
    assert sturm_count(p, None, Fraction(0)) == 0
    assert sturm_count(p, Fraction(0), None) == 3


def test_sturm_count_zero_poly_rejected():
    with pytest.raises(ValueError):
        sturm_count(lam())


def test_cauchy_bound_encloses_all_roots():
    rng = random.Random(301)
    for _ in range(100):
        deg = rng.randint(1, 8)
        p = lam(*[rng.randint(-50, 50) for _ in range(deg)], rng.randint(1, 50))
        bound = cauchy_bound(p)
        assert sturm_count(p, -bound, bound) == sturm_count(p)


def test_squarefree_part_and_gcd():
    p = from_roots([1, 1, 2])
    sf = squarefree_part(p)
    assert sturm_count(sf) == 2
    assert poly_gcd(sf, sf.derivative()).degree == 0
    assert sturm_count(p) == 2  # counting is multiplicity-blind


def test_nonzero_real_roots_rational_exact():
    # (2*lambda - 1)(lambda + 3)(lambda^2 + 1)
    p = lam(-1, 2) * lam(3, 1) * lam(1, 0, 1)
    roots = nonzero_real_roots(p)
    assert sorted(w.exact for w in roots) == [Fraction(-3), Fraction(1, 2)]
    for w in roots:
        assert w.lo < w.exact < w.hi
        assert w.sign == (1 if w.exact > 0 else -1)


def test_nonzero_real_roots_drops_zero_root():
    p = lam(0, 0, -4, 0, 1)  # lambda^2 (lambda^2 - 4)
    roots = nonzero_real_roots(p)
    assert sorted(w.exact for w in roots) == [-2, 2]


def test_nonzero_real_roots_irrational_witnesses():
    p = lam(-2, 0, 1)  # roots +-sqrt(2)
    roots = nonzero_real_roots(p)
    assert len(roots) == 2
    for w in roots:
        assert w.exact is None
        assert sturm_count(p, w.lo, w.hi) == 1
        # Interval contains sqrt(2) or -sqrt(2): the endpoint squares straddle 2.
        assert (w.lo * w.lo - 2) * (w.hi * w.hi - 2) < 0
    # The bisection starts from (-7/2, 0) and (0, 7/2): Cauchy bound 3, lc 1,
    # so e = (2*3 + 1)/2.  Its first cut, 7/4, leaves sqrt(2) in a piece that
    # ends at zero and is wider than 1/lc; the next, 7/8, isolates it.
    F = Fraction
    assert [(w.lo, w.hi) for w in roots] == [(F(-7, 4), F(-7, 8)), (F(7, 8), F(7, 4))]
    cubic = nonzero_real_roots(lam(1, -3, 0, 1))  # Cauchy bound 4: e = 9/2
    assert [(w.lo, w.hi, w.sign) for w in cubic] == [
        (F(-9, 4), F(-27, 16), -1), (F(9, 32), F(9, 16), 1), (F(9, 8), F(27, 16), 1)]


def test_nonzero_real_roots_disjoint_and_signed():
    rng = random.Random(302)
    for _ in range(150):
        deg = rng.randint(1, 9)
        p = lam(*[rng.randint(-30, 30) for _ in range(deg)], rng.randint(1, 30))
        witnesses = nonzero_real_roots(p)
        assert len(witnesses) == sturm_count(squarefree_part(p)) - (
            1 if p.coeff(0) == 0 else 0)
        ordered = sorted(witnesses, key=lambda w: w.lo)
        for w in ordered:
            assert not (w.lo <= 0 <= w.hi)
            assert (w.lo > 0) == (w.sign == 1)
            assert sturm_count(p, w.lo, w.hi) == 1
        for left, right in zip(ordered, ordered[1:]):
            assert left.hi <= right.lo


def test_nonzero_real_roots_close_pair_is_separated():
    eps = Fraction(1, 10 ** 6)
    p = from_roots([1, 1 + eps])
    a, b = sorted(nonzero_real_roots(p), key=lambda w: w.lo)
    assert a.hi <= b.lo
    assert a.lo < 1 < a.hi
    assert b.lo < 1 + eps < b.hi


def test_nonzero_real_roots_large_coefficients():
    # A constant term of 10^15: the bisection still returns both exactly.
    big = 10 ** 15
    p = lam(-big, 1) * lam(1, 1)
    witnesses = nonzero_real_roots(p)
    assert len(witnesses) == 2
    assert [w.exact for w in witnesses] == [-1, big]
    for w in witnesses:
        assert sturm_count(p, w.lo, w.hi) == 1


def test_nonzero_real_roots_exact_root_with_huge_coefficients():
    # (3*10^13 x - 1)(x^2 - 2): no bisection midpoint hits 1/(3*10^13); it is
    # the one candidate fraction k/lc left in its witness, tested exactly.
    p = lam(2, -6 * 10 ** 13, -1, 3 * 10 ** 13)
    witnesses = nonzero_real_roots(p)
    assert [w.exact for w in witnesses] == [None, Fraction(1, 3 * 10 ** 13), None]
    for w in witnesses:
        assert sturm_count(p, w.lo, w.hi) == 1
    for w in (witnesses[0], witnesses[2]):
        assert (w.lo * w.lo - 2) * (w.hi * w.hi - 2) < 0


def test_nonzero_real_roots_large_prime_denominator():
    q = 2 ** 61 - 1  # prime
    p = lam(-3, q) * lam(-5, 0, 1)
    witnesses = nonzero_real_roots(p)
    assert [w.exact for w in witnesses] == [None, Fraction(3, q), None]
    assert [w.sign for w in witnesses] == [-1, 1, 1]


def test_nonzero_real_roots_quartic_without_real_roots():
    # 7x^4 + x^2 + 999999999989 > 0; its constant term is a prime near 10^12.
    assert nonzero_real_roots(lam(999999999989, 0, 1, 0, 7)) == []


def _irreducible(quadratic):
    a, b, c = quadratic
    disc = b * b - 4 * a * c
    return disc < 0 or isqrt(disc) ** 2 != disc


_planted_roots = st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=30), max_size=4)
_quadratics = st.lists(
    st.tuples(st.integers(1, 9), st.integers(-20, 20), st.integers(-20, 20)).filter(_irreducible),
    max_size=2)
_zero_powers = st.integers(0, 3)
_scales = st.sampled_from([1, -1, Fraction(3, 7), -5])


def _planted(roots, quadratics, zero_power, scale):
    """scale * x^zero_power * prod (x - r) * prod (a x^2 + b x + c)."""
    p = lam(*([0] * zero_power), scale)
    for r in roots:
        p = p * lam(-r, 1)
    for a, b, c in quadratics:
        p = p * lam(c, b, a)
    return p


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_planted_roots, _quadratics, _zero_powers, _scales)
# x^2 + 100x - 1: an irrational root below 1/(2 lc), next to zero.
@example([], [(1, 100, -1)], 0, 1)
# (3*10^13 x - 1)(x^2 - 2): the root 1/lc.
@example([Fraction(1, 3 * 10 ** 13)], [(1, 0, -2)], 0, 1)
# x^2 - 1: Cauchy bound 2, so T = 2 and the roots are +-T/(2 lc), where a
# bisection started from the grid points +-T/lc would make its first cuts.
@example([1, -1], [], 0, 1)
# (x - 2)(x^2 - 2): the first grid point above sqrt(2)'s witness, 2, is a
# root but lies past the witness's right end.
@example([2], [(1, 0, -2)], 0, 1)
def test_nonzero_real_roots_returns_planted_rational_roots(roots, quadratics, zero_power, scale):
    p = _planted(roots, quadratics, zero_power, scale)
    witnesses = nonzero_real_roots(p)
    exact = [w.exact for w in witnesses if w.exact is not None]
    assert exact == sorted({r for r in roots if r})
    # Every rational root is a grid point k/lc; no witness ends on one, and
    # each is narrower than the grid step.
    lc = squarefree_part(p).coeffs[-1]
    for w in witnesses:
        assert not (w.lo <= 0 <= w.hi)
        assert w.sign == (1 if w.lo > 0 else -1)
        assert sturm_count(p, w.lo, w.hi) == 1
        assert w.hi - w.lo < Fraction(1, lc)
        assert (w.lo * lc).denominator != 1 and (w.hi * lc).denominator != 1
        inside = [r for r in roots if w.lo < r < w.hi]
        assert w.exact == (inside[0] if inside else None)
    for left, right in zip(witnesses, witnesses[1:]):
        assert left.hi <= right.lo


def _sign_changes(cs):
    """Descartes' bound: neighbouring nonzero coefficients of opposite sign."""
    nonzero = [c for c in cs if c != 0]
    return sum(a * b < 0 for a, b in zip(nonzero, nonzero[1:]))


_planted_polys = st.builds(_planted, _planted_roots, _quadratics, _zero_powers, _scales)
# scale * x^k * q(x^2), q with positive coefficients: no sign change in p(x)
# or p(-x), the only forms the Descartes exit settles.
_sign_free_polys = st.builds(
    lambda q, k, scale: _planted([], [], k, scale) * lam(*[c for a in q for c in (a, 0)]),
    st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4), _zero_powers, _scales)


# Every quadratic c0 + c1 x + c2 x^2 with small coefficients, c2 != 0.
_any_quadratics = st.tuples(st.integers(-20, 20), st.integers(-20, 20),
                            st.integers(-20, 20).filter(bool)).map(lambda cs: lam(*cs))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_planted_polys | _sign_free_polys | _any_quadratics)
@example(lam(1, 1))                       # x + 1: a negative root only
@example(lam(1, 0, 1))                    # x^2 + 1
@example(lam(0, 0, 0, 1))                 # x^3: its one root is zero
@example(lam(1, -2, 1))                   # (x - 1)^2: discriminant 0, the exact root 1
@example(lam(369793, 1065142, 851929))    # sign changes in p(-x), discriminant < 0
@example(lam(1, -1, 1))                   # x^2 - x + 1: discriminant -3
@example(lam(2, -3, 1))                   # (x - 1)(x - 2): discriminant 1
@example(lam(-1, 0, 3))                   # 3x^2 - 1: discriminant 12, irrational roots
@example(lam(0, 1, 1))                    # x(x + 1): discriminant 1, one root at zero
@example(lam(1, 0, -1, 0, 1))             # x^4 - x^2 + 1: sign changes, no real root
def test_descartes_exit_agrees_with_sturm(p):
    cs = p.coeffs
    alternated = [-c if i % 2 else c for i, c in enumerate(cs)]
    # Descartes' bound allows no nonzero root, or a quadratic has a negative discriminant.
    exits = ((not _sign_changes(cs) and not _sign_changes(alternated))
             or (len(cs) == 3 and cs[1] ** 2 - 4 * cs[0] * cs[2] < 0))
    count = sturm_count(p, None, Fraction(0)) + sturm_count(p, Fraction(0), None)
    with mock.patch.object(realroots, "sturm_chain", wraps=realroots.sturm_chain) as chain, \
            mock.patch.object(realroots, "_sturm_roots", wraps=realroots._sturm_roots) as bisect:
        witnesses = nonzero_real_roots(p)
    # The two exits come before any chain; past them, the chain's count
    # settles p when it finds no nonzero real root.
    assert chain.called != exits
    assert bisect.called != (exits or not count)
    assert len(witnesses) == count
    assert witnesses == _reference_roots(p)
    assert sturm_count(p, Fraction(0), None) <= _sign_changes(p.coeffs)
    assert sturm_count(p, None, Fraction(0)) <= _sign_changes(alternated)


def _fraction_squarefree(cs):
    """cs divided by gcd(cs, cs'), both by Euclid and long division over Fractions."""
    a, b = [Fraction(c) for c in cs], [k * c for k, c in enumerate(cs)][1:]
    while b:
        a, b = b, _naive_divmod(a, b)[1]
    return _naive_divmod(cs, a)[0]


def _reference_roots(p):
    """nonzero_real_roots with no exit: the square-free part by a Euclid of
    its own, its Sturm chain, then the half-grid bisection, every sign from
    a Fraction sum."""
    ps = UniPoly(_fraction_squarefree(p.coeffs))
    ps = UniPoly(ps.coeffs[next(i for i, c in enumerate(ps.coeffs) if c):])
    if ps.degree == 0:
        return []
    if ps.coeffs[-1] < 0:
        ps = ps * -1
    chain = sturm_chain(ps)
    lc = ps.coeffs[-1]
    e = Fraction(2 * ceil(cauchy_bound(ps) * lc) + 1, 2 * lc)

    def variations(x):
        return _sign_changes([_value(c, x) for c in chain])

    found, stack = [], [(Fraction(0), e), (-e, Fraction(0))]
    while stack:
        a, b = stack.pop()
        drop = variations(a) - variations(b)
        if not drop:
            continue
        if drop == 1 and a and b and b - a < Fraction(1, lc):
            grid = Fraction(ceil(a * lc), lc)
            exact = grid if grid < b and _value(ps.coeffs, grid) == 0 else None
            found.append(FactorWitness(a, b, 1 if a > 0 else -1, exact))
            continue
        stack += [((a + b) / 2, b), (a, (a + b) / 2)]
    return found


def _power(p, k):
    out = lam(1)
    for _ in range(k):
        out = out * p
    return out


# scale * x^z * prod (x - r)^m * (x^2 - x + 1)^k * (c x^n + d): planted
# multiple roots, roots at zero, a root-free factor and a binomial.
_counted_polys = st.builds(
    lambda roots, z, k, binomial, scale: (
        _planted([r for r, m in roots for _ in range(m)], [], z, scale)
        * _power(lam(1, -1, 1), k) * binomial),
    st.lists(st.tuples(st.fractions(-20, 20, max_denominator=6), st.integers(1, 3)), max_size=3),
    _zero_powers, st.integers(0, 3),
    st.just(lam(1)) | st.builds(lambda n, c, d: lam(d, *[0] * (n - 1), c),
                                st.integers(1, 9), st.integers(-9, 9).filter(bool),
                                st.integers(-40, 40).filter(bool)),
    _scales)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_counted_polys)
@example(_power(lam(1, -1, 1), 3))                # root-free, past both exits
@example(lam(0, 1) * _power(lam(-2, 1), 2) * lam(1, -1, 1))  # a double root beside a root-free factor
@example(lam(-5, 0, 0, 0, 0, 0, 0, 1))            # x^7 - 5: one irrational root
@example(lam(0, 0, 3, 0, 0, 0, 1))                # x^2 (x^4 + 3): no nonzero real root
def test_nonzero_real_roots_match_the_reference_without_exits(p):
    assert nonzero_real_roots(p) == _reference_roots(p)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_planted_roots, _quadratics, _zero_powers, _scales)
def test_nonzero_real_root_count_matches_sympy(roots, quadratics, zero_power, scale):
    sympy = pytest.importorskip("sympy")
    p = _planted(roots, quadratics, zero_power, scale)
    x = sympy.Symbol("x")
    reference = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                            for c in reversed(p.coeffs)], x)
    distinct = {r for r in sympy.real_roots(reference) if r != 0}
    assert len(nonzero_real_roots(p)) == len(distinct)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_planted_roots, _quadratics, _zero_powers, _scales, st.data())
def test_sturm_count_splits_at_a_point(roots, quadratics, zero_power, scale, data):
    p = _planted(roots, quadratics, zero_power, scale)
    points = st.sampled_from([Fraction(0), *roots]) | st.fractions(-50, 50, max_denominator=30)
    x, y = sorted((data.draw(points), data.draw(points)))
    assert sturm_count(p, None, x) + sturm_count(p, x, None) + (p(x) == 0) == sturm_count(p)
    if x < y:
        m = (x + y) / 2
        assert (sturm_count(p, x, m) + sturm_count(p, m, y) + (p(m) == 0)
                == sturm_count(p, x, y))


def test_refine_witness_narrows_and_keeps_root():
    p = lam(-2, 0, 1)
    w = [x for x in nonzero_real_roots(p) if x.sign == 1][0]
    for _ in range(5):
        prev = w.hi - w.lo
        w = refine_witness(p, w)
        assert w.hi - w.lo <= prev / 2
        assert sturm_count(p, w.lo, w.hi) == 1
    assert w.lo * w.lo < 2 < w.hi * w.hi
    # An exact root need not sit at the centre of its witness.
    p = lam(-3, 2)
    w, = nonzero_real_roots(p)
    assert w.exact == Fraction(3, 2) and w.exact != (w.lo + w.hi) / 2
    for _ in range(5):
        prev = w.hi - w.lo
        w = refine_witness(p, w)
        assert w.hi - w.lo <= prev / 2
        assert w.exact == Fraction(3, 2) and w.lo < w.exact < w.hi


def test_factor_witness_validation():
    with pytest.raises(ValueError):
        FactorWitness(Fraction(2), Fraction(1), 1)
    with pytest.raises(ValueError):
        FactorWitness(Fraction(-1), Fraction(1), 1)
    with pytest.raises(ValueError):
        FactorWitness(Fraction(1), Fraction(2), 1, exact=Fraction(3))


# -- the primitive integer kernel ----------------------------------------------


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_fraction_polys = st.lists(_rationals, min_size=1, max_size=7).filter(lambda cs: cs[-1] != 0)
_positive_scales = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)


def _sign(v):
    return (v > 0) - (v < 0)


def _value(cs, x):
    return sum(c * x ** k for k, c in enumerate(cs))


def _naive_divmod(a, b):
    """Long division over Fractions, lowest degree first; b has a nonzero top."""
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for i, bc in enumerate(b):
            rem[i + k] -= c * bc
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _naive_sturm_chain(cs):
    chain = [list(cs), [k * c for k, c in enumerate(cs)][1:]]
    while len(chain[-1]) > 1:
        rem = _naive_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _positive_multiple(ints, fracs):
    """Whether the integer coefficients are a positive multiple of the Fractions."""
    if len(ints) != len(fracs):
        return False
    scale = Fraction(ints[-1]) / fracs[-1]
    return scale > 0 and all(i == scale * f for i, f in zip(ints, fracs))


def _dense_homogenized(coeffs, num, den):
    """(sum c_i num^i den^(n-i), den^n), one term per coefficient, zeros included."""
    n = len(coeffs) - 1
    return sum(c * num ** i * den ** (n - i) for i, c in enumerate(coeffs)), den ** max(n, 0)


# Mostly zeros, so that runs of every length sit between, above and below
# the nonzero coefficients.
_sparse_coeffs = st.lists(st.just(0) | st.just(0) | st.just(0) | st.integers(-50, 50), max_size=40)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_sparse_coeffs, st.integers(-1000, 1000), st.integers(0, 1000) | st.just(0))
@example([], 3, 2)
@example([5], 3, 0)
@example([1] + [0] * 300 + [-1], 7, 3)      # 1 - x^301: one gap of 300
@example([0, 0, 0, 2, 0, 1], -3, 2)         # x^3 (2 + x^2): the gap down to the last term
@example([0, 0, 0, 2, 0, 1], 1, 0)          # at +inf
@example([4, 0, 0, 0, 0, 0, -1], -1, 0)     # at -inf
@example([0, 0, 1], 0, 5)                   # at zero
def test_homogenized_steps_over_zero_coefficients(coeffs, num, den):
    assert realroots._homogenized(coeffs, num, den) == _dense_homogenized(coeffs, num, den)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_fraction_polys, _positive_scales, st.lists(_rationals, min_size=1, max_size=5))
def test_unipoly_is_the_primitive_integer_multiple(cs, scale, points):
    p = UniPoly(cs)
    assert UniPoly([scale * c for c in cs]) == p
    assert p * scale == p
    assert all(type(c) is int for c in p.coeffs)
    assert gcd(*p.coeffs) == 1
    assert _positive_multiple(p.coeffs, cs)
    for x in points:
        assert _sign(p(x)) == _sign(_value(cs, x))
        assert p(x) == _value(p.coeffs, x)
        assert UniPoly()(x) == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_fraction_polys, _fraction_polys)
def test_pseudo_division_and_sturm_chain_match_fraction_arithmetic(a, b):
    ints_a, ints_b = UniPoly(a).coeffs, UniPoly(b).coeffs
    q, r = realroots._pseudo_divmod(ints_a, ints_b)
    naive_q, naive_r = _naive_divmod(ints_a, ints_b)
    # |lc(b)|^k * a = q*b + r with k = deg a - deg b + 1, or k = 0 when deg a < deg b.
    scale = abs(ints_b[-1]) ** max(len(ints_a) - len(ints_b) + 1, 0)
    assert q == [scale * c for c in naive_q] and r == [scale * c for c in naive_r]
    chain = sturm_chain(UniPoly(a))
    naive = _naive_sturm_chain(a) if len(a) > 1 else [a]
    assert len(chain) == len(naive)
    for entry, reference in zip(chain, naive):
        assert entry == UniPoly(entry).coeffs
        assert _positive_multiple(entry, reference)


_linear = st.tuples(st.integers(-6, 6), st.integers(1, 4))


def _product(factors, extra=()):
    p = UniPoly([1])
    for root_num, root_den in factors:
        p = p * UniPoly([-root_num, root_den])
    for cs in extra:
        p = p * UniPoly(cs)
    return p


def _sympy_poly(sympy, p, x):
    return sympy.Poly(list(reversed(p.coeffs)), x, domain="QQ")


def _from_sympy(poly):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    ref = UniPoly(coeffs)
    return ref * -1 if ref.coeffs[-1] < 0 else ref


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.lists(_linear, max_size=3), st.lists(_linear, max_size=3), st.lists(_linear, max_size=3),
       st.lists(_fraction_polys, max_size=2))
@example([], [], [], [])                      # a = b = 1: constant operands and part
@example([], [(2, 1)], [], [[3]])             # b = 3: a constant operand
@example([(1, 1)], [], [(2, 1)], [[1], [0]])  # a = 0: the gcd is b
def test_gcd_and_squarefree_part_match_sympy(common, only_a, only_b, extra):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a = _product(common + only_a + only_a, extra)
    b = _product(common + only_b, extra[:1])
    g = poly_gcd(a, b)
    assert g == _from_sympy(sympy.gcd(_sympy_poly(sympy, a, x), _sympy_poly(sympy, b, x)))
    assert g.coeffs[-1] > 0
    assert poly_gcd(b, a) == g
    if a.is_zero:
        with pytest.raises(ZeroPolynomialError):
            squarefree_part(a)
        return
    sf = squarefree_part(a)
    assert sf == _from_sympy(sympy.sqf_part(_sympy_poly(sympy, a, x)))
    assert sf.coeffs[-1] > 0


def test_dehomogenize_substitutes_into_a_binary_form():
    # 2u^3 v - 5u v^3 + u^4: content u, then lambda = v/u.
    h = U ** 3 * V * 2 - U * V ** 3 * 5 + U ** 4
    assert dehomogenize(h, (1, 1)) == UniPoly([1, 2, 0, -5])
    # v^3 - 8u with type (3, 1) becomes lambda - 8.
    assert dehomogenize(V ** 3 - U * 8, (3, 1)) == UniPoly([-8, 1])
    with pytest.raises(ValueError):
        dehomogenize(U + V ** 2, (1, 1))


# -- quasi-homogeneous factor test ------------------------------------------------


def test_factor_test_worked_examples():
    # (3/8)(u^2 + v^2) u^6 has no real factor v - a*u with a != 0.
    h = (U ** 2 + V ** 2) * U ** 6 * Fraction(3, 8)
    result = quasi_factor_test(h, (1, 1))
    assert not result.has_factor
    assert result.witnesses == ()
    assert result.lambda_poly == dehomogenize(h, (1, 1)) == UniPoly([1, 0, 1])

    # v^6 + 5u^2 with type (3, 1): lambda^2 + 5 shows no sign change in g(x)
    # or g(-x), so Descartes' rule settles it without a Sturm chain.
    h = V ** 6 + U ** 2 * 5
    with mock.patch.object(realroots, "sturm_chain", wraps=realroots.sturm_chain) as chain:
        result = quasi_factor_test(h, (3, 1))
    assert not chain.called
    assert not result.has_factor
    assert result.witnesses == ()
    assert result.lambda_poly == dehomogenize(h, (3, 1)) == UniPoly([5, 0, 1])

    # v^2 - 4u^2 = (v - 2u)(v + 2u).
    result = quasi_factor_test(V ** 2 - U ** 2 * 4, (1, 1))
    assert result.has_factor
    assert sorted(w.exact for w in result.witnesses) == [-2, 2]

    # v^3 - 8u with type (3, 1): factor v^3 - 8u exactly.
    result = quasi_factor_test(V ** 3 - U * 8, (3, 1))
    assert result.has_factor
    assert [w.exact for w in result.witnesses] == [8]


def test_factor_test_requires_quasi_homogeneous_input():
    with pytest.raises(ValueError):
        quasi_factor_test(U + V ** 2, (1, 1))
    with pytest.raises(ValueError):
        quasi_factor_test(BivarPoly.zero(), (1, 1))


def _poly_in_w(h: BivarPoly) -> UniPoly:
    """h(s^t1, w*s^t2) = s^K * phi(w): return phi, indexing coefficients by j."""
    coeffs: dict[int, Fraction] = {}
    for (_, j), c in h.terms():
        coeffs[j] = coeffs.get(j, Fraction(0)) + c
    top = max(coeffs)
    return UniPoly([coeffs.get(j, Fraction(0)) for j in range(top + 1)])


def _divides(h: BivarPoly, t: tuple[int, int], root: Fraction) -> bool:
    """Exact check that v^t1 - root*u^t2 divides the quasi-homogeneous h."""
    divisor = [-root] + [Fraction(0)] * (t[0] - 1) + [Fraction(1)]
    return not _naive_divmod(_poly_in_w(h).coeffs, divisor)[1]


def test_factor_test_rational_witnesses_divide_exactly():
    rng = random.Random(303)
    for _ in range(100):
        t1 = rng.choice([1, 1, 2, 3])
        t2 = rng.choice([1, 1, 2, 3])
        from math import gcd
        if gcd(t1, t2) != 1:
            continue
        root = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        factor = V ** t1 - U ** t2 * root
        cof_points = [(t2 * i, t1 * (3 - i)) for i in range(4)]
        cofactor = BivarPoly({pt: rng.randint(-3, 3) for pt in cof_points})
        if cofactor.is_zero:
            cofactor = BivarPoly.monomial(*cof_points[0])
        h = factor * cofactor
        result = quasi_factor_test(h, (t1, t2))
        assert result.has_factor
        exact_roots = [w.exact for w in result.witnesses if w.exact is not None]
        assert root in exact_roots
        for w in result.witnesses:
            if w.exact is not None:
                assert _divides(h, (t1, t2), w.exact)


def test_factor_test_irrational_witness_residue_vanishes():
    # v^2 - 3u^2: roots +-sqrt(3); check the refined residue numerically.
    h = V ** 2 - U ** 2 * 3
    result = quasi_factor_test(h, (1, 1))
    assert result.has_factor
    for w in result.witnesses:
        assert w.exact is None
        while w.hi - w.lo > Fraction(1, 10 ** 12):
            w = refine_witness(result.lambda_poly, w)
        mid = (w.lo + w.hi) / 2
        # Divide phi(w) by (w - mid): the remainder is phi(mid).
        residue = _poly_in_w(h)(mid)
        assert abs(residue) < Fraction(1, 10 ** 6)


def test_factor_test_lambda_poly_matches_substitution():
    rng = random.Random(304)
    for _ in range(50):
        t1, t2 = rng.choice([(1, 1), (1, 2), (2, 1), (3, 1), (2, 3)])
        value = (t1 * t2) * rng.randint(2, 5)
        points = [(i, j) for i in range(value + 1) for j in range(value + 1)
                  if t1 * i + t2 * j == value]
        h = BivarPoly({pt: rng.randint(-4, 4) for pt in points})
        if h.is_zero:
            h = BivarPoly.monomial(*points[0])
        result = quasi_factor_test(h, (t1, t2))
        g = result.lambda_poly
        # g(a) = 0 exactly when v^t1 - a u^t2 divides h; cross-check three values.
        for a in (Fraction(1), Fraction(-2), Fraction(3, 2)):
            assert (g(a) == 0) == _divides(h, (t1, t2), a)
        assert g.coeff(0) != 0


def test_sturm_vs_numeric_oracle_small():
    rng = random.Random(305)
    for _ in range(100):
        deg = rng.randint(1, 10)
        p = lam(*[rng.randint(-100, 100) for _ in range(deg)], rng.randint(1, 100))
        sf = squarefree_part(p)
        assert sturm_count(sf) == numeric_root_count(sf)
