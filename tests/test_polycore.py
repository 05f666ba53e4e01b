"""Ring laws, calculus rules, and quasi-homogeneous decomposition."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from monodroma import BivarPoly, ExponentOverflowError
from monodroma.polycore import quasi_type

from genmaps import rand_poly, rand_nonzero_poly

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


def test_constructors_merge_and_drop_zero_terms():
    p = BivarPoly([((1, 2), 3), ((1, 2), -3), ((0, 0), Fraction(1, 2))])
    assert p == BivarPoly.const(Fraction(1, 2))
    assert BivarPoly({}).is_zero
    assert BivarPoly.monomial(2, 1, 0).is_zero


def test_value_semantics():
    p = X * 2 + Y
    q = BivarPoly({(1, 0): 2, (0, 1): 1})
    assert p == q and hash(p) == hash(q)
    assert p != X
    assert BivarPoly.const(5) == 5
    with pytest.raises(AttributeError):
        p.anything = 1


def test_ring_laws_random():
    rng = random.Random(101)
    for _ in range(200):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        assert a + BivarPoly.zero() == a
        assert a * 1 == a
        assert (a * 0).is_zero


def test_scalar_mixing():
    p = X ** 2 - Y
    assert p * Fraction(1, 3) == BivarPoly({(2, 0): Fraction(1, 3), (0, 1): Fraction(-1, 3)})
    assert 2 - p == BivarPoly({(0, 0): 2, (2, 0): -1, (0, 1): 1})
    assert p + 1 == BivarPoly({(2, 0): 1, (0, 1): -1, (0, 0): 1})


def test_power():
    p = X + Y
    assert p ** 0 == BivarPoly.const(1)
    assert p ** 3 == BivarPoly({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})
    with pytest.raises(ValueError):
        p ** -1


def test_leibniz_rule_random():
    rng = random.Random(102)
    for _ in range(200):
        a = rand_poly(rng)
        b = rand_poly(rng)
        for axis in (0, 1):
            lhs = (a * b).partial(axis)
            rhs = a.partial(axis) * b + a * b.partial(axis)
            assert lhs == rhs


def test_partial_examples():
    p = X ** 3 * Y + X * 2
    assert p.partial(0) == X ** 2 * Y * 3 + 2
    assert p.partial(1) == X ** 3
    assert BivarPoly.const(7).partial(0).is_zero


def test_evaluate_exact():
    p = X ** 2 * Y - Y * Fraction(1, 2)
    assert p.evaluate(Fraction(2), Fraction(3)) == 12 - Fraction(3, 2)
    assert p.evaluate(0, 0) == 0
    rng = random.Random(103)
    for _ in range(100):
        a = rand_poly(rng)
        b = rand_poly(rng)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert (a * b).evaluate(x, y) == a.evaluate(x, y) * b.evaluate(x, y)
        assert (a + b).evaluate(x, y) == a.evaluate(x, y) + b.evaluate(x, y)


def test_degrees_and_min_exponents():
    p = X ** 3 * Y + X * Y ** 2
    assert p.degrees() == (4, 3, 2)
    assert p.total_degree() == 4
    assert p.min_exponents() == (1, 1)
    with pytest.raises(ValueError):
        BivarPoly.zero().total_degree()
    with pytest.raises(ValueError):
        BivarPoly.zero().min_exponents()


def test_quasi_components_reconstruct_random():
    rng = random.Random(104)
    for _ in range(200):
        p = rand_poly(rng, max_degree=6, terms=8)
        t1 = rng.randint(1, 4)
        t2 = rng.randint(1, 4)
        from math import gcd
        if gcd(t1, t2) != 1:
            continue
        comps = p.quasi_components((t1, t2))
        total = BivarPoly.zero()
        for deg, part in comps:
            assert not part.is_zero
            for (i, j), _ in part.terms():
                assert t1 * i + t2 * j == deg
            total = total + part
        assert total == p
        degs = [d for d, _ in comps]
        assert degs == sorted(degs)


def test_quasi_scaling_identity_random():
    # p(s^t1 * x, s^t2 * y) applied to a component multiplies it by s^deg.
    rng = random.Random(105)
    for _ in range(100):
        p = rand_nonzero_poly(rng, max_degree=5, terms=6)
        t = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3), (3, 2), (2, 3)])
        s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for deg, part in p.quasi_components(t):
            lhs = part.evaluate(s ** t[0] * x0, s ** t[1] * y0)
            assert lhs == s ** deg * part.evaluate(x0, y0)


def test_homogeneous_components_and_leading_form():
    p = X ** 2 + X * Y + Y + 1
    comps = dict(p.homogeneous_components())
    assert comps[0] == BivarPoly.const(1)
    assert comps[1] == Y
    assert comps[2] == X ** 2 + X * Y
    assert p.leading_form() == X ** 2 + X * Y
    with pytest.raises(ValueError):
        BivarPoly.zero().leading_form()


def test_quasi_degree_and_homogeneity():
    p = X ** 2 * Y + Y ** 2  # type (1, 2): degrees 4 and 4
    assert len(p.quasi_components((1, 2))) <= 1
    assert p.quasi_degree((1, 2)) == 4
    assert len(p.quasi_components((1, 1))) > 1
    with pytest.raises(ValueError):
        BivarPoly.zero().quasi_degree((1, 2))


def test_quasi_type_validation():
    assert quasi_type(1, 0) == (1, 0)
    assert quasi_type(3, 5) == (3, 5)
    with pytest.raises(ValueError):
        quasi_type(2, 4)
    with pytest.raises(ValueError):
        quasi_type(0, 0)
    with pytest.raises(ValueError):
        quasi_type(-1, 2)


def test_exponent_overflow_guard():
    big = BivarPoly.monomial(2 ** 62, 0)  # at the cap: allowed
    with pytest.raises(ExponentOverflowError):
        big * big
    with pytest.raises(ExponentOverflowError):
        BivarPoly.monomial(2 ** 62 + 1, 0)
    # Only one term pair of each product leaves the range.
    with pytest.raises(ExponentOverflowError):
        (big + 1) * (X + 1)
    with pytest.raises(ExponentOverflowError):
        (BivarPoly.monomial(0, 2 ** 62) + 1) * (Y + 1)
    top = BivarPoly.monomial(2 ** 62 - 1, 0) + 1  # reaches the cap exactly
    assert (top * (X + 1)).coeff(2 ** 62, 0) == 1
    with pytest.raises(ValueError):
        BivarPoly.monomial(-1, 0)


def test_term_list_round_trip():
    rng = random.Random(106)
    for _ in range(50):
        p = rand_poly(rng)
        assert BivarPoly.from_term_list(p.to_term_list()) == p


def test_to_string_examples():
    assert (X ** 2 - Y).to_string() == "x^2 - y"
    assert BivarPoly.zero().to_string() == "0"
    assert BivarPoly.const(Fraction(-3, 4)).to_string() == "-3/4"
    assert (X * Y).to_string(("u", "v")) == "u*v"


# -- the integer product kernel against a naive Fraction product ---------------

_coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=15)
_polys = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)), _coeffs, max_size=9),
    _coeffs.map(lambda c: {(0, 0): c}),
).map(BivarPoly)


def _value(p: BivarPoly) -> dict:
    """The coefficients as Fractions, read straight off the stored form."""
    num, den = p.numerators()
    return {key: Fraction(n, den) for key, n in num.items()}


def _nonzero(acc: dict) -> dict:
    return {key: c for key, c in acc.items() if c}


def _naive_sum(a: dict, b: dict) -> dict:
    acc = dict(a)
    for key, c in b.items():
        acc[key] = acc.get(key, Fraction(0)) + c
    return _nonzero(acc)


def _naive_product(a: dict, b: dict) -> dict:
    acc = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return _nonzero(acc)


def _assert_canonical(p: BivarPoly) -> None:
    num, den = p.numerators()
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in num.values())
    assert gcd(den, *num.values()) == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_polys, _polys)
def test_product_matches_naive_fraction_product(a, b):
    product = a * b
    terms = dict(product.terms())
    assert terms == _naive_product(dict(a.terms()), dict(b.terms()))
    assert all(type(c) is Fraction for c in terms.values())
    assert product == b * a


_types = st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 0), (0, 1), (2, 3)])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_polys, _polys, _coeffs, st.integers(0, 3), _types)
def test_every_operation_stores_the_canonical_form_of_the_fraction_result(a, b, c, n, t):
    va, vb = _value(a), _value(b)
    power = {(0, 0): Fraction(1)}
    for _ in range(n):
        power = _naive_product(power, va)
    cases = [
        (a + b, _naive_sum(va, vb)),
        (a - b, _naive_sum(va, {key: -v for key, v in vb.items()})),
        (-a, {key: -v for key, v in va.items()}),
        (a * b, _naive_product(va, vb)),
        (a * c, _nonzero({key: v * c for key, v in va.items()})),
        (c * a, _nonzero({key: v * c for key, v in va.items()})),
        (a ** n, power),
        (a.partial(0), {(i - 1, j): v * i for (i, j), v in va.items() if i}),
        (a.partial(1), {(i, j - 1): v * j for (i, j), v in va.items() if j}),
    ]
    t1, t2 = t
    degree = lambda key: t1 * key[0] + t2 * key[1]
    comps = a.quasi_components(t)
    assert [d for d, _ in comps] == sorted({degree(key) for key in va})
    for d, part in comps:
        want = {key: v for key, v in va.items() if degree(key) == d}
        cases.append((part, want))
    num, den = a.numerators()
    cases.append((BivarPoly.from_numerators({key: 6 * m for key, m in num.items()}, 6 * den), va))
    for poly, want in cases:
        _assert_canonical(poly)
        assert _value(poly) == want


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_polys, _polys)
def test_equal_values_hash_equal(a, b):
    for same in ((a + b) - b, (a * 3) * Fraction(1, 3), BivarPoly(dict(a.terms()))):
        assert same == a and hash(same) == hash(a)
    half = BivarPoly.monomial(1, 0, Fraction(1, 2))
    assert half + half == X and hash(half + half) == hash(X)
    assert (X - X) == BivarPoly.zero() and hash(X - X) == hash(BivarPoly.zero())
    for poly, scalar in ((BivarPoly.zero(), 0), (BivarPoly.const(3), 3),
                         (BivarPoly.const(Fraction(3, 2)), Fraction(3, 2))):
        assert poly == scalar and hash(poly) == hash(scalar)
        assert len({poly, scalar}) == 1


_points = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-5, 5, max_denominator=7))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_polys, _points, _points)
def test_evaluate_matches_naive_fraction_sum(a, x, y):
    want = sum((c * Fraction(x) ** i * Fraction(y) ** j for (i, j), c in _value(a).items()),
               Fraction(0))
    got = a.evaluate(x, y)
    assert type(got) is Fraction and got == want
    assert BivarPoly.zero().evaluate(x, y) == 0


def test_from_numerators_rejects_bad_input():
    for den in (0, -2):
        with pytest.raises(ValueError):
            BivarPoly.from_numerators({(1, 0): 1}, den)
    with pytest.raises(ExponentOverflowError):
        BivarPoly.from_numerators({(2 ** 62 + 1, 0): 1}, 1)
