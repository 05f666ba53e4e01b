"""Hamiltonian fields, support maps, and common linear factors."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from monodroma import BivarPoly, PlanarField, ZeroPolynomialError, hamiltonian_field, support
from monodroma.field import _field_from_support, common_real_linear_factors, vector_coefficients
from monodroma.oracle import quasi_field_components

from genmaps import example1_map, example2_map, rand_poly, rand_type

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


def from_vector_coefficients(coeffs, den):
    """The inverse of vector_coefficients through BivarPoly.from_numerators,
    which checks every exponent: a goes to p at (x, y - 1), b to q at (x - 1, y)."""
    p = {(x, y - 1): a for (x, y), (a, _) in coeffs.items() if a}
    q = {(x - 1, y): b for (x, y), (_, b) in coeffs.items() if b}
    return PlanarField(BivarPoly.from_numerators(p, den), BivarPoly.from_numerators(q, den))


def test_hamiltonian_field_matches_gradient():
    rng = random.Random(401)
    for _ in range(100):
        f = rand_poly(rng)
        g = rand_poly(rng)
        ham = hamiltonian_field(f, g)
        energy = (f * f + g * g) * Fraction(1, 2)
        assert ham.p == -energy.partial(1)
        assert ham.q == energy.partial(0)
        assert (ham.p.partial(0) + ham.q.partial(1)).is_zero


def test_hamiltonian_field_identity_map():
    ham = hamiltonian_field(X, Y)
    assert ham.p == -Y
    assert ham.q == X


def test_support_reads_shifted_exponents():
    # P = -y contributes (0, 2); Q = x contributes (2, 0).
    pts = support(PlanarField(-Y, X))
    assert [s.point for s in pts] == [(0, 2), (2, 0)]
    assert pts[0].coeff == (-1, 0)
    assert pts[1].coeff == (0, 1)
    # A shared lattice point merges both coefficients.
    pts = support(PlanarField(X * Y, X ** 2 * 3))
    assert [(s.point, s.coeff) for s in pts] == [((1, 2), (1, 0)), ((3, 0), (0, 3))]
    merged = support(PlanarField(X ** 2 * Y * 5, X * Y ** 2 * 7))
    assert [(s.point, s.coeff) for s in merged] == [((2, 2), (5, 7))]


_polys = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                        st.fractions(min_value=-9, max_value=9, max_denominator=7),
                        max_size=5).map(BivarPoly)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_polys, _polys)
# Support points on both axes, (0, 1), (0, 4), (1, 0) and (3, 0), and one,
# (1, 2), that holds both a and b.
@example(Y ** 3 - 2 + X * Y, X ** 2 + Fraction(1, 3) + Y ** 2 * 5)
def test_vector_coefficients_round_trip(p, q):
    field = PlanarField(p, q)
    assume(not field.is_zero)
    coeffs, den = vector_coefficients(field)
    assert from_vector_coefficients(coeffs, den) == field
    # The same field from the unchecked inverse, at any scaling of the map.
    assert _field_from_support(coeffs, den) == field
    assert _field_from_support({pt: [3 * a, 3 * b] for pt, (a, b) in coeffs.items()}, 3 * den) == field


def test_support_zero_field_rejected():
    with pytest.raises(ZeroPolynomialError):
        support(PlanarField(BivarPoly.zero(), BivarPoly.zero()))


def test_quasi_field_components_reconstruct():
    rng = random.Random(402)
    for _ in range(200):
        field = PlanarField(rand_poly(rng, max_degree=5), rand_poly(rng, max_degree=5))
        if field.is_zero:
            continue
        t = rand_type(rng, bound=3)
        comps = quasi_field_components(field, t)
        p_total = BivarPoly.zero()
        q_total = BivarPoly.zero()
        for k, part in comps:
            assert not part.is_zero
            for (i, j), _ in part.p.terms():
                assert t[0] * i + t[1] * j == k + t[0]
            for (i, j), _ in part.q.terms():
                assert t[0] * i + t[1] * j == k + t[1]
            p_total = p_total + part.p
            q_total = q_total + part.q
        assert p_total == field.p and q_total == field.q
        assert [k for k, _ in comps] == sorted(k for k, _ in comps)


# -- common real linear factors ---------------------------------------------------


def test_common_factor_axes():
    a = X ** 2 * Y
    b = X * Y ** 3 * 5
    factors = common_real_linear_factors(a, b)
    kinds = {f.kind: f for f in factors}
    assert set(kinds) == {"x", "y"}


def test_common_factor_rational_slope():
    a = (Y - X * 2) ** 2 * X
    b = (Y - X * 2) * Y ** 2
    factors = common_real_linear_factors(a, b)
    assert len(factors) == 1
    factor = factors[0]
    assert factor.kind == "slope"
    assert factor.slope == 2


def test_common_factor_irrational_slopes():
    base = Y ** 2 - X ** 2 * 2
    a = base
    b = base * (X + Y)
    factors = common_real_linear_factors(a, b)
    assert len(factors) == 2
    for factor in factors:
        assert factor.kind == "slope"
        assert factor.slope is None
        lo, hi = factor.slope_interval
        assert (lo * lo - 2) * (hi * hi - 2) < 0  # straddles +-sqrt(2)


def test_common_factor_none_for_coprime_forms():
    assert common_real_linear_factors(X ** 2 + Y ** 2, X * Y) == []
    assert common_real_linear_factors(X, Y) == []
    # Common complex factor only: x^2 + y^2 divides both, no real line does.
    s = X ** 2 + Y ** 2
    assert common_real_linear_factors(s, s * (X + Y)) == []


def test_common_factor_requires_homogeneous_nonzero():
    with pytest.raises(ValueError):
        common_real_linear_factors(X + 1, Y)
    with pytest.raises(ValueError):
        common_real_linear_factors(BivarPoly.zero(), Y)


def test_real_linear_factor_exists():
    # The common factors of a form with itself are its real linear factors.
    def exists(form):
        return bool(common_real_linear_factors(form, form))

    assert exists(X * Y)
    assert exists(Y ** 2 - X ** 2 * 3)
    assert not exists(X ** 2 + Y ** 2)
    assert not exists((X ** 2 + Y ** 2) * 5)


def test_example_families_leading_factor_shapes():
    # First family: common factor x with multiplicities (2m, >= 2m), m = 1.
    f, g = example1_map([Fraction(1), Fraction(1)], [Fraction(1)])
    ham = hamiltonian_field(f, g)
    omega_top, lambda_top = ham.q.leading_form(), (-ham.p).leading_form()
    assert "x" in {fac.kind for fac in common_real_linear_factors(omega_top, lambda_top)}
    assert min(omega_top.min_exponents()[0], lambda_top.min_exponents()[0]) == 2

    # Second family: common factor y with multiplicity 2*m1 + 1 = 3.
    f, g = example2_map([Fraction(1), Fraction(1)], [Fraction(1)], [Fraction(1)], [Fraction(1)])
    ham = hamiltonian_field(f, g)
    omega_top, lambda_top = ham.q.leading_form(), (-ham.p).leading_form()
    assert "y" in {fac.kind for fac in common_real_linear_factors(omega_top, lambda_top)}
    assert min(omega_top.min_exponents()[1], lambda_top.min_exponents()[1]) == 3
