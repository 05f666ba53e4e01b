"""Hamiltonian fields, support, splitting, and common linear factors."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from monodroma import BivarPoly, PlanarField, ZeroPolynomialError, hamiltonian_field, support
from monodroma.field import (
    ZERO_FIELD,
    common_real_linear_factors,
    from_vector_coefficients,
    split,
    vector_coefficients,
)
from monodroma.oracle import quasi_field_components

from genmaps import (
    example1_map,
    example2_map,
    rand_nonzero_poly,
    rand_poly,
    rand_quasi_field,
    rand_type,
)

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


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
    assert from_vector_coefficients(*vector_coefficients(field)) == field


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


def test_split_reconstructs_field():
    # The last 40 draws take the axis types (1, 0) and (0, 1) of the
    # unbounded rays in build_diagram.
    rng = random.Random(403)
    for n in range(240):
        t = rand_type(rng, bound=4) if n < 200 else ((1, 0), (0, 1))[n % 2]
        k = rng.randint(1, 9)
        field = rand_quasi_field(rng, t, k)
        parts = split(field, k, t)
        assert parts.reconstruct() == field
        assert parts.k == k and parts.t == t
    parts = split(ZERO_FIELD, 3, (2, 1))
    assert parts.h.is_zero and parts.mu.is_zero
    assert parts.reconstruct() == ZERO_FIELD


def test_split_euler_identity():
    # t1*x*h_x + t2*y*h_y = (k + t1 + t2) * h for the split Hamiltonian.
    rng = random.Random(404)
    for _ in range(100):
        t = rand_type(rng, bound=3)
        k = rng.randint(1, 7)
        field = rand_quasi_field(rng, t, k)
        parts = split(field, k, t)
        h = parts.h
        lhs = X * h.partial(0) * t[0] + Y * h.partial(1) * t[1]
        assert lhs == h * (k + t[0] + t[1])
        if not parts.mu.is_zero:
            assert len(parts.mu.quasi_components(t)) <= 1
            assert parts.mu.quasi_degree(t) == k


def test_split_validates_type_and_degree():
    field = PlanarField(X ** 2, BivarPoly.zero())
    with pytest.raises(ValueError):
        split(field, 5, (1, 1))  # wrong degree
    with pytest.raises(ValueError):
        split(PlanarField(X, Y), -2, (1, 1))  # weight zero
    with pytest.raises(ValueError):
        split(PlanarField(X + X ** 2, BivarPoly.zero()), 0, (1, 1))  # not quasi-homogeneous


def test_split_hamiltonian_piece_is_conservative():
    # For a field that is already Hamiltonian, mu vanishes and h generates it.
    rng = random.Random(405)
    for _ in range(50):
        t = rand_type(rng, bound=3)
        weight = rng.randint(2, 8)
        value = weight + t[0] + t[1]
        from genmaps import lattice_on_line, rand_quasi_poly
        if not lattice_on_line(t, value):
            continue
        h = rand_quasi_poly(rng, t, value)
        field = PlanarField(-h.partial(1), h.partial(0))
        if field.is_zero:
            continue
        parts = split(field, weight, t)
        assert parts.mu.is_zero
        assert parts.h == h


# -- common real linear factors ---------------------------------------------------


def test_common_factor_axes():
    a = X ** 2 * Y
    b = X * Y ** 3 * 5
    factors = common_real_linear_factors(a, b)
    kinds = {f.kind: f for f in factors}
    assert set(kinds) == {"x", "y"}
    assert (kinds["x"].mult_a, kinds["x"].mult_b) == (2, 1)
    assert (kinds["y"].mult_a, kinds["y"].mult_b) == (1, 3)


def test_common_factor_rational_slope():
    a = (Y - X * 2) ** 2 * X
    b = (Y - X * 2) * Y ** 2
    factors = common_real_linear_factors(a, b)
    assert len(factors) == 1
    factor = factors[0]
    assert factor.kind == "slope"
    assert factor.slope == 2
    assert (factor.mult_a, factor.mult_b) == (2, 1)


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
        assert (factor.mult_a, factor.mult_b) == (1, 1)


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
    # First family: common factor x with multiplicities (2m, >= 2m).
    f, g = example1_map([Fraction(1), Fraction(1)], [Fraction(1)])
    ham = hamiltonian_field(f, g)
    omega_top, lambda_top = ham.q.leading_form(), (-ham.p).leading_form()
    factors = common_real_linear_factors(omega_top, lambda_top)
    assert any(fac.kind == "x" and min(fac.mult_a, fac.mult_b) == 2 for fac in factors)

    # Second family: common factor y with multiplicity 2*m1 + 1 = 3.
    f, g = example2_map([Fraction(1), Fraction(1)], [Fraction(1)], [Fraction(1)], [Fraction(1)])
    ham = hamiltonian_field(f, g)
    omega_top, lambda_top = ham.q.leading_form(), (-ham.p).leading_form()
    factors = common_real_linear_factors(omega_top, lambda_top)
    assert any(fac.kind == "y" and min(fac.mult_a, fac.mult_b) == 3 for fac in factors)
