"""Compactification: inversion identity, pair pieces, diagonal part."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from monodroma import (
    BivarPoly,
    DegenerateTransformError,
    ExponentOverflowError,
    PlanarField,
    ZeroPolynomialError,
    build_diagram,
    certify,
    compactify,
    compactify_lower,
    hamiltonian_field,
    support,
)
from monodroma.bendixson import _compactified
from monodroma.diagram import newton_chain
from monodroma.field import support_points, vector_coefficients
from monodroma.oracle import diagonal_part, map_degree, pair_component

import reference_compactify
from genmaps import rand_any_map, rand_homogeneous, rand_poly

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


def test_rotation_example():
    b_field = compactify(PlanarField(-Y, X))
    assert b_field.p == -(X ** 2) * Y - Y ** 3
    assert b_field.q == X ** 3 + X * Y ** 2


def test_zero_field_passes_through():
    assert compactify(PlanarField(BivarPoly.zero(), BivarPoly.zero())).is_zero


def test_constant_field_rejected():
    with pytest.raises(DegenerateTransformError):
        compactify(PlanarField(BivarPoly.const(1), BivarPoly.zero()))


@pytest.mark.parametrize("transform", [compactify, compactify_lower])
def test_exponent_guard_refuses_before_building(transform):
    # d = 2^62: the constant Q term gains 2d from the circle power, plus 2.
    field = PlanarField(X ** 2 ** 62, BivarPoly.const(1))
    with pytest.raises(ExponentOverflowError) as err:
        transform(field)
    assert str(err.value) == "exponent 9223372036854775810 exceeds 4611686018427387904"


_E = 2 ** 61


@pytest.mark.parametrize("transform", [compactify, compactify_lower])
@pytest.mark.parametrize("p, q", [
    (X ** _E * Y, BivarPoly.const(1)),         # only a at (E, 2); only b at (1, 0)
    (Y ** _E, X),                              # only a at (0, E + 1); only b at (2, 0)
    (X ** _E + Y, X ** (_E - 1) * Y * 2),      # a and b at (E, 1); only a at (0, 2)
    (BivarPoly.zero(), X * Y ** _E + Y),       # only b, at (2, E) and (1, 1)
])
def test_exponent_guard_names_the_largest_term_exponent(transform, p, q):
    # The guard reads the support map; its number is the largest exponent a
    # term (i, j) of degree k would reach, max(i, j) + 2(d - k) + 2.
    terms = [key for c in (p, q) for key in c.support()]
    d = max(i + j for i, j in terms)
    largest = max(max(i, j) + 2 * (d - i - j) + 2 for i, j in terms)
    assert largest > 2 ** 62  # so the guard refuses before building anything
    with pytest.raises(ExponentOverflowError) as err:
        transform(PlanarField(p, q))
    assert str(err.value) == f"exponent {largest} exceeds {2 ** 62}"


def test_pointwise_inversion_identity():
    # b(X)(u, v) = (u^2+v^2)^d * [(v^2-u^2) P - 2uv Q, (u^2-v^2) Q - 2uv P]
    # evaluated at the inverted point (u, v)/(u^2+v^2); exact rationals.
    rng = random.Random(601)
    trials = 0
    while trials < 200:
        field = PlanarField(rand_poly(rng, max_degree=3, terms=4),
                            rand_poly(rng, max_degree=3, terms=4))
        if field.is_zero or field.degree() == 0:
            continue
        trials += 1
        d = field.degree()
        b_field = compactify(field)
        u0 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        v0 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if u0 == 0 and v0 == 0:
            u0 = Fraction(1)
        circle = u0 * u0 + v0 * v0
        x0, y0 = u0 / circle, v0 / circle
        p_val, q_val = field.evaluate(x0, y0)
        scale = circle ** d
        assert b_field.p.evaluate(u0, v0) == scale * ((v0 * v0 - u0 * u0) * p_val - 2 * u0 * v0 * q_val)
        assert b_field.q.evaluate(u0, v0) == scale * ((u0 * u0 - v0 * v0) * q_val - 2 * u0 * v0 * p_val)


_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
# Sparse terms of total degree at most 5, so most fields miss some degrees.
_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: sum(e) <= 5),
    _coeffs, max_size=4).map(BivarPoly)
_points = st.tuples(_coeffs, _coeffs).filter(lambda pt: pt != (0, 0))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_polys, _polys, st.lists(_points, min_size=1, max_size=3))
# P has only degrees 0 and 3, Q only degree 1.
@example(X ** 3 * Fraction(2, 3) - Fraction(1, 5), Y * Fraction(-7, 2),
         [(Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(5, 7))])
def test_compactify_matches_its_definition_pointwise(p, q, points):
    # b(X)(u, v) = ((v^2-u^2) P* - 2uv Q*, (u^2-v^2) Q* - 2uv P*) with
    # R* = r^d R(u/r, v/r) and r = u^2+v^2, from PlanarField.evaluate only.
    field = PlanarField(p, q)
    assume(not field.is_zero and field.degree() > 0)
    d = field.degree()
    b_field = compactify(field)
    for u0, v0 in points:
        r = u0 * u0 + v0 * v0
        p_val, q_val = field.evaluate(u0 / r, v0 / r)
        p_star, q_star = r ** d * p_val, r ** d * q_val
        assert b_field.evaluate(u0, v0) == (
            (v0 * v0 - u0 * u0) * p_star - 2 * u0 * v0 * q_star,
            (u0 * u0 - v0 * v0) * q_star - 2 * u0 * v0 * p_star,
        )


def test_degree_bound_and_origin_fixed():
    rng = random.Random(602)
    checked = 0
    while checked < 100:
        field = PlanarField(rand_poly(rng, max_degree=4), rand_poly(rng, max_degree=4))
        if field.is_zero or field.degree() == 0:
            continue
        checked += 1
        d = field.degree()
        b_field = compactify(field)
        assert not b_field.is_zero
        assert b_field.degree() <= 2 * d + 2
        assert b_field.evaluate(0, 0) == (0, 0)


def test_pair_components_assemble_the_compactified_field():
    rng = random.Random(603)
    for _ in range(60):
        f, g = rand_any_map(rng, max_degree=3)
        d = map_degree(f, g)
        if d == 0:
            continue
        b_field = compactify(hamiltonian_field(f, g))
        acc_p, acc_q = BivarPoly.zero(), BivarPoly.zero()
        for i in range(0, d + 1):
            for j in range(i, d + 1):
                piece = pair_component(f, g, i, j)
                weight = Fraction(1, 2) if i == j else Fraction(1)
                acc_p = acc_p + piece.p * weight
                acc_q = acc_q + piece.q * weight
        assert acc_p == b_field.p
        assert acc_q == b_field.q


def test_map_degree_errors_on_zero_map():
    with pytest.raises(ZeroPolynomialError):
        map_degree(BivarPoly.zero(), BivarPoly.zero())
    assert map_degree(X ** 3, Y) == 3


def test_diagonal_part_shares_diagram_vertices():
    rng = random.Random(604)
    checked = 0
    while checked < 60:
        f, g = rand_any_map(rng, max_degree=4)
        if map_degree(f, g) == 0:
            continue
        field = hamiltonian_field(f, g)
        if field.is_zero:
            continue
        checked += 1
        full = compactify(field)
        diagonal = diagonal_part(f, g)
        assert not diagonal.is_zero
        full_pts = [s.point for s in support(full)]
        diag_pts = [s.point for s in support(diagonal)]
        assert newton_chain(full_pts) == newton_chain(diag_pts)


def test_homogeneous_energy_piece_has_closed_form_vertices():
    # For homogeneous W of degree k >= 1, the field
    #   ((x^2-y^2) W_y - 2xy W_x, (x^2-y^2) W_x + 2xy W_y)
    # has the same diagram vertices as the polynomial (x^2+y^2) W, namely
    # (m+2, k-m) and (k-n, n+2) for m = deg_x W, n = deg_y W, with vector
    # coefficients ((k-m) c, (2k-m) c) and ((n-2k) c', (n-k) c').
    rng = random.Random(605)
    for _ in range(150):
        k = rng.randint(1, 6)
        w = rand_homogeneous(rng, k)
        wx, wy = w.partial(0), w.partial(1)
        disc = X ** 2 - Y ** 2
        cross = X * Y * 2
        field = PlanarField(disc * wy - cross * wx, disc * wx + cross * wy)
        assert not field.is_zero
        field_pts = {s.point: s.coeff for s in support(field)}
        chain = newton_chain(field_pts)
        poly_chain = newton_chain(((X ** 2 + Y ** 2) * w).support())
        assert chain == poly_chain

        _, m, n = w.degrees()
        v1 = (m + 2, k - m)
        v2 = (k - n, n + 2)
        assert set(chain) == {v1, v2}
        c1 = w.coeff(m, k - m)
        c2 = w.coeff(k - n, n)
        assert field_pts[v1] == ((k - m) * c1, (2 * k - m) * c1)
        assert field_pts[v2] == ((n - 2 * k) * c2, (n - k) * c2)


# -- compactify_lower: the terms on or below the segment of the axis hits -------


def _axis_hits(b_field):
    """(A, B) read off the full support: the lowest points (A, 0) and (0, B)."""
    points = support_points(b_field)
    a_hit = min((x for x, y in points if y == 0), default=None)
    b_hit = min((y for x, y in points if x == 0), default=None)
    return a_hit, b_hit


def _check_reference(x_field):
    """_compactified equals the per-rotated-point reference expansion as
    integer maps, in both modes."""
    coeffs, _ = vector_coefficients(x_field)
    for lower in (False, True):
        assert _compactified(coeffs, lower) == reference_compactify.compactified(coeffs, lower)


def _check_lower(x_field):
    """compactify_lower keeps exactly the full terms on or below the segment,
    with their full coefficients, and the full diagram; returns (A, B).
    Both transforms also equal the reference expansion."""
    _check_reference(x_field)
    full, lower = compactify(x_field), compactify_lower(x_field)
    a_hit, b_hit = _axis_hits(full)
    assert build_diagram(lower) == build_diagram(full)
    if a_hit is None or b_hit is None:
        assert lower == full
        return a_hit, b_hit
    for kept, whole, (ox, oy) in ((lower.p, full.p, (0, 1)), (lower.q, full.q, (1, 0))):
        below = {(i, j): c for (i, j), c in whole.terms()
                 if a_hit * (j + oy) + b_hit * (i + ox) <= a_hit * b_hit}
        assert dict(kept.terms()) == below
    return a_hit, b_hit


# Pure-y and pure-x terms to add, so that most draws have both axis hits.
_y_terms = st.dictionaries(st.integers(0, 5).map(lambda j: (0, j)), _coeffs,
                           max_size=2).map(BivarPoly)
_x_terms = st.dictionaries(st.integers(0, 5).map(lambda i: (i, 0)), _coeffs,
                           max_size=2).map(BivarPoly)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_polys, _polys, _y_terms, _x_terms)
def test_compactify_lower_on_random_fields(p, q, p_axis, q_axis):
    field = PlanarField(p + p_axis, q + q_axis)
    assume(not field.is_zero and field.degree() > 0)
    _check_lower(field)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_polys, _polys, _y_terms, _x_terms)
def test_compactify_lower_on_hamiltonian_fields(f, g, f_axis, g_axis):
    field = hamiltonian_field(f + f_axis, g + g_axis)
    assume(not field.is_zero and field.degree() > 0)
    _check_lower(field)


@pytest.mark.parametrize("p, q, hits, drops", [
    (X, Y, (None, None), False),  # no pure-y term in P, no pure-x term in Q
    (-Y, Y, (None, 4), False),  # only the y-axis hit
    (X * Y, X, (6, None), False),  # only the x-axis hit
    (-Y, X, (4, 4), False),  # the rotation: A = B, all on the segment
    (-Y - Y ** 3, X + X * Y ** 2, (8, 6), True),  # A > B
    (-Y + X ** 2 * Y, X + X ** 3, (6, 8), True),  # A < B
    (-Y - Y ** 3, X + X ** 3, (6, 6), True),  # A = B, with terms above
])
def test_compactify_lower_axis_hit_cases(p, q, hits, drops):
    field = PlanarField(p, q)
    assert _check_lower(field) == hits
    full, lower = compactify(field), compactify_lower(field)
    assert (len(lower.p) + len(lower.q) < len(full.p) + len(full.q)) == drops


def test_compactify_lower_sums_cancelling_contributions():
    # For X = (1 + x, 1), (v^2 - u^2)(u^2 + v^2) puts u^2 v^2 into b(X).p
    # twice with opposite signs.  Its support point (2, 3) lies on the
    # segment A = B = 5, so the kept monomial must still cancel to zero.
    field = PlanarField(1 + X, BivarPoly.const(1))
    assert _check_lower(field) == (5, 5)
    assert compactify(field).p.coeff(2, 2) == 0
    assert compactify_lower(field).p.coeff(2, 2) == 0


@pytest.mark.parametrize("field", [
    *(hamiltonian_field(X + Y ** n, Y) for n in (50, 200)),
    *(hamiltonian_field(Y + X ** n, X) for n in (50, 200)),
])
def test_compactified_matches_the_reference_on_shared_rotated_keys(field):
    # The support points (0, 2) and (2, 0) both rotate onto the key (2, 2).
    _check_reference(field)


@pytest.mark.parametrize("f, g", [(X + Y ** 60001, Y), (Y + X ** 60001, X)])
def test_compactify_lower_skips_the_unkept_binomials(f, g):
    # Only s near m is kept from the circle power m of x + y^60001's one far
    # point, and only s near 0 from its transpose's: the row C(m, s) must
    # start at the first kept s, or the first costs O(m^2) big-integer work.
    cert = certify(f, g)
    assert cert.verdict == "Inconclusive"
    assert cert.timings_ms["compactify"] < 500
