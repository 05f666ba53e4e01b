"""The integer stage kernels against their operator-chain definitions.

hamiltonian_field and jacobian_det compute on integer numerators and
normalise once per output polynomial; dehomogenize reads quasi-homogeneity
off the set of weighted degrees.  The references below are the definitions
written with BivarPoly operators, which normalise after every step.
certify's diagram and fields are checked against the public PlanarField
stages, and those stages are checked to pass one support map along without
forming p and q.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from monodroma import (
    BivarPoly,
    PlanarField,
    ZeroPolynomialError,
    build_diagram,
    certify,
    compactify,
    compactify_lower,
    hamiltonian_field,
    jacobian_det,
    render_ascii,
    support,
)
from monodroma import field as field_module
from monodroma.field import support_points, vector_coefficients
from monodroma.polycore import (MAX_EXPONENT, ExponentOverflowError, _square_numerators,
                                mul_monomial, mul_numerators)
from monodroma.realroots import UniPoly, dehomogenize

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


def reference_field(f: BivarPoly, g: BivarPoly) -> PlanarField:
    """X = (-(f*f_y + g*g_y), f*f_x + g*g_x)."""
    return PlanarField(-(f * f.partial(1) + g * g.partial(1)),
                       f * f.partial(0) + g * g.partial(0))


def reference_det(f: BivarPoly, g: BivarPoly) -> BivarPoly:
    """det DF = f_x*g_y - f_y*g_x."""
    return f.partial(0) * g.partial(1) - f.partial(1) * g.partial(0)


_coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=15).filter(bool)
_polys = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), _coeffs, max_size=7),
    st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)), _coeffs).map(lambda t: [t]),
    _coeffs.map(lambda c: {(0, 0): c}),
    st.just({}),
).map(BivarPoly)

_mixed = (X * Fraction(1, 2) + X ** 3 * Fraction(1, 3), Y * Fraction(2, 5) + X ** 2 * Fraction(1, 7))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_polys, _polys)
@example(*_mixed)  # mixed denominators: H is scaled to lcm(2, 3, 5, 7)^2
@example(X * Fraction(3, 4), BivarPoly.zero())  # a zero component
@example(BivarPoly.zero(), BivarPoly.zero())
@example(X ** 3 * Y * Fraction(-5, 6), Y ** 2 * Fraction(7, 9))  # single terms
@example(BivarPoly.const(Fraction(2, 3)), Y)  # a constant term
@example(X + Y, X - Y)  # the cross terms of f^2 and g^2 cancel in H
def test_kernels_equal_the_operator_chains(f, g):
    assert hamiltonian_field(f, g) == reference_field(f, g)
    assert jacobian_det(f, g) == reference_det(f, g)


def test_mixed_denominators_give_the_chain_field():
    x_field = hamiltonian_field(*_mixed)
    # f*f_y + g*g_y = (2/5)g, f*f_x + g*g_x = f*(1/2 + x^2) + (2/7)x*g.
    assert x_field.p == -(Y * Fraction(4, 25) + X ** 2 * Fraction(2, 35))
    assert x_field.q == (X * Fraction(1, 4) + X ** 3 * Fraction(2, 3) + X ** 5 * Fraction(1, 3)
                         + X * Y * Fraction(4, 35) + X ** 3 * Fraction(2, 49))


# Single-term maps near e = 2^61, each with g = y.  H's squares reach
# exponent 2e where f*f_x reached 2e - 1, so the kernel's message may name a
# number one above the chain's; the two raise on exactly the same maps.
_E = 2 ** 61


@pytest.mark.parametrize("e", [_E - 1, _E, _E + 1])
@pytest.mark.parametrize("shape", ["x^e", "x^e*y", "y^e"])
def test_exponent_guard_raises_exactly_when_the_chains_do(shape, e):
    f = {"x^e": BivarPoly.monomial(e, 0), "x^e*y": BivarPoly.monomial(e, 1),
         "y^e": BivarPoly.monomial(0, e)}[shape]
    raised = []
    for kernel, reference in ((hamiltonian_field, reference_field), (jacobian_det, reference_det)):
        try:
            expected = reference(f, Y)
        except ExponentOverflowError:
            with pytest.raises(ExponentOverflowError) as err:
                kernel(f, Y)
            raised.append(kernel)
            if kernel is hamiltonian_field:
                assert str(err.value) == f"exponent {2 * e} exceeds {MAX_EXPONENT}"
        else:
            assert kernel(f, Y) == expected
    # Only H passes the bound, and only once 2e does; det's partials never do.
    assert raised == ([hamiltonian_field] if 2 * e > MAX_EXPONENT else [])


def test_exponent_guard_messages_are_pinned():
    f = BivarPoly.monomial(_E + 1, 0)
    with pytest.raises(ExponentOverflowError) as err:
        hamiltonian_field(f, Y)
    assert str(err.value) == "exponent 4611686018427387906 exceeds 4611686018427387904"
    with pytest.raises(ExponentOverflowError) as err:
        reference_field(f, Y)
    assert str(err.value) == "exponent 4611686018427387905 exceeds 4611686018427387904"
    # jacobian_det multiplies the same partials as its chain, in the same
    # order: here f_y * g_x = x^e * e*x^(e - 1).
    for det in (jacobian_det, reference_det):
        with pytest.raises(ExponentOverflowError) as err:
            det(BivarPoly.monomial(_E + 1, 1), f)
        assert str(err.value) == "exponent 4611686018427387905 exceeds 4611686018427387904"


# -- certify's route: one support map from X to the diagram ---------------------


def _without_constant(p: BivarPoly) -> BivarPoly:
    return p - p.coeff(0, 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_polys, _polys)
@example(*_mixed)
@example(X * Fraction(3, 4), BivarPoly.zero())
@example(BivarPoly.zero(), Y ** 2 * Fraction(-2, 9))
@example(BivarPoly.zero(), BivarPoly.zero())
@example(X ** 3 * Y * Fraction(-5, 6), Y ** 2 * Fraction(7, 9))
@example(BivarPoly.const(Fraction(2, 3)), BivarPoly.zero())  # the zero map once its constant goes
@example(X + Y, X - Y)
@example(X + Y ** 5, Y)  # both axis hits: the lower terms only
def test_support_route_equals_the_field_stages(f, g):
    # certify runs the stages on the map with its constants removed, and on
    # its sum with the identity, whose determinant is rarely zero.
    f, g = _without_constant(f), _without_constant(g)
    for f, g in ((f, g), (f + X, g + Y)):
        cert = certify(f, g, assume_det=True)
        if cert.diagram is None:  # the determinant is identically zero
            assert jacobian_det(f, g).is_zero
            assert cert.compactified is None
            continue
        x_field = hamiltonian_field(cert.f, cert.g)
        assert cert.diagram == build_diagram(compactify_lower(x_field))
        assert cert.compactified == compactify(x_field)


def test_diagram_stages_leave_b_unformed(monkeypatch):
    """monodroma diagram's stages hand one support map from h to the picture:
    b(X)'s p and q are formed on their first read, both at once, and never
    again."""
    f, g = X + (Y + X ** 2) ** 3, Y + X ** 2  # the full_field sweep at k = 3
    reference = compactify(reference_field(f, g))
    expected = reference.p, reference.q
    formed = []
    normalise = field_module._normalise
    monkeypatch.setattr(field_module, "_normalise",
                        lambda num, den: formed.append(den) or normalise(num, den))
    b_field = compactify(hamiltonian_field(f, g))
    points = support_points(b_field)
    picture = render_ascii(build_diagram(b_field), points)
    assert "V" in picture
    assert [sp.point for sp in support(b_field)] == sorted(points)  # the benchmark's route
    assert formed == []
    assert (b_field.p, b_field.q) == expected
    assert b_field.p == expected[0]
    assert len(formed) == 2


def test_components_give_their_map_once(monkeypatch):
    """A PlanarField(p, q) reads its map off p and q when it is built and
    keeps it: monodroma monodromy calls build_diagram, then support_points,
    and neither reads p or q again."""
    p, q = Y ** 5 + X ** 2 * Y ** 3 * 3, X * Y ** 4 * 4 + X ** 7
    x_field = PlanarField(p, q)
    numerators = BivarPoly.numerators

    def unread(poly):
        if poly is p or poly is q:
            raise AssertionError("p and q read again")
        return numerators(poly)  # the edge Hamiltonians' are read for beta

    monkeypatch.setattr(BivarPoly, "numerators", unread)
    dia = build_diagram(x_field)
    coeffs, den = vector_coefficients(x_field)
    assert support_points(x_field) == set(coeffs) == {(0, 6), (2, 4), (8, 0)}
    assert vector_coefficients(x_field)[0] is coeffs
    assert dia.vertex_points() == [(0, 6), (2, 4), (8, 0)]
    assert den > 0 and all(a or b for a, b in coeffs.values())


_numerators = st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                              st.integers(-10 ** 6, 10 ** 6), max_size=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_numerators)
@example({})
@example({(3, 1): 0})
@example({(0, 0): 5, (1, 0): -2, (0, 1): 3})
@example({(1, 0): 1, (0, 1): 1, (1, 1): 0})
def test_square_kernel_equals_the_product_kernel(a):
    # Equal as dicts, zero entries where cross terms cancel included.
    assert _square_numerators(a) == mul_numerators(a, a)


@pytest.mark.parametrize("e", [_E - 1, _E, _E + 1])
@pytest.mark.parametrize("key", ["x^e", "x^e*y", "y^e", "x^e*y^e", "x^e + y"])
def test_square_kernel_raises_where_the_product_kernel_does(key, e):
    a = {"x^e": {(e, 0): 3}, "x^e*y": {(e, 1): -1}, "y^e": {(0, e): 2},
         "x^e*y^e": {(e, e): 1}, "x^e + y": {(e, 0): 1, (0, 1): 1}}[key]
    try:
        expected = mul_numerators(a, a)
    except ExponentOverflowError as err:
        with pytest.raises(ExponentOverflowError) as got:
            _square_numerators(a)
        assert str(got.value) == str(err) == f"exponent {2 * e} exceeds {MAX_EXPONENT}"
    else:
        assert 2 * e <= MAX_EXPONENT
        assert _square_numerators(a) == expected


_exponent = st.one_of(st.integers(0, 3), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(-3, 3), _exponent, _exponent, st.integers(-3, 3), _exponent, _exponent)
@example(1, MAX_EXPONENT, MAX_EXPONENT, 1, 1, 2)  # x and y both pass the cap: x is named
@example(0, MAX_EXPONENT, 0, 5, 1, 0)  # an empty side is not checked
def test_monomial_kernel_equals_the_product_kernel(c, a, b, n, i, j):
    # c = 0 stands for the empty numerators on either side and in the product.
    def numerators(c, a, b):
        return {(a, b): c} if c else {}

    try:
        expected = mul_numerators(numerators(c, a, b), numerators(n, i, j))
    except ExponentOverflowError as err:
        with pytest.raises(ExponentOverflowError) as got:
            mul_monomial(c, a, b, n, i, j)
        assert str(got.value) == str(err)
    else:
        assert numerators(*mul_monomial(c, a, b, n, i, j)) == expected


# -- dehomogenize -----------------------------------------------------------------

_types = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 1)])
_lambda = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda cs: cs[0] and cs[-1])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_lambda, st.integers(0, 3), st.integers(0, 3), _types, _coeffs)
@example([1], 0, 0, (1, 1), Fraction(1))  # a constant term
@example([4], 2, 1, (2, 3), Fraction(-3, 5))  # a single term
def test_dehomogenize_inverts_the_binary_form(g, a, b, t, scale):
    # h = u^a v^b * sum_k g_k u^(t2 (m - k)) v^(t1 k), m = deg g: the content
    # is u^a v^b exactly, so dehomogenize gives back g up to a positive factor.
    t1, t2 = t
    m = len(g) - 1
    h = BivarPoly({(a + t2 * (m - k), b + t1 * k): c * scale for k, c in enumerate(g)})
    sign = 1 if scale > 0 else -1
    assert dehomogenize(h, t) == UniPoly([sign * c for c in g])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_polys, _types)
@example(X + Y ** 2, (1, 1))
@example(X * Y ** 2 * 3 + X ** 3, (2, 1))  # degrees 4 and 6
def test_dehomogenize_refuses_what_quasi_degree_refuses(h, t):
    if h.is_zero:
        with pytest.raises(ZeroPolynomialError) as err:
            dehomogenize(h, t)
        assert str(err.value) == "factor test on the zero polynomial"
        return
    try:
        h.quasi_degree(t)
    except ValueError as expected:
        with pytest.raises(ValueError) as err:
            dehomogenize(h, t)
        assert str(err.value) == str(expected) == f"polynomial is not quasi-homogeneous of type {t}"
    else:
        assert not dehomogenize(h, t).is_zero
