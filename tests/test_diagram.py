"""Newton diagram construction: chain, edges, splittings, and betas."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from monodroma import BivarPoly, PlanarField, build_diagram, hamiltonian_field, support
from monodroma.diagram import edge_hamiltonian, inner_beta, newton_chain
from monodroma.field import SplitField, split, vector_coefficients
from monodroma.oracle import brute_force_diagram

from genmaps import example1_map, lattice_on_line, rand_quasi_field, rand_type

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


def rand_points(rng, count=12, bound=15):
    return [(rng.randint(0, bound), rng.randint(0, bound)) for _ in range(count)]


def test_newton_chain_examples():
    assert newton_chain([(0, 2), (2, 0), (2, 2)]) == [(0, 2), (2, 0)]
    assert newton_chain([(3, 4)]) == [(3, 4)]
    assert newton_chain([(0, 4), (2, 2), (4, 0)]) == [(0, 4), (4, 0)]  # collinear middle
    assert newton_chain([(0, 4), (1, 1), (4, 0)]) == [(0, 4), (1, 1), (4, 0)]
    assert newton_chain([(1, 3), (1, 5), (3, 1), (5, 1)]) == [(1, 3), (3, 1)]


def test_newton_chain_empty_rejected():
    with pytest.raises(ValueError):
        newton_chain([])


def test_newton_chain_matches_brute_force_oracle():
    rng = random.Random(501)
    for _ in range(300):
        pts = rand_points(rng, count=rng.randint(1, 16), bound=20)
        assert newton_chain(pts) == brute_force_diagram(pts)
    # Columns and rows: several points sharing an x or a y coordinate.
    rng = random.Random(506)
    for _ in range(300):
        pts = rand_points(rng, count=rng.randint(0, 6), bound=12)
        for _ in range(rng.randint(1, 3)):
            c = rng.randint(0, 12)
            line = [(c, rng.randint(0, 12)) for _ in range(rng.randint(2, 5))]
            pts += line if rng.random() < 0.5 else [(y, x) for x, y in line]
        assert newton_chain(pts) == brute_force_diagram(pts)


def test_collinear_interior_point_never_a_vertex():
    # Three support points on one line: the middle one is not a vertex.
    rng = random.Random(502)
    for _ in range(200):
        t1, t2 = rand_type(rng, bound=4)
        x0 = rng.randint(0, 6)
        y0 = rng.randint(0, 6)
        steps = sorted(rng.sample(range(0, 12), 3))
        pts = [(x0 + t2 * s, y0 + t1 * (steps[-1] - s)) for s in steps]
        middle = pts[1]
        extra = rand_points(rng, count=rng.randint(0, 8))
        chain = newton_chain(pts + extra)
        assert middle not in chain


def test_dominated_point_never_a_vertex():
    rng = random.Random(503)
    for _ in range(200):
        pts = rand_points(rng, count=rng.randint(1, 10))
        base = rng.choice(pts)
        shifted = (base[0] + rng.randint(0, 3), base[1] + rng.randint(0, 3))
        if shifted == base:
            continue
        chain = newton_chain(pts + [shifted])
        assert shifted not in chain


def test_vertices_come_from_piece_endpoints():
    # Summing quasi-homogeneous fields: every diagram vertex of the sum is an
    # endpoint of the support segment of one of the pieces.
    rng = random.Random(504)
    for _ in range(200):
        pieces = []
        p_total = BivarPoly.zero()
        q_total = BivarPoly.zero()
        for _ in range(rng.randint(1, 4)):
            t = rand_type(rng, bound=3)
            k = rng.randint(1, 8)
            piece = rand_quasi_field(rng, t, k)
            pieces.append(piece)
            p_total = p_total + piece.p
            q_total = q_total + piece.q
        total = PlanarField(p_total, q_total)
        if total.is_zero:
            continue
        endpoints = set()
        for piece in pieces:
            pts = [s.point for s in support(piece)]
            endpoints.add(min(pts))
            endpoints.add(max(pts))
        for vertex in build_diagram(total).vertex_points():
            assert vertex in endpoints


def fixture_diagram():
    f, g = example1_map([Fraction(1), Fraction(1)], [Fraction(1)])
    from monodroma import compactify
    return build_diagram(compactify(hamiltonian_field(f, g)))


def test_fixture_vertices_edges_and_betas():
    dia = fixture_diagram()
    assert dia.vertex_points() == [(0, 12), (6, 2), (8, 0)]
    kinds = {v.point: v.kind for v in dia.vertices}
    assert kinds == {(0, 12): "exterior", (6, 2): "inner", (8, 0): "exterior"}
    bounded = [e for e in dia.edges if e.bounded]
    assert [e.t for e in bounded] == [(5, 3), (1, 1)]
    assert [e.line_value for e in bounded] == [36, 8]
    u, v = X, Y
    expected_upper = (u ** 6 + v ** 10) * v ** 2 * Fraction(1, 12)
    expected_lower = (u ** 2 + v ** 2) * u ** 6 * Fraction(3, 8)
    assert bounded[0].h == expected_upper
    assert bounded[1].h == expected_lower
    assert dict(dia.inner_betas) == {(6, 2): Fraction(1, 32)}
    assert dia.beta_undefined == ()


def test_edges_are_sorted_with_increasing_exponent():
    dia = fixture_diagram()
    exps = [e.exponent for e in dia.edges if e.exponent is not None]
    assert exps == sorted(exps)
    for e in dia.edges:
        assert gcd(e.t[0], e.t[1]) == 1
        if e.bounded:
            for vert in e.endpoints:
                x, y = vert.point
                assert e.t[0] * x + e.t[1] * y == e.line_value
        assert e.r == e.line_value - e.t[0] - e.t[1]


def test_edge_lines_support_everything():
    # Every support point lies on or above every edge line, and every vertex
    # carries the support's coefficient at its point.
    rng = random.Random(505)
    from genmaps import rand_any_map
    from monodroma import compactify
    checked = 0
    while checked < 60:
        f, g = rand_any_map(rng, max_degree=3)
        field = hamiltonian_field(f, g)
        if field.is_zero:
            continue
        checked += 1
        b_field = compactify(field)
        dia = build_diagram(b_field)
        coeffs = {s.point: s.coeff for s in support(b_field)}
        pts = list(coeffs)
        for e in dia.edges:
            assert all(e.t[0] * x + e.t[1] * y >= e.line_value for x, y in pts)
        for v in dia.vertices:
            assert v.point in coeffs and v.coeff == coeffs[v.point]


def test_unbounded_rays_added_off_axis():
    # Support away from both axes: the chain is completed by two rays.
    field = PlanarField(X * Y * 2, -X * Y)  # support {(1, 2): a=2, (2, 1): b=-1}
    dia = build_diagram(field)
    assert dia.vertex_points() == [(1, 2), (2, 1)]
    types = [e.t for e in dia.edges]
    assert types[0] == (1, 0) and not dia.edges[0].bounded
    assert types[-1] == (0, 1) and not dia.edges[-1].bounded
    assert [e.t for e in dia.edges if e.bounded] == [(1, 1)]


def test_no_rays_when_chain_touches_axes():
    dia = fixture_diagram()
    assert all(e.bounded for e in dia.edges)


def test_edge_hamiltonian_error_when_line_misses_support():
    field = PlanarField(-Y, X)
    with pytest.raises(ValueError) as err:
        edge_hamiltonian(*vector_coefficients(field), (1, 1), 7)
    assert "misses the support" in str(err.value)


_polys = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                        st.fractions(min_value=-9, max_value=9, max_denominator=7),
                        max_size=5).map(BivarPoly)
_types = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda t: gcd(*t) == 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_polys, _polys, _types)
# Support points (0, 2) and (2, 0) on the axes: the rays meet them at w = 0.
@example(-Y, X, (1, 0))
@example(-Y, X, (0, 1))
@example(Y ** 3 - 2 + X * Y, X ** 2 + Fraction(1, 3) + Y ** 2 * 5, (1, 1))
def test_edge_hamiltonian_splits_the_restricted_field(p, q, t):
    """On every line t1*x + t2*y = w, hit or missed, the split read from the
    support map equals the split of the field restricted the old way: P's
    terms of quasi-degree w - t2 and Q's of quasi-degree w - t1."""
    field = PlanarField(p, q)
    assume(not field.is_zero)
    t1, t2 = t
    coeffs, den = vector_coefficients(field)
    top = max(t1 * x + t2 * y for x, y in coeffs)
    real = BivarPoly.from_numerators

    def positive_den_only(num, den):
        assert den > 0, f"from_numerators reached with denominator {den}"
        return real(num, den)

    def outcome(call, *args):
        try:
            return call(*args)
        except ValueError as err:
            return str(err)

    with mock.patch.object(BivarPoly, "from_numerators", staticmethod(positive_den_only)):
        for w in range(-2, top + 3):
            part = PlanarField(
                BivarPoly({(i, j): c for (i, j), c in p.terms() if t1 * i + t2 * j == w - t2}),
                BivarPoly({(i, j): c for (i, j), c in q.terms() if t1 * i + t2 * j == w - t1}))
            want = (f"line {t1}*x + {t2}*y = {w} misses the support of the field" if part.is_zero
                    else outcome(split, part, w - t1 - t2, t))
            got = outcome(edge_hamiltonian, coeffs, den, t, w)
            rebuilt = got.reconstruct() if isinstance(got, SplitField) else part
            assert (got, rebuilt) == (want, part)


def test_inner_beta_errors():
    dia = fixture_diagram()
    assert inner_beta(dia, (6, 2)) == Fraction(1, 32)
    with pytest.raises(ValueError):
        inner_beta(dia, (0, 12))  # exterior vertex
    with pytest.raises(ValueError):
        inner_beta(dia, (3, 3))  # not a vertex


def test_beta_undefined_next_to_unbounded_edge():
    field = PlanarField(X * Y * 2, -X * Y)
    dia = build_diagram(field)
    reasons = dict(dia.beta_undefined)
    assert set(reasons) == {(1, 2), (2, 1)}
    assert all("unbounded" in reason for reason in reasons.values())
    with pytest.raises(ValueError):
        inner_beta(dia, (1, 2))


def test_single_point_diagram():
    field = PlanarField(X, Y)  # support is the single point (1, 1)
    dia = build_diagram(field)
    assert dia.vertex_points() == [(1, 1)]
    assert [e.t for e in dia.edges] == [(1, 0), (0, 1)]
    assert not any(e.bounded for e in dia.edges)
    assert dia.vertices[0].kind == "inner"


def test_axis_support_has_no_spurious_rays():
    field = PlanarField(-Y, X)  # support {(0, 2), (2, 0)}
    dia = build_diagram(field)
    assert dia.vertex_points() == [(0, 2), (2, 0)]
    assert [e.bounded for e in dia.edges] == [True]
