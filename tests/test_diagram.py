"""Newton diagram construction: chain, edges, splittings, and betas."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from monodroma import BivarPoly, PlanarField, build_diagram, hamiltonian_field, render_ascii, support
from monodroma.diagram import edge_hamiltonian, inner_beta, newton_chain
from monodroma.field import _field_from_support, support_points, vector_coefficients
from monodroma.oracle import brute_force_diagram

from genmaps import example1_map, lattice_on_line, rand_quasi_field, rand_quasi_poly, rand_type

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


def reconstruct(h, mu, t):
    """X_h + mu * (t1*x, t2*y), the field that a split (h, mu) of type t stands for."""
    t1, t2 = t
    return PlanarField(-h.partial(1) + mu * X * t1, h.partial(0) + mu * Y * t2)


def split_quasi_field(field, k, t):
    """edge_hamiltonian on the one line t1*x + t2*y = k + t1 + t2 of a field that is
    quasi-homogeneous of type t and degree k."""
    return edge_hamiltonian(*vector_coefficients(field), t, k + t[0] + t[1])


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


def test_edge_hamiltonian_error_on_non_coprime_type():
    with pytest.raises(ValueError, match=r"quasi-homogeneity type \(2, 4\) is not coprime"):
        edge_hamiltonian(*vector_coefficients(PlanarField(X, Y)), (2, 4), 6)


def test_edge_hamiltonian_error_when_line_value_is_zero():
    # The vertical ray's line x = 0 meets the support point (0, 2) of P = -y.
    with pytest.raises(ValueError, match=r"splitting is undefined when k \+ t1 \+ t2 = 0"):
        edge_hamiltonian(*vector_coefficients(PlanarField(-Y, X)), (1, 0), 0)


def test_edge_hamiltonian_reconstructs_quasi_homogeneous_field():
    # The last 40 draws take the axis types (1, 0) and (0, 1) of the
    # unbounded rays in build_diagram.
    rng = random.Random(403)
    for n in range(240):
        t = rand_type(rng, bound=4) if n < 200 else ((1, 0), (0, 1))[n % 2]
        k = rng.randint(1, 9)
        field = rand_quasi_field(rng, t, k)
        assert reconstruct(*split_quasi_field(field, k, t), t) == field


def test_edge_hamiltonian_euler_identity():
    # t1*x*h_x + t2*y*h_y = (k + t1 + t2) * h for the split Hamiltonian.
    rng = random.Random(404)
    for _ in range(100):
        t = rand_type(rng, bound=3)
        k = rng.randint(1, 7)
        h, mu = split_quasi_field(rand_quasi_field(rng, t, k), k, t)
        lhs = X * h.partial(0) * t[0] + Y * h.partial(1) * t[1]
        assert lhs == h * (k + t[0] + t[1])
        if not mu.is_zero:
            assert len(mu.quasi_components(t)) <= 1
            assert mu.quasi_degree(t) == k


def test_edge_hamiltonian_of_hamiltonian_field_is_conservative():
    # For a field that is already Hamiltonian, mu vanishes and h generates it.
    rng = random.Random(405)
    for _ in range(50):
        t = rand_type(rng, bound=3)
        weight = rng.randint(2, 8)
        value = weight + t[0] + t[1]
        if not lattice_on_line(t, value):
            continue
        h = rand_quasi_poly(rng, t, value)
        field = PlanarField(-h.partial(1), h.partial(0))
        if field.is_zero:
            continue
        assert split_quasi_field(field, weight, t) == (h, BivarPoly.zero())


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
    support map rebuilds the field restricted the old way: P's terms of
    quasi-degree w - t2 and Q's of quasi-degree w - t1."""
    field = PlanarField(p, q)
    assume(not field.is_zero)
    t1, t2 = t
    coeffs, den = vector_coefficients(field)
    top = max(t1 * x + t2 * y for x, y in coeffs)
    real = BivarPoly.from_numerators

    def positive_den_only(num, den):
        assert den > 0, f"from_numerators reached with denominator {den}"
        return real(num, den)

    with mock.patch.object(BivarPoly, "from_numerators", staticmethod(positive_den_only)):
        for w in range(-2, top + 3):
            part = PlanarField(
                BivarPoly({(i, j): c for (i, j), c in p.terms() if t1 * i + t2 * j == w - t2}),
                BivarPoly({(i, j): c for (i, j), c in q.terms() if t1 * i + t2 * j == w - t1}))
            want = (f"line {t1}*x + {t2}*y = {w} misses the support of the field" if part.is_zero
                    else "splitting is undefined when k + t1 + t2 = 0" if w == 0 else part)
            try:
                got = reconstruct(*edge_hamiltonian(coeffs, den, t, w), t)
            except ValueError as err:
                got = str(err)
            assert got == want


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


# Pure-y terms of P and pure-x terms of Q, the ones that reach the axes.
_y_terms = st.dictionaries(st.integers(0, 6).map(lambda j: (0, j)), st.integers(-3, 3),
                           max_size=2).map(BivarPoly)
_x_terms = st.dictionaries(st.integers(0, 6).map(lambda i: (i, 0)), st.integers(-3, 3),
                           max_size=2).map(BivarPoly)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_polys, _polys, _y_terms, _x_terms)
@example(-Y, X, BivarPoly.zero(), BivarPoly.zero())
def test_two_exterior_vertices_have_the_shape_condition_b_reads(p, q, p_axis, q_axis):
    # a comes from P at (x, y - 1) and b from Q at (x - 1, y): a support point
    # on x = 0 holds (a, 0) and one on y = 0 holds (0, b), the origin is never
    # one, and a support point's coefficient is nonzero.
    field = PlanarField(p + p_axis, q + q_axis)
    assume(not field.is_zero)
    vertices = build_diagram(field).vertices
    exterior = [v for v in vertices if v.kind == "exterior"]
    assert len(exterior) <= 2
    if len(exterior) == 2:
        first, last = exterior
        assert (first, last) == (vertices[0], vertices[-1])
        assert first.point[0] == 0 and first.coeff[1] == 0 and first.coeff[0] != 0
        assert last.point[1] == 0 and last.coeff[0] == 0 and last.coeff[1] != 0


@st.composite
def _diagram_fields(draw):
    """A field on the grid 0..12 around a planted segment of type t: lattice
    points of the segment, including both ends, points on the column and the
    row through its ends (the rays' lines, the axes when an offset is 0), and
    random points, kept on or above the segment's line unless hull is off."""
    t1, t2 = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 2)]))
    x0, y0 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    s = draw(st.integers(1, min((12 - y0) // t1, (12 - x0) // t2)))
    top, w = y0 + s * t1, t1 * x0 + t2 * (y0 + s * t1)
    inner = draw(st.sets(st.integers(1, s - 1), max_size=s - 1)) if s > 1 else set()
    points = {(x0 + k * t2, top - k * t1) for k in {0, s} | inner}
    points |= {(x0, y) for y in draw(st.sets(st.integers(top, 12), max_size=4))}
    points |= {(x, y0) for x in draw(st.sets(st.integers(x0 + s * t2, 12), max_size=4))}
    hull = draw(st.booleans())
    points |= {(x, y) for x, y in draw(st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                                               max_size=12))
               if not hull or (x >= x0 and y >= y0 and t1 * x + t2 * y >= w)}
    points.discard((0, 0))
    coeff = st.integers(-3, 3)
    p, q = {}, {}
    for x, y in sorted(points):  # a from P at (x, y - 1), b from Q at (x - 1, y)
        a = draw(coeff) if y else 0
        b = draw(coeff) if x else 0
        if a == b == 0:
            a, b = (1, 0) if y else (0, 1)
        if a:
            p[x, y - 1] = a
        if b:
            q[x - 1, y] = b
    return PlanarField(BivarPoly(p), BivarPoly(q))


def _reference_picture(diagram, points):
    """The lattice picture of render_ascii, cell by cell; [] past the size limit."""
    vertex_points = set(diagram.vertex_points())
    extra = set(points) - vertex_points
    xmax = max(x for x, _ in vertex_points | extra)
    ymax = max(y for _, y in vertex_points | extra)
    if xmax > 48 or ymax > 48:
        return []
    width = len(str(ymax))
    lines = []
    for y in range(ymax, -1, -1):
        row = ["V" if (x, y) in vertex_points else "*" if (x, y) in extra else "."
               for x in range(xmax + 1)]
        lines.append(f"{y:>{width}} | " + " ".join(row))
    lines.append(" " * width + " +" + "-" * (2 * xmax + 2))
    lines.append(" " * width + "   " + " ".join(str(x)[-1] if x % 2 == 0 else " "
                                                for x in range(xmax + 1)))
    return lines + [""]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_diagram_fields())
@example(PlanarField(-Y, X))
@example(PlanarField(X * Y * 2, -X * Y))
def test_edges_and_picture_match_the_full_support_scan(field):
    """Each edge's split equals edge_hamiltonian on the whole support map, and
    render_ascii draws the picture the cell-by-cell reference draws."""
    coeffs, den = vector_coefficients(field)
    dia = build_diagram(field)
    for e in dia.edges:
        assert (e.h, e.mu) == edge_hamiltonian(coeffs, den, e.t, e.line_value), e.t
    points = support_points(field)
    reference = _reference_picture(dia, points)
    lines = render_ascii(dia, points).split("\n")
    assert lines[:len(reference)] == reference
    assert lines[len(reference)] == "vertices:"


class _CountingMap(dict):
    """A support map that counts membership tests."""

    lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


@pytest.mark.parametrize("n", [12, 10 ** 6])
def test_bounded_edge_lookups_stay_within_the_support(n):
    """A bounded edge is split from its segment's lattice points, or from the
    map itself when the map is the smaller: the edge of (0, n) and (n, 0) holds
    n + 1 lattice points, 13 or 10^6 + 1, and the support 18 points."""
    block = BivarPoly({(n + i, n + j): 1 for i in range(4) for j in range(4)})  # above the edge
    field = PlanarField(-BivarPoly.monomial(0, n - 1) + block, BivarPoly.monomial(n - 1, 0))
    coeffs, den = vector_coefficients(field)
    counting = _CountingMap(coeffs)
    dia = build_diagram(_field_from_support(counting, den))
    assert dia.vertex_points() == [(0, n), (n, 0)]
    assert counting.lookups <= len(coeffs)
    (e,) = dia.edges
    assert (e.h, e.mu) == edge_hamiltonian(coeffs, den, (1, 1), n)
