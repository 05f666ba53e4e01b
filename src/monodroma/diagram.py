"""Newton diagrams of planar vector fields.

The diagram is the polygonal part of the boundary of the convex hull of
supp(X) + (first quadrant).  Vertices are listed along the chain starting
next to the y-axis: x strictly increases, y strictly decreases, and edge
exponents t2/t1 strictly increase.  Each edge carries the splitting
(h, mu) of the quasi-homogeneous restriction of the field to the edge's
supporting line; the h of the two edges meeting at an inner vertex define
the vertex invariant beta.

A field that is quasi-homogeneous of type t and degree k splits uniquely
into the Hamiltonian field of h plus mu * (t1*x, t2*y), point by point:
with w = k + t1 + t2, each point (x, y) of its vector-coefficient map
(field.vector_coefficients), holding (a, b), gives (t1*b - t2*a)/w to h at
x^x y^y and (x*a + y*b)/w to mu at x^(x-1) y^(y-1).  edge_hamiltonian
applies this formula to the points of a map that lie on an edge's line
t1*x + t2*y = w.

build_diagram reads the diagram's one map in one pass plus a sort of its
distinct x coordinates.  The chain comes from the lowest point of each
column (newton_chain).  Each bounded edge from va to vb is split from the
lattice points of its own segment, va + k*(t2, -t1) for k = 0..g with g the
gcd of the coordinate differences, looked up in the map; when the map has
fewer points than the segment, the whole map goes to edge_hamiltonian
instead.  The segment holds every support point on the edge's line: w is
the minimum of t1*x + t2*y over the support, and a support point on the
line beyond vb (or before va) would make vb (or va) a non-strict turn of
the chain, which keeps strict turns only.  The two axis rays are split
from the whole map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .polycore import BivarPoly, QuasiType, quasi_type
from .field import PlanarField, SupportMap, vector_coefficients
# Not called here: tracers wrap the name monodroma.diagram.support (bench/spans.py).
from .field import support  # noqa: F401


def newton_chain(points: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Vertices of the Newton diagram of a set of lattice points.

    Only the lowest point of each column can be a vertex, so one pass keeps
    the lowest y of each x, and only the distinct x are sorted.  Of these
    column minima, in increasing x, a point survives exactly when its y is
    strictly below that of the last survivor: the others are
    Pareto-dominated.  The survivors form a staircase on which a
    monotone-chain sweep keeps the strictly convex turns.  A single vertex
    is a valid (degenerate) chain.
    """
    lowest: dict[int, int] = {}
    get = lowest.get
    for x, y in points:
        low = get(x)
        if low is None or y < low:
            lowest[x] = y
    if not lowest:
        raise ValueError("empty support")
    chain: list[tuple[int, int]] = []
    for x in sorted(lowest):
        y = lowest[x]
        if chain and y >= chain[-1][1]:  # chain[-1] is the last survivor
            continue
        while len(chain) >= 2:
            ax, ay = chain[-2]
            bx, by = chain[-1]
            if (bx - ax) * (y - by) - (by - ay) * (x - bx) <= 0:
                chain.pop()
            else:
                break
        chain.append((x, y))
    return chain


@dataclass(frozen=True)
class Vertex:
    """Diagram vertex with its vector coefficient (a, b).

    The exponent is b/a, with None standing for infinity (a = 0).
    Vertices on a coordinate axis are exterior, all others inner.
    """

    point: tuple[int, int]
    coeff: tuple[Fraction, Fraction]
    kind: str  # "exterior" | "inner"

    @property
    def exponent(self) -> Optional[Fraction]:
        a, b = self.coeff
        return None if a == 0 else b / a


@dataclass(frozen=True)
class Edge:
    """Diagram edge with the splitting of the field along its line.

    Bounded edges join two vertices (given with decreasing y); unbounded
    edges are the vertical ray (type (1, 0), exponent 0) and the horizontal
    ray (type (0, 1), exponent None, i.e. infinity) when those rays do not
    lie on a coordinate axis.  line_value is t1*x + t2*y on the edge and
    r = line_value - t1 - t2 is the quasi-degree of the restricted field.
    """

    t: QuasiType
    bounded: bool
    endpoints: tuple[Vertex, ...]
    line_value: int
    r: int
    h: BivarPoly
    mu: BivarPoly

    @property
    def exponent(self) -> Optional[Fraction]:
        t1, t2 = self.t
        return None if t1 == 0 else Fraction(t2, t1)


@dataclass(frozen=True)
class NewtonDiagram:
    """Vertex chain, edges in exponent order, and inner-vertex betas.

    ``beta_undefined`` lists inner vertices where beta has no value, with
    the reason (adjacent unbounded edge, or a null edge Hamiltonian).
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    inner_betas: tuple[tuple[tuple[int, int], Fraction], ...]
    beta_undefined: tuple[tuple[tuple[int, int], str], ...]

    def vertex_points(self) -> list[tuple[int, int]]:
        return [v.point for v in self.vertices]


def edge_hamiltonian(coeffs: SupportMap, den: int, t: QuasiType,
                     line_value: int) -> tuple[BivarPoly, BivarPoly]:
    """(h, mu): the split of the module docstring, over den*w, of the points of the
    diagram's one vector_coefficients map (coeffs, den) on the line t1*x + t2*y = w,
    w = line_value, all others ignored.  Errors when the line misses the support,
    then when w = 0; ExponentOverflowError when h would hold an exponent past
    MAX_EXPONENT, which a support coordinate can be though the field's terms are not."""
    t1, t2 = quasi_type(*t)
    on_line = [(x, y, a, b) for (x, y), (a, b) in coeffs.items() if t1 * x + t2 * y == line_value]
    if not on_line:
        raise ValueError(f"line {t1}*x + {t2}*y = {line_value} misses the support of the field")
    if line_value == 0:
        raise ValueError("splitting is undefined when k + t1 + t2 = 0")
    h = {(x, y): t1 * b - t2 * a for x, y, a, b in on_line}
    mu = {(x - 1, y - 1): x * a + y * b for x, y, a, b in on_line if x * a + y * b}
    return (BivarPoly.from_numerators(h, den * line_value),
            BivarPoly.from_numerators(mu, den * line_value))


def _edge_type(a: tuple[int, int], b: tuple[int, int]) -> QuasiType:
    dx = b[0] - a[0]
    dy = a[1] - b[1]
    g = gcd(dx, dy)
    return quasi_type(dy // g, dx // g)


def _segment_map(coeffs: SupportMap, a: tuple[int, int], b: tuple[int, int],
                 t: QuasiType) -> SupportMap:
    """The part of the map on the segment from a to b of type t: its lattice points
    a + k*(t2, -t1) looked up, or the whole map, which edge_hamiltonian scans,
    when the map has fewer points than the segment."""
    (x0, y0), (t1, t2) = a, t
    steps = (b[0] - x0) // t2 + 1
    if steps > len(coeffs):
        return coeffs
    points = ((x0 + k * t2, y0 - k * t1) for k in range(steps))
    return {pt: coeffs[pt] for pt in points if pt in coeffs}


def _highest_coeff(h: BivarPoly, axis: int) -> Fraction:
    """Coefficient of h at its key of largest x (axis 0) or y (axis 1) exponent."""
    num, den = h.numerators()
    return Fraction(num[max(num, key=lambda key: key[axis])], den)


def build_diagram(x_field: PlanarField) -> NewtonDiagram:
    """Newton diagram of a nonzero field, with edge splittings and betas, read
    off its support map at whatever scaling the field stores."""
    coeffs, den = vector_coefficients(x_field)
    vertices = tuple(Vertex(pt, (Fraction(coeffs[pt][0], den), Fraction(coeffs[pt][1], den)),
                            "exterior" if 0 in pt else "inner")
                     for pt in newton_chain(coeffs))

    def edge(t: QuasiType, ends: tuple[Vertex, ...], on_edge: SupportMap) -> Edge:
        line_value = t[0] * ends[0].point[0] + t[1] * ends[0].point[1]
        h, mu = edge_hamiltonian(on_edge, den, t, line_value)
        return Edge(t, len(ends) == 2, ends, line_value, line_value - t[0] - t[1], h, mu)

    bounded = []
    for va, vb in zip(vertices, vertices[1:]):
        t = _edge_type(va.point, vb.point)
        bounded.append(edge(t, (va, vb), _segment_map(coeffs, va.point, vb.point, t)))
    first, last = vertices[0], vertices[-1]
    edges = ([edge((1, 0), (first,), coeffs)] if first.point[0] > 0 else []) + bounded
    if last.point[1] > 0:
        edges.append(edge((0, 1), (last,), coeffs))

    betas: list[tuple[tuple[int, int], Fraction]] = []
    undefined: list[tuple[tuple[int, int], str]] = []
    for idx, vertex in enumerate(vertices):
        if vertex.kind != "inner":
            continue
        if idx == 0 or idx == len(vertices) - 1:
            undefined.append((vertex.point, "adjacent edge is unbounded"))
            continue
        upper, lower = bounded[idx - 1], bounded[idx]
        if upper.h.is_zero or lower.h.is_zero:
            undefined.append((vertex.point, "adjacent edge Hamiltonian is null"))
            continue
        betas.append((vertex.point, _highest_coeff(upper.h, 0) * _highest_coeff(lower.h, 1)))

    return NewtonDiagram(vertices, tuple(edges), tuple(betas), tuple(undefined))


def inner_beta(diagram: NewtonDiagram, point: tuple[int, int]) -> Fraction:
    """Beta of an inner vertex: the product of the highest-x coefficient of
    the upper adjacent edge Hamiltonian and the highest-y coefficient of the
    lower one.  Errors when the vertex is missing, exterior, or beta is
    undefined there.
    """
    for pt, beta in diagram.inner_betas:
        if pt == point:
            return beta
    for pt, reason in diagram.beta_undefined:
        if pt == point:
            raise ValueError(f"beta undefined at {point}: {reason}")
    raise ValueError(f"{point} is not an inner vertex of the diagram")
