"""Bendixson compactification: swap infinity and the origin.

Under the inversion (x, y) = (u, v)/(u^2 + v^2) a polynomial field
X = (P, Q) of degree d pulls back, after rescaling time by (u^2 + v^2)^d,
to the polynomial field

    b(X) = ( (v^2 - u^2) P* - 2uv Q*,  (u^2 - v^2) Q* - 2uv P* )

where R* is (u^2+v^2)^d R(u/(u^2+v^2), v/(u^2+v^2)).  In support
coordinates (field.vector_coefficients) this needs no per-component code:
a support point (x, y) of X holding (a, b) becomes (a - 2b, -b) at
(x, y + 2) and (-a, b - 2a) at (x + 2, y), times (u^2 + v^2)^m with the
circle power m = d + 1 - x - y.

The behaviour of X in the large is then readable at the origin of b(X):
that is where the injectivity certificate looks.  Only the terms on or
below the segment A*Y + B*X = A*B joining the lowest support points (0, B)
and (A, 0) on the axes feed its Newton diagram: points above it lie inside
the hull of the support plus the first quadrant, a bounded edge's line
meets the support only on that edge, and no edge is unbounded.  Only
(0, y) of supp(X) reaches the v-axis, at (0, y + 2 + 2m) = (0, 2d + 4 - y),
so B = 2d + 4 - max{y : (0, y) in supp(X)}; likewise
A = 2d + 4 - max{x : (x, 0) in supp(X)}.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from .polycore import Monomial, _check_exponent
from .field import PlanarField, ZERO_FIELD, from_vector_coefficients, vector_coefficients


class DegenerateTransformError(ValueError):
    """Compactification of a nonzero constant field is not defined."""


def compactify(x_field: PlanarField) -> PlanarField:
    """The compactified field b(X); the zero field maps to itself.

    A nonzero constant field is rejected: with d = 0 the time rescaling
    cannot absorb the inversion and the transform degenerates.

    In integers over one denominator, a support point (x, y) holding (a, b)
    puts (a - 2b, -b) at (x, y + 2) and (-a, b - 2a) at (x + 2, y); step
    s = 0..m of its circle power m = d + 1 - x - y shifts both by
    (2s, 2(m - s)) with weight C(m, s).
    """
    return _compactified(x_field, lower=False)


def compactify_lower(x_field: PlanarField) -> PlanarField:
    """The terms of b(X) on or below the segment of the module docstring,
    with their full coefficients, or all of b(X) when an axis hit is
    missing.  Certificate.compactified keeps the full b(X), built lazily."""
    return _compactified(x_field, lower=True)


def _kept_positions(hits: Optional[tuple[int, int]], x: int, y: int, m: int) -> range:
    """The s in [0, m] that move the support point (x, y) to (x + 2s, y + 2(m - s))
    on or below the segment of the axis hits (A, B): A*(y + 2m) + B*x + 2s*(B - A)
    <= A*B.  All of them when hits is None; empty or within [0, m + 1)."""
    if hits is None:
        return range(m + 1)
    a_hit, b_hit = hits
    slack, step = a_hit * (b_hit - y - 2 * m) - b_hit * x, 2 * (b_hit - a_hit)
    if step == 0:
        return range(m + 1 if slack >= 0 else 0)
    if step > 0:
        return range(min(m, slack // step) + 1)
    return range(max(0, -(slack // -step)), m + 1)


def _compactified(x_field: PlanarField, lower: bool) -> PlanarField:
    """compactify, or compactify_lower when lower is set: one loop for both."""
    if x_field.is_zero:
        return ZERO_FIELD
    d = x_field.degree()
    if d == 0:
        raise DegenerateTransformError(
            "cannot compactify a nonzero constant field (degree 0)")
    # The largest exponent formed: a term of degree k gains 2(d - k) from
    # the circle power and at most 2 from its multiplier.
    _check_exponent(max(max(i, j) + 2 * (d - i - j)
                        for c in (x_field.p, x_field.q) for i, j in c.numerators()[0]) + 2)
    coeffs, den = vector_coefficients(x_field)
    x_max = max((x for x, y in coeffs if y == 0), default=None)
    y_max = max((y for x, y in coeffs if x == 0), default=None)
    hits = (2 * d + 4 - x_max, 2 * d + 4 - y_max) if lower and None not in (x_max, y_max) else None
    # The rotated points, grouped by the circle power m of their source.
    rotated: dict[int, dict[Monomial, list[int]]] = {}
    for (x, y), (a, b) in coeffs.items():
        points = rotated.setdefault(d + 1 - x - y, {})
        for key, da, db in (((x, y + 2), a - 2 * b, -b), ((x + 2, y), -a, b - 2 * a)):
            acc = points.setdefault(key, [0, 0])
            acc[0] += da
            acc[1] += db
    out: dict[Monomial, list[int]] = {}
    get = out.get
    for m, points in rotated.items():
        kept = [(x, y, a, b, s) for (x, y), (a, b) in points.items()
                if (s := _kept_positions(hits, x, y, m))]
        # The row C(m, s) from the first kept s: near an axis hit that is near m.
        first = min((s.start for *_, s in kept), default=0)
        circle, w = [], comb(m, first)
        for s in range(first, max((s.stop for *_, s in kept), default=0)):
            circle.append((2 * s, 2 * (m - s), w))
            w = w * (m - s) // (s + 1)  # C(m, s + 1) = C(m, s) (m - s) / (s + 1)
        for x, y, a, b, s in kept:
            for dx, dy, w in circle[s.start - first:s.stop - first]:
                acc = get(key := (x + dx, y + dy))
                if acc is None:
                    out[key] = [a * w, b * w]
                else:
                    acc[0] += a * w
                    acc[1] += b * w
    return from_vector_coefficients(out, den)
