"""Bendixson compactification: swap infinity and the origin.

Under the inversion (x, y) = (u, v)/(u^2 + v^2) a polynomial field
X = (P, Q) of degree d pulls back, after rescaling time by (u^2 + v^2)^d,
to the polynomial field

    b(X) = ( (v^2 - u^2) P* - 2uv Q*,  (u^2 - v^2) Q* - 2uv P* )

where R* is (u^2+v^2)^d R(u/(u^2+v^2), v/(u^2+v^2)).  In support
coordinates (field.vector_coefficients) this needs no per-component code:
a support point (x, y) of X holding (a, b) becomes (a - 2b, -b) at
(x, y + 2) and (-a, b - 2a) at (x + 2, y), times (u^2 + v^2)^m with the
circle power m = d + 1 - x - y.  compactify reads X's map and returns the
field that keeps b(X)'s map: its p and q are formed only when read.

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

from .polycore import MAX_EXPONENT, Monomial, _check_exponent
from .field import PlanarField, SupportMap, ZERO_FIELD, _field_from_support, vector_coefficients


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
    return _transformed(x_field, lower=False)


def compactify_lower(x_field: PlanarField) -> PlanarField:
    """The terms of b(X) on or below the segment of the module docstring,
    with their full coefficients, or all of b(X) when an axis hit is
    missing.  Certificate.compactified gives the full b(X), rebuilt from f and g."""
    return _transformed(x_field, lower=True)


def _transformed(x_field: PlanarField, lower: bool) -> PlanarField:
    """_compactified on the field's support map, back as the field that keeps
    the map it returns, over the same denominator."""
    if x_field.is_zero:
        return ZERO_FIELD
    coeffs, den = vector_coefficients(x_field)
    return _field_from_support(_compactified(coeffs, lower), den)


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


def _compactified(coeffs: SupportMap, lower: bool) -> dict[Monomial, list[int]]:
    """compactify, or compactify_lower when lower is set, on support maps: the
    map of X, with no point holding (0, 0), in, that of b(X) out, over the
    same denominator and unnormalised, points whose entries cancel to (0, 0)
    dropped.  One loop for both; the map must not be empty."""
    # A point (x, y) holds the terms of X at (x, y - 1) and (x - 1, y): degree x + y - 1.
    d = max(x + y for x, y in coeffs) - 1
    if d == 0:
        raise DegenerateTransformError(
            "cannot compactify a nonzero constant field (degree 0)")
    # The largest exponent formed: a term of degree k gains 2(d - k) from
    # the circle power and at most 2 from its multiplier, so at most 2d + 2.
    # The terms at (x, y), of degree x + y - 1, reach the x exponent x when
    # a != 0 and x - 1 otherwise, and the y exponent y or y - 1 by b.
    if 2 * d + 2 > MAX_EXPONENT:
        _check_exponent(max(max(x - (not a), y - (not b)) - 2 * (x + y)
                            for (x, y), (a, b) in coeffs.items()) + 2 * d + 4)
    x_max = max((x for x, y in coeffs if y == 0), default=None)
    y_max = max((y for x, y in coeffs if x == 0), default=None)
    hits = (2 * d + 4 - x_max, 2 * d + 4 - y_max) if lower and None not in (x_max, y_max) else None
    # Rotate, filter and sum in one pass: each rotated point holds [a, b, m, kept s],
    # or None when no s is kept; spans[m] covers the kept s of circle power m.
    # The two rotated points of (x, y) reach (x + 2s, y + 2(m + 1 - s)) for
    # s = 0..m + 1 between them, so a point none of whose s is kept is skipped.
    rotated: dict[Monomial, Optional[list]] = {}
    spans: dict[int, list[int]] = {}
    for (x, y), (a, b) in coeffs.items():
        m = d + 1 - x - y
        if hits is not None and not _kept_positions(hits, x, y, m + 1):
            continue
        for key, da, db in (((x, y + 2), a - 2 * b, -b), ((x + 2, y), -a, b - 2 * a)):
            if key not in rotated:
                kept = _kept_positions(hits, *key, m)
                rotated[key] = [0, 0, m, kept] if kept else None
                if kept:
                    span = spans.setdefault(m, [kept.start, kept.stop])
                    span[0], span[1] = min(span[0], kept.start), max(span[1], kept.stop)
            acc = rotated[key]
            if acc is not None:
                acc[0] += da
                acc[1] += db
    # The row C(m, s) from the first kept s: near an axis hit that is near m.
    circles: dict[int, tuple[int, list[tuple[int, int, int]]]] = {}
    for m, (first, stop) in spans.items():
        circle, w = [], comb(m, first)
        for s in range(first, stop):
            circle.append((2 * s, 2 * (m - s), w))
            w = w * (m - s) // (s + 1)  # C(m, s + 1) = C(m, s) (m - s) / (s + 1)
        circles[m] = first, circle
    out: dict[Monomial, list[int]] = {}
    get = out.get
    for (x, y), point in rotated.items():
        if point is None:
            continue
        a, b, m, s = point
        first, circle = circles[m]
        for dx, dy, w in circle[s.start - first:s.stop - first]:
            acc = get(key := (x + dx, y + dy))
            if acc is None:
                out[key] = [a * w, b * w]
            else:
                acc[0] += a * w
                acc[1] += b * w
    return {key: ab for key, ab in out.items() if ab[0] or ab[1]}
