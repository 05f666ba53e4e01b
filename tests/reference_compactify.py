"""The support-map expansion of b(X) as it was before the one-sweep kernel.

A reference the tests compare monodroma.bendixson._compactified against:
each support point (x, y) holding (a, b) is rotated to (a - 2b, -b) at
(x, y + 2) and (-a, b - 2a) at (x + 2, y), the rotated points are merged by
key, each key keeps its own range of circle steps, and each is spread over
the row C(m, s) of its circle power m = d + 1 - x - y, one row per m shared
by every key.  Only the expansion is kept: no exponent guard and no
DegenerateTransformError, so callers pass a field of degree at least 1.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from monodroma.field import SupportMap
from monodroma.polycore import Monomial


def _kept_positions(hits: Optional[tuple[int, int]], x: int, y: int, m: int) -> range:
    """The s in [0, m] that move the point (x, y) to (x + 2s, y + 2(m - s)) on or
    below the segment of the axis hits (A, B), or all of them when hits is None."""
    if hits is None:
        return range(m + 1)
    a_hit, b_hit = hits
    slack, step = a_hit * (b_hit - y - 2 * m) - b_hit * x, 2 * (b_hit - a_hit)
    if step == 0:
        return range(m + 1 if slack >= 0 else 0)
    if step > 0:
        return range(min(m, slack // step) + 1)
    return range(max(0, -(slack // -step)), m + 1)


def compactified(coeffs: SupportMap, lower: bool) -> dict[Monomial, list[int]]:
    """The map of b(X), or of its terms on or below the segment of the axis
    hits when lower is set and both hits exist; entries that cancel to
    (0, 0) dropped."""
    d = max(x + y for x, y in coeffs) - 1
    x_max = max((x for x, y in coeffs if y == 0), default=None)
    y_max = max((y for x, y in coeffs if x == 0), default=None)
    hits = (2 * d + 4 - x_max, 2 * d + 4 - y_max) if lower and None not in (x_max, y_max) else None
    # Rotate, filter and sum: each rotated point holds [a, b, m, kept s],
    # or None when no s is kept; spans[m] covers the kept s of circle power m.
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
    # The row C(m, s) from the first kept s.
    circles: dict[int, tuple[int, list[tuple[int, int, int]]]] = {}
    for m, (first, stop) in spans.items():
        circle, w = [], comb(m, first)
        for s in range(first, stop):
            circle.append((2 * s, 2 * (m - s), w))
            w = w * (m - s) // (s + 1)
        circles[m] = first, circle
    out: dict[Monomial, list[int]] = {}
    for (x, y), point in rotated.items():
        if point is None:
            continue
        a, b, m, s = point
        first, circle = circles[m]
        for dx, dy, w in circle[s.start - first:s.stop - first]:
            acc = out.setdefault((x + dx, y + dy), [0, 0])
            acc[0] += a * w
            acc[1] += b * w
    return {key: ab for key, ab in out.items() if ab[0] or ab[1]}
