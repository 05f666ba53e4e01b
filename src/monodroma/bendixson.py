"""Bendixson compactification: swap infinity and the origin.

Under the inversion (x, y) = (u, v)/(u^2 + v^2) a polynomial field
X = (P, Q) of degree d pulls back, after rescaling time by (u^2 + v^2)^d,
to the polynomial field

    b(X) = ( (v^2 - u^2) P* - 2uv Q*,  (u^2 - v^2) Q* - 2uv P* )

where R* is (u^2+v^2)^d R(u/(u^2+v^2), v/(u^2+v^2)).  Working one
homogeneous component at a time keeps everything polynomial: a component
R_k contributes R_k(u, v) * (u^2 + v^2)^(d - k) exactly.

The behaviour of X in the large is then readable at the origin of b(X):
that is where the injectivity certificate looks.  Only the terms on or
below the segment A*Y + B*X = A*B joining the lowest support points (0, B)
and (A, 0) on the axes feed its Newton diagram: points above it lie inside
the hull of the support plus the first quadrant, a bounded edge's line
meets the support only on that edge, and no edge is unbounded.  The pure-v
terms of b(X).p are v^2 P_k(0, v) v^(2d-2k), of distinct exponents 2d+2-k,
so B = 2d+3-k for the largest k with y^k in P; A likewise from x^k in Q.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional

from .polycore import BivarPoly, Monomial, _check_exponent
from .field import PlanarField, ZERO_FIELD

# Multipliers as (u-exponent, v-exponent, coefficient) terms.
_VV_MINUS_UU = ((0, 2, 1), (2, 0, -1))
_UU_MINUS_VV = ((2, 0, 1), (0, 2, -1))
_MINUS_TWO_UV = ((1, 1, -2),)


class DegenerateTransformError(ValueError):
    """Compactification of a nonzero constant field is not defined."""


def _add_product(acc: dict[Monomial, int], terms: Iterable[tuple[Monomial, int]],
                 multiplier: Iterable[tuple[int, int, int]]) -> None:
    """acc += terms * multiplier, on integer term dicts."""
    get = acc.get
    for (i, j), c in terms:
        for di, dj, w in multiplier:
            key = (i + di, j + dj)
            acc[key] = get(key, 0) + c * w


def compactify(x_field: PlanarField) -> PlanarField:
    """The compactified field b(X); the zero field maps to itself.

    A nonzero constant field is rejected: with d = 0 the time rescaling
    cannot absorb the inversion and the transform degenerates.

    Degree by degree, A_k = (v^2-u^2) P_k - 2uv Q_k and
    B_k = (u^2-v^2) Q_k - 2uv P_k are multiplied by (u^2+v^2)^(d-k) through
    its binomial coefficients, in integers over one common denominator.
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
    (p, den_p), (q, den_q) = x_field.p.numerators(), x_field.q.numerators()
    den = lcm(den_p, den_q)
    # The largest exponent formed: a term of degree k gains 2(d - k) from
    # the circle power and at most 2 from its multiplier.
    _check_exponent(max(max(i, j) + 2 * (d - i - j) for terms in (p, q) for i, j in terms) + 2)
    k_p = max((j for i, j in p if i == 0), default=None)
    k_q = max((i for i, j in q if j == 0), default=None)
    hits = (2 * d + 3 - k_q, 2 * d + 3 - k_p) if lower and None not in (k_p, k_q) else None
    sp, sq = den // den_p, den // den_q
    parts: dict[int, tuple[dict[Monomial, int], dict[Monomial, int]]] = {}
    for terms, scale, side, factor in ((p, sp, 0, _VV_MINUS_UU), (q, sq, 0, _MINUS_TWO_UV),
                                       (q, sq, 1, _UU_MINUS_VV), (p, sp, 1, _MINUS_TWO_UV)):
        for key, c in terms.items():
            _add_product(parts.setdefault(sum(key), ({}, {}))[side], ((key, c * scale),), factor)
    out_p: dict[Monomial, int] = {}
    out_q: dict[Monomial, int] = {}
    for k, (a_k, b_k) in parts.items():
        m = d - k
        # A term (i, j) of A_k or B_k has the support point (i, j + 1) or (i + 1, j).
        sides = [(out, [((i, j), c, s) for (i, j), c in terms.items()
                        if (s := _kept_positions(hits, i + ox, j + oy, m))])
                 for out, terms, (ox, oy) in ((out_p, a_k, (0, 1)), (out_q, b_k, (1, 0)))]
        circle, w = [], 1
        for s in range(max((s.stop for _, kept in sides for _, _, s in kept), default=0)):
            circle.append((2 * s, 2 * (m - s), w))
            w = w * (m - s) // (s + 1)  # C(m, s + 1) = C(m, s) (m - s) / (s + 1)
        for out, kept in sides:
            for key, c, s in kept:
                _add_product(out, ((key, c),), circle[s.start:s.stop])
    return PlanarField(BivarPoly.from_numerators(out_p, den), BivarPoly.from_numerators(out_q, den))
