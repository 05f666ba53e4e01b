"""Bendixson compactification: swap infinity and the origin.

Under the inversion (x, y) = (u, v)/(u^2 + v^2) a polynomial field
X = (P, Q) of degree d pulls back, after rescaling time by (u^2 + v^2)^d,
to the polynomial field

    b(X) = ( (v^2 - u^2) P* - 2uv Q*,  (u^2 - v^2) Q* - 2uv P* )

where R* is (u^2+v^2)^d R(u/(u^2+v^2), v/(u^2+v^2)).  Working one
homogeneous component at a time keeps everything polynomial: a component
R_k contributes R_k(u, v) * (u^2 + v^2)^(d - k) exactly.

The behaviour of X in the large is then readable at the origin of b(X):
that is where the injectivity certificate looks.
"""

from __future__ import annotations

from math import comb, lcm
from typing import Iterable

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
    parts: dict[int, tuple[dict[Monomial, int], dict[Monomial, int]]] = {}
    for side, (terms, scale) in enumerate(((p, den // den_p), (q, den // den_q))):
        for (i, j), c in terms.items():
            parts.setdefault(i + j, ({}, {}))[side][(i, j)] = c * scale
    out_p: dict[Monomial, int] = {}
    out_q: dict[Monomial, int] = {}
    for k, (p_k, q_k) in parts.items():
        a_k: dict[Monomial, int] = {}
        b_k: dict[Monomial, int] = {}
        _add_product(a_k, p_k.items(), _VV_MINUS_UU)
        _add_product(a_k, q_k.items(), _MINUS_TWO_UV)
        _add_product(b_k, q_k.items(), _UU_MINUS_VV)
        _add_product(b_k, p_k.items(), _MINUS_TWO_UV)
        m = d - k
        circle = [(2 * s, 2 * (m - s), comb(m, s)) for s in range(m + 1)]
        _add_product(out_p, a_k.items(), circle)
        _add_product(out_q, b_k.items(), circle)
    return PlanarField(BivarPoly.from_numerators(out_p, den), BivarPoly.from_numerators(out_q, den))
