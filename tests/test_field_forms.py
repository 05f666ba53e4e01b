"""A PlanarField built from its support map against the same field built
from (p, q): every public reading agrees, whichever way a field was built.

Each reading is taken on a fresh instance, so that no reading sees p and q
that an earlier one formed: the map-built side is read from its map alone.
"""

import copy
import random
from fractions import Fraction

import pytest

from monodroma import (
    BivarPoly,
    PlanarField,
    build_diagram,
    compactify,
    compactify_lower,
    hamiltonian_field,
    render_ascii,
    render_svg,
    support,
)
from monodroma.field import support_points, vector_coefficients

from genmaps import rand_poly

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)

_POINTS = ((0, 0), (1, -2), (Fraction(1, 3), Fraction(-5, 2)))


def _outcome(read):
    """read(), or the class and text of what it raised."""
    try:
        return read()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _readings(make, stages: bool = True) -> dict:
    """Every public reading of the field make() builds, each on a fresh
    instance; with stages, compactify's and compactify_lower's outputs are
    read the same way."""

    def diagram_text(render):
        field = make()
        return render(build_diagram(field), support_points(field))

    def fractions():
        coeffs, den = vector_coefficients(make())
        return {pt: (Fraction(a, den), Fraction(b, den)) for pt, (a, b) in coeffs.items()}

    out = {
        "repr": repr(make()),
        "hash": hash(make()),
        "is_zero": make().is_zero,
        "p": make().p,
        "q": make().q,
        "evaluate": [make().evaluate(x, y) for x, y in _POINTS],
        "degree": _outcome(lambda: make().degree()),
        "vector_coefficients": _outcome(fractions),
        "build_diagram": _outcome(lambda: build_diagram(make())),
        "support": _outcome(lambda: support(make())),
        "support_points": _outcome(lambda: support_points(make())),
        "render_ascii": _outcome(lambda: diagram_text(render_ascii)),
        "render_svg": _outcome(lambda: diagram_text(render_svg)),
    }
    if stages:
        for stage in (compactify, compactify_lower):
            out[stage.__name__] = _outcome(lambda: _readings(lambda: stage(make()), stages=False))
    return out


def _maps():
    """Seeded maps, with the README's mixed denominators, an energy whose
    squares cancel, a constant field and the zero field among them."""
    yield X * Fraction(1, 2) + X ** 3 * Fraction(1, 3), Y * Fraction(2, 5) + X ** 2 * Fraction(1, 7)
    yield X + Y, X - Y  # the xy terms of f^2 and g^2 cancel in H
    yield X + Y ** 2, BivarPoly.const(3)  # H has a linear term: a constant part in X
    yield BivarPoly.const(2), X * Fraction(3, 4)  # X is constant: compactify refuses it
    yield BivarPoly.const(Fraction(2, 3)), BivarPoly.zero()  # X = 0
    yield BivarPoly.zero(), BivarPoly.zero()
    rng = random.Random(2404)
    for _ in range(12):
        yield rand_poly(rng, max_degree=3, terms=4), rand_poly(rng, max_degree=3, terms=4)


@pytest.mark.parametrize("f, g", list(_maps()))
def test_map_built_fields_read_as_their_components(f, g):
    energy = (f * f + g * g) * Fraction(1, 2)
    p, q = -energy.partial(1), energy.partial(0)
    assert hamiltonian_field(f, g) == PlanarField(p, q)
    assert PlanarField(p, q) == hamiltonian_field(f, g)
    assert _readings(lambda: hamiltonian_field(f, g)) == _readings(lambda: PlanarField(p, q))
    # b(X) from the map against b(X) rebuilt from its own components.
    for stage in (compactify, compactify_lower):
        b_field = _outcome(lambda: stage(PlanarField(p, q)))
        if not isinstance(b_field, PlanarField) or b_field.is_zero:
            continue  # a constant field raises; the zero field maps to itself
        assert _readings(lambda: stage(hamiltonian_field(f, g)), stages=False) == \
            _readings(lambda: PlanarField(b_field.p, b_field.q), stages=False)


def test_equal_fields_from_either_form_hash_alike():
    made = {hamiltonian_field(X + Y, X - Y), PlanarField(-Y * 2, X * 2)}
    assert made == {PlanarField(-Y * 2, X * 2)}
    assert hamiltonian_field(X, Y) != PlanarField(Y, X)
    assert hamiltonian_field(X, Y) != (-Y, X)
    assert repr(hamiltonian_field(X, Y)) == "PlanarField(p=BivarPoly('-y'), q=BivarPoly('x'))"


def test_fields_are_immutable_and_copy():
    for field in (hamiltonian_field(X, Y), PlanarField(-Y, X)):
        for name in ("p", "q", "is_zero"):
            with pytest.raises(AttributeError):
                setattr(field, name, X)
        assert copy.copy(field) == field
