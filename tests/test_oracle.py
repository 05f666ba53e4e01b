"""Tests for the numeric cross-checks; each one is exercised directly here and
used as an independent oracle elsewhere in the suite."""

import math
import random
from fractions import Fraction

import pytest
from genmaps import example1_map

from monodroma import BivarPoly, PlanarField, build_diagram, compactify, hamiltonian_field
from monodroma.diagram import newton_chain
from monodroma.realroots import UniPoly
from monodroma.oracle import (
    brute_force_diagram,
    collision_search,
    numeric_root_count,
    winding,
)

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


# -- brute_force_diagram ---------------------------------------------------------


def test_brute_force_diagram_examples():
    assert brute_force_diagram([(3, 4)]) == [(3, 4)]
    assert brute_force_diagram([(0, 2), (2, 0)]) == [(0, 2), (2, 0)]
    # interior and dominated points are discarded
    assert brute_force_diagram([(0, 3), (3, 0), (2, 2), (1, 1)]) == [(0, 3), (1, 1), (3, 0)]
    assert brute_force_diagram([(0, 1), (0, 5), (4, 1)]) == [(0, 1)]


def test_brute_force_diagram_rejects_empty_support():
    with pytest.raises(ValueError):
        brute_force_diagram([])


def test_brute_force_diagram_matches_newton_chain():
    rng = random.Random(801)
    for _ in range(80):
        pts = {(rng.randint(0, 12), rng.randint(0, 12))
               for _ in range(rng.randint(1, 8))}
        assert brute_force_diagram(pts) == newton_chain(pts)


# -- numeric_root_count ----------------------------------------------------------


def lam(*coeffs: int) -> UniPoly:
    return UniPoly([Fraction(c) for c in coeffs])


def test_numeric_root_count_examples():
    assert numeric_root_count(lam(-1, 0, 1)) == 2          # x^2 - 1
    assert numeric_root_count(lam(0, -1, 0, 1)) == 3       # x^3 - x
    assert numeric_root_count(lam(1, 0, 1)) == 0           # x^2 + 1
    assert numeric_root_count(lam(5)) == 0
    assert numeric_root_count(lam(0, 1)) == 1


def test_numeric_root_count_rejects_zero():
    with pytest.raises(ValueError):
        numeric_root_count(UniPoly())


def test_numeric_root_count_handles_tight_pairs():
    # (x - 1)(x - 101/100)(x + 2) = x^3 - x^2/100 - 301x/100 + 202/100
    p = lam(202, -301, -1, 100) * Fraction(1, 100)
    assert numeric_root_count(p) == 3


# -- winding ----------------------------------------------------------------------


def test_winding_of_rotation_returns_full_turn():
    rotation = PlanarField(-1 * Y, X + BivarPoly.zero())
    result = winding(rotation, (1.0, 0.0))
    assert result.status == "returned"
    assert abs(result.angle - 2 * math.pi) < 1e-3


def test_winding_escapes_on_an_unbounded_trajectory():
    outward = PlanarField(X + BivarPoly.zero(), Y + BivarPoly.zero())
    assert winding(outward, (0.1, 0.0)).status == "escaped"


def test_winding_around_a_compactified_center():
    f, g = example1_map([1, 1], [1])
    b_field = compactify(hamiltonian_field(f, g))
    for radius in (0.05, 0.1):
        result = winding(b_field, (radius, 0.0))
        assert result.status == "returned"
        assert abs(abs(result.angle) - 2 * math.pi) < 1e-2


def test_winding_stops_at_its_term_budget(monkeypatch):
    from monodroma import oracle

    f, g = example1_map([1, 1], [1])
    b_field = compactify(hamiltonian_field(f, g))
    full = winding(b_field, (0.05, 0.0))
    assert full.status == "returned"
    # 100 right-hand-side evaluations: RK45 makes 6 per step, so the budget
    # runs out a few steps in, long before the trajectory returns.
    monkeypatch.setattr(oracle, "WINDING_TERM_BUDGET", 100 * (len(b_field.p) + len(b_field.q)))
    cut = winding(b_field, (0.05, 0.0))
    assert cut.status == "exhausted"
    assert 0 < cut.arc_length < full.arc_length
    assert abs(cut.angle) < abs(full.angle)


# -- collision_search --------------------------------------------------------------


def test_collision_search_finds_a_fold():
    hit = collision_search(X**2, Y + BivarPoly.zero(), trials=40, seed=3)
    assert hit is not None
    p, q = hit
    assert p != q
    assert (X**2).evaluate(*p) == (X**2).evaluate(*q)
    assert p[1] == q[1]


def test_collision_search_respects_injective_maps():
    assert collision_search(X + BivarPoly.zero(), Y + BivarPoly.zero(),
                            trials=20, seed=4) is None
