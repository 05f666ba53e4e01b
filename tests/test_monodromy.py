"""Monodromy verdicts on hand-built fields with known phase portraits."""

import random
from fractions import Fraction

import pytest

from monodroma import (
    BivarPoly,
    PlanarField,
    build_diagram,
    check_monodromic,
    compactify,
    hamiltonian_field,
)
from monodroma.monodromy import INCONCLUSIVE as MONODROMY_INCONCLUSIVE, MONODROMIC, NOT_MONODROMIC
from monodroma.oracle import sector_classification, winding

from genmaps import example1_map

U = BivarPoly.monomial(1, 0)
V = BivarPoly.monomial(0, 1)


def verdict_for(field: PlanarField):
    return check_monodromic(build_diagram(field))


def test_rotation_compactification_is_monodromic():
    verdict = verdict_for(compactify(PlanarField(-V, U)))
    assert verdict.outcome == MONODROMIC
    assert verdict.reason is None
    assert all(r.passed for r in verdict.conditions)


def test_example_fixture_is_monodromic():
    f, g = example1_map([Fraction(1), Fraction(1)], [Fraction(1)])
    verdict = verdict_for(compactify(hamiltonian_field(f, g)))
    assert verdict.outcome == MONODROMIC
    assert [r.condition for r in verdict.conditions] == ["a", "b", "c", "d"]
    assert verdict.condition("b").passed
    assert "a*b" in verdict.condition("b").detail


def test_radial_line_field_is_a_node():
    # X = ((x^2+y^2) x, (x^2+y^2) y): one edge with h = 0 and mu = x^2+y^2.
    field = PlanarField((U ** 2 + V ** 2) * U, (U ** 2 + V ** 2) * V)
    diagram = build_diagram(field)
    edge = [e for e in diagram.edges if e.bounded][0]
    assert edge.h.is_zero
    assert edge.mu == U ** 2 + V ** 2
    verdict = check_monodromic(diagram)
    assert verdict.outcome == NOT_MONODROMIC
    assert "node" in verdict.reason
    # Numeric cross-check: trajectories leave without turning.
    result = winding(field, (0.1, 0.0))
    assert result.status == "escaped"
    assert abs(result.angle) < 1.0


def test_negative_beta_detects_parabolic_sector():
    # Corner coefficient chosen non-Hamiltonian so the two adjacent edge
    # Hamiltonians carry opposite-sign corner coefficients.
    field = PlanarField(V ** 5 + U ** 2 * V ** 3 * 3, U * V ** 4 * 4 + U ** 7)
    diagram = build_diagram(field)
    assert diagram.vertex_points() == [(0, 6), (2, 4), (8, 0)]
    assert dict(diagram.inner_betas) == {(2, 4): Fraction(-1, 96)}
    verdict = check_monodromic(diagram)
    assert verdict.outcome == NOT_MONODROMIC
    assert "parabolic" in verdict.reason
    assert not verdict.condition("c").passed
    assert sector_classification(diagram, (2, 4)) == "parabolic"


def test_factor_on_edge_is_inconclusive_not_negative():
    # Hamiltonian of u^4 + v^4 - 3 u^2 v^2: conditions (a)-(c) pass but the
    # single edge Hamiltonian factors as v^2 - a u^2 for two real a != 0.
    energy = U ** 4 + V ** 4 - U ** 2 * V ** 2 * 3
    field = PlanarField(-energy.partial(1), energy.partial(0))
    verdict = verdict_for(field)
    assert verdict.outcome == MONODROMY_INCONCLUSIVE
    assert verdict.condition("a").passed
    assert verdict.condition("b").passed
    assert verdict.condition("c").passed
    assert not verdict.condition("d").passed
    assert "factor" in verdict.condition("d").detail
    assert verdict.reason == "conditions not established: d"
    [(idx, test)] = verdict.edge_tests
    assert test.has_factor
    assert len(test.witnesses) == 4  # +-sqrt((3+sqrt(5))/2), +-sqrt((3-sqrt(5))/2)


def test_odd_vertices_are_inconclusive():
    verdict = verdict_for(PlanarField(U, V))
    assert verdict.outcome == MONODROMY_INCONCLUSIVE
    assert not verdict.condition("a").passed
    assert not verdict.condition("b").passed
    assert not verdict.condition("c").passed  # beta undefined at (1, 1)
    assert "unbounded" in verdict.condition("c").detail


def test_vertex_with_one_odd_coordinate_fails_condition_a():
    # P = u*v - v^5, Q = u^5: the inner vertex (1, 2) has an odd x and an
    # even y, so (a) must fail on it alone; the exterior ones are even.
    diagram = build_diagram(PlanarField(U * V - V ** 5, U ** 5))
    assert diagram.vertex_points() == [(0, 6), (1, 2), (6, 0)]
    report = check_monodromic(diagram).condition("a")
    assert not report.passed
    assert report.witnesses == ("(1, 2)",)
    assert report.detail == "vertices with odd coordinates: [(1, 2)]"


def test_null_bounded_hamiltonian_without_mu_is_inconclusive():
    # h = 0 and mu = 0 happens only for the zero component, which cannot
    # occur on a diagram edge; instead check h = 0 with mu != 0 is caught
    # by the node rule even when other conditions would pass.
    field = PlanarField((U ** 2 + V ** 2) * U, (U ** 2 + V ** 2) * V)
    verdict = verdict_for(field)
    assert verdict.outcome == NOT_MONODROMIC
    assert not verdict.condition("d").passed
    assert "null" in verdict.condition("d").detail


def test_edge_tests_align_with_bounded_nonzero_edges():
    f, g = example1_map([Fraction(1), Fraction(1)], [Fraction(1)])
    diagram = build_diagram(compactify(hamiltonian_field(f, g)))
    verdict = check_monodromic(diagram)
    assert [idx for idx, _ in verdict.edge_tests] == [
        idx for idx, e in enumerate(diagram.edges) if e.bounded and not e.h.is_zero]
    for idx, test in verdict.edge_tests:
        assert not test.has_factor


def test_sector_classification_requires_defined_beta():
    diagram = build_diagram(PlanarField(U, V))
    with pytest.raises(ValueError):
        sector_classification(diagram, (1, 1))


def test_condition_lookup_raises_on_unknown_name():
    verdict = verdict_for(PlanarField(U, V))
    with pytest.raises(KeyError):
        verdict.condition("z")


def test_monodromic_verdict_consistent_with_winding_oracle():
    # The rotation field turns by 2*pi; its compactification is monodromic.
    rng = random.Random(701)
    field = compactify(PlanarField(-V, U))
    for _ in range(3):
        radius = rng.choice([0.05, 0.1, 0.3])
        angle = rng.uniform(0, 6.28)
        import math
        start = (radius * math.cos(angle), radius * math.sin(angle))
        result = winding(field, start)
        assert result.status == "returned"
        assert abs(abs(result.angle) - 2 * math.pi) < 1e-2


def test_condition_texts_are_pinned():
    """The exact detail, witnesses and reason of each failure shape: a
    mutant that changes only a text must fail here."""
    # (b) passes and fails on the sign of a*b.
    verdict = verdict_for(compactify(PlanarField(-V, U)))
    assert verdict.condition("b").detail == "exterior coefficients a = -1, b = 1, a*b = -1 < 0"
    verdict = verdict_for(PlanarField(V, U))  # the saddle: vertices (0, 2) and (2, 0)
    report = verdict.condition("b")
    assert not report.passed
    assert report.detail == "exterior coefficients a = 1, b = 1, a*b = 1 >= 0"
    assert report.witnesses == ()
    # (b) with one exterior vertex, and (c) beside an unbounded edge.
    verdict = verdict_for(PlanarField(V ** 2, U * V))
    report = verdict.condition("b")
    assert report.detail == "expected exactly two exterior vertices, found 1"
    assert report.witnesses == ("(0, 3)",)
    report = verdict.condition("c")
    assert report.detail == "beta((2, 1)) undefined: adjacent edge is unbounded"
    assert report.witnesses == ("beta((2, 1)) undefined: adjacent edge is unbounded",)
    assert verdict_for(PlanarField(U, V)).condition("b").detail == (
        "expected exactly two exterior vertices, found 0")
    # A radial edge between two bounded ones: h = 0 and mu != 0 on x + y = 4.
    verdict = verdict_for(PlanarField((U ** 2 + V ** 2) * U + V ** 7,
                                      (U ** 2 + V ** 2) * V + U ** 7))
    assert verdict.outcome == NOT_MONODROMIC
    assert verdict.reason == ("bounded edge of type (1,1) on 1*x + 1*y = 4 has h = 0 and "
                              "mu != 0: the origin is a node")
    null = "undefined: adjacent edge Hamiltonian is null"
    assert verdict.condition("c").witnesses == (f"beta((1, 3)) {null}", f"beta((3, 1)) {null}")
    assert verdict.condition("c").detail == f"beta((1, 3)) {null}; beta((3, 1)) {null}"
    assert verdict.condition("d").witnesses == (
        "bounded edge of type (5,1) on 5*x + 1*y = 8 has factor v^5 - a*u^1: a = 4",
        "bounded edge of type (1,1) on 1*x + 1*y = 4 has a null Hamiltonian",
        "bounded edge of type (1,5) on 1*x + 5*y = 8 has factor v^1 - a*u^5: a = 1/4")
    # Unbounded edges count for the node rule, each in the reason.
    verdict = verdict_for(PlanarField(U * V, U * V))
    assert verdict.reason == (
        "unbounded edge of type (1,0) on 1*x + 0*y = 1 has h = 0 and mu != 0: the origin is a node; "
        "unbounded edge of type (0,1) on 0*x + 1*y = 1 has h = 0 and mu != 0: the origin is a node")
    # The parabolic sector, with the beta that shows it.
    verdict = verdict_for(PlanarField(V ** 5 + U ** 2 * V ** 3 * 3, U * V ** 4 * 4 + U ** 7))
    assert verdict.reason == "beta = -1/96 < 0 at inner vertex (2, 4): parabolic sector at the origin"
    assert verdict.condition("c").detail == "beta((2, 4)) = -1/96"
    assert verdict.condition("c").witnesses == ("beta((2, 4)) = -1/96",)
