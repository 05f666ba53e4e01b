"""End-to-end pipeline tests: determinant analysis, the coprime leading-form
check, certify() verdict paths, and JSON certificates."""

import copy
import dataclasses
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, example, given, settings, strategies as hst
from genmaps import (
    example1_map,
    example2_map,
    linear_map,
    odd_power_map,
    rand_any_map,
    rand_example1,
    rand_example2,
    rand_valid_map,
    shear_composition,
    triangular_map,
)

import monodroma
from monodroma import cli
from monodroma import (
    BivarPoly,
    PlanarField,
    build_diagram,
    certify,
    compactify,
    compactify_lower,
    det_nonvanishing_heuristic,
    hamiltonian_field,
    jacobian_det,
    parse_poly,
)
from monodroma.field import common_real_linear_factors
from monodroma.monodromy import INCONCLUSIVE as MONODROMY_INCONCLUSIVE, MONODROMIC
from monodroma.pipeline import (
    _BLOCKS,
    _GRID_COLUMNS,
    _HALVES,
    _POWER_CAP,
    _SAMPLE_POINTS,
    ASSUMED,
    INCONCLUSIVE,
    INJECTIVE,
    NOT_APPLICABLE,
    PROVED,
    UNKNOWN,
    VANISHES,
    DetStatus,
    cima_condition,
)
from monodroma.realroots import UniPoly, dehomogenize, sturm_count

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


def unknown_det_map() -> tuple[BivarPoly, BivarPoly]:
    # det = 1 + 2x^2 - 2xy + y^2 = 1 + x^2 + (x - y)^2: positive but the mixed
    # sign on the xy coefficient defeats the syntactic pattern.
    f = X + X**3 * Fraction(2, 3) - X**2 * Y + X * Y**2
    return f, Y + BivarPoly.zero()


def factor_edge_map() -> tuple[BivarPoly, BivarPoly]:
    # Triangular, hence injective, with constant det; the sufficient condition
    # still gives up because an edge Hamiltonian has a real linear factor.
    return 2 * X - Y**3 - 2 * Y**2 - Y, -1 * Y


# -- jacobian_det --------------------------------------------------------------


def test_jacobian_det_examples():
    assert jacobian_det(X, Y) == BivarPoly.const(1)
    f, g = example1_map([1, 1], [1])
    assert jacobian_det(f, g) == parse_poly("3*x^2 + 1")
    f, g = example2_map([1, 1], [1], [1], [1])
    assert jacobian_det(f, g) == parse_poly("3*y^2 + 2")


def test_jacobian_det_is_antisymmetric_and_bilinear_random():
    rng = random.Random(701)
    for _ in range(40):
        f, g = rand_any_map(rng)
        det = jacobian_det(f, g)
        assert jacobian_det(g, f) == -1 * det
        assert jacobian_det(f, f).is_zero
        assert jacobian_det(f * 3, g) == det * 3


def test_jacobian_det_of_shear_is_one():
    rng = random.Random(702)
    for _ in range(20):
        f, g = shear_composition(rng)
        assert jacobian_det(f, g) == BivarPoly.const(1)


# -- det_nonvanishing_heuristic ------------------------------------------------


def test_det_zero_polynomial_vanishes_at_origin():
    st = det_nonvanishing_heuristic(BivarPoly.zero())
    assert st.status == VANISHES
    assert st.witness == (Fraction(0), Fraction(0))
    assert st.witness_exact
    assert st.detail == "determinant is identically zero"
    assert not st.holds


def test_det_nonzero_constant_is_proved():
    st = det_nonvanishing_heuristic(BivarPoly.const(Fraction(-3)))
    assert st.status == PROVED
    assert st.method == "nonzero constant"
    assert st.holds


def test_det_even_monomial_patterns_are_proved():
    pos = det_nonvanishing_heuristic(BivarPoly.const(1) + X**2 * 3)
    assert pos.status == PROVED
    assert pos.method == "positive constant plus even monomials of matching sign"
    neg = det_nonvanishing_heuristic(BivarPoly.const(-2) - X**2 * Y**4)
    assert neg.status == PROVED
    assert neg.method == "negative constant plus even monomials of matching sign"


def test_det_even_pattern_requires_matching_signs():
    # 1 - x^2 is even in both variables but indefinite; sampling must find the
    # exact zero at x = 1 rather than the pattern wrongly proving it.
    st = det_nonvanishing_heuristic(BivarPoly.const(1) - X**2)
    assert st.status == VANISHES
    assert st.witness_exact


def test_det_sampling_finds_exact_grid_zero():
    st = det_nonvanishing_heuristic(X**2 - BivarPoly.const(1))
    assert st.status == VANISHES
    assert st.witness_exact
    assert st.detail == "exact zero found by sampling"
    assert (X**2 - BivarPoly.const(1)).evaluate(*st.witness) == 0


def test_det_sampling_records_sign_change_segment():
    # x - 1/3 has no zero on the sample; the first point with det < 0 is the
    # first grid point (-5, -5), the first with det > 0 is (1/2, -5).
    st = det_nonvanishing_heuristic(X - BivarPoly.const(Fraction(1, 3)))
    assert st.status == VANISHES
    assert st.segment == ((Fraction(1, 2), Fraction(-5)), (Fraction(-5), Fraction(-5)))
    assert st.witness is None and not st.witness_exact
    assert st.detail == "sign change between two sample points"


def _naive_value(poly: BivarPoly, x: Fraction, y: Fraction) -> Fraction:
    return sum((c * x**i * y**j for (i, j), c in poly.terms()), Fraction(0))


_det_coeffs = hst.fractions(min_value=-9, max_value=9, max_denominator=5)
_dets = hst.dictionaries(
    hst.tuples(hst.integers(0, 4), hst.integers(0, 4)).filter(lambda e: sum(e) <= 4),
    _det_coeffs, max_size=5).map(BivarPoly)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_dets)
@example(X - BivarPoly.const(Fraction(1, 3)))
@example(X**2 - BivarPoly.const(1))
@example(BivarPoly.zero())
def test_det_vanishing_evidence_is_exact(det):
    # Every VanishesAt carries exactly one of a witness and a segment, each
    # checked here by a naive Fraction sum, not by BivarPoly.evaluate.
    status = det_nonvanishing_heuristic(det)
    if status.status != VANISHES:
        assert status.witness is None and status.segment is None
        return
    assert (status.witness is None) != (status.segment is None)
    if status.witness is not None:
        assert _naive_value(det, *status.witness) == 0
    else:
        positive, negative = status.segment
        assert _naive_value(det, *positive) > 0 > _naive_value(det, *negative)


def _reference_status(det: BivarPoly) -> DetStatus:
    """det_nonvanishing_heuristic as a plain loop: the two patterns read off
    Fraction coefficients, then every sample point in order, scored by
    _naive_value."""
    if det.is_zero:
        return DetStatus(VANISHES, witness=(Fraction(0), Fraction(0)),
                         detail="determinant is identically zero")
    if det.support() == [(0, 0)]:
        return DetStatus(PROVED, method="nonzero constant")
    for sign, name in ((1, "positive"), (-1, "negative")):
        if sign * det.coeff(0, 0) > 0 and all(
                i % 2 == 0 and j % 2 == 0 and sign * c > 0 for (i, j), c in det.terms()):
            return DetStatus(PROVED, method=f"{name} constant plus even monomials of matching sign")
    positive = negative = None
    for point in _SAMPLE_POINTS:
        value = _naive_value(det, *point)
        if value == 0:
            return DetStatus(VANISHES, witness=point, detail="exact zero found by sampling")
        if value > 0:
            positive = positive or point
        else:
            negative = negative or point
        if positive and negative:
            return DetStatus(VANISHES, segment=(positive, negative),
                             detail="sign change between two sample points")
    return DetStatus(UNKNOWN, detail="no syntactic pattern matched and sampling saw one sign")


_sparse_dets = hst.dictionaries(
    hst.tuples(hst.integers(0, 60), hst.integers(0, 60)), _det_coeffs, max_size=4).map(BivarPoly)
# Exponents on both sides of the power cache's cap, so that one det reads
# kept powers and powers formed afresh.
_around_the_cap = hst.integers(0, 3) | hst.integers(_POWER_CAP - 2, _POWER_CAP + 3)
_capped_dets = hst.dictionaries(
    hst.tuples(_around_the_cap, _around_the_cap), _det_coeffs, max_size=5).map(BivarPoly)
# A zero planted on the column x = x0 of a pseudo-random sample point.
_planted_dets = hst.builds(lambda x0, h: (X - BivarPoly.const(x0)) * h,
                           hst.sampled_from([x for x, _ in _SAMPLE_POINTS[-100:]]), _dets)


def _point_zero(x0: Fraction, y0: Fraction) -> BivarPoly:
    """(x - x0)^2 + (y - y0)^2: zero at (x0, y0) and positive elsewhere."""
    return (X - BivarPoly.const(x0)) ** 2 + (Y - BivarPoly.const(y0)) ** 2


def _negative_on_the_grid_positive_on_the_first_block() -> BivarPoly:
    """q - e with q = prod over kx of (2x - kx)^2, zero on every grid column,
    and e half the least q on the first block of pseudo-random points: det is
    negative on the grid and positive on that whole block."""
    q = BivarPoly.const(1)
    for kx in _HALVES:
        q = q * (2 * X - BivarPoly.const(kx)) ** 2
    block = _SAMPLE_POINTS[-100:-80]
    return q - BivarPoly.const(min(_naive_value(q, *point) for point in block) / 2)


# A point zero planted at one of the pseudo-random points, of either sign,
# so that the grid sees one sign and the first zero lies in a block.
_planted_point_zeros = hst.builds(lambda point, sign: sign * _point_zero(*point),
                                  hst.sampled_from(_SAMPLE_POINTS[-100:]), hst.sampled_from([1, -1]))


def _kept_exponents() -> set[int]:
    return {e for _, *vectors in _BLOCKS for powers in vectors for e in powers}


def _clear_power_caches() -> None:
    for _, *vectors in _BLOCKS:
        for powers in vectors:
            powers.clear()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(hst.one_of(_dets, _sparse_dets, _capped_dets, _planted_dets, _planted_point_zeros))
@example(parse_poly("x*y^3 - y"))  # zero on the y = 0 row through the trailing y factor
@example(parse_poly("(2*x + 7)*(y^2 + 1)"))  # zero on the whole column x = -7/2, first at (-7/2, -5)
@example(parse_poly("y^2*(x - 1/3)"))  # zero on y = 0 through an even power of y
@example(parse_poly("x*y^3 - 1"))
@example(parse_poly("(x^100 - y^100)^2 + 1"))
@example(parse_poly("(y^300 - x)^2 + 1"))
@example(parse_poly("26 - x^2"))  # positive on the grid, first negative among the random points
# Negative on the grid, positive on the whole first block: the first positive is its first point.
@example(_negative_on_the_grid_positive_on_the_first_block())
# Exact zeros at the 1st, 20th, 21st and 100th pseudo-random point: the edges of the blocks.
@example(_point_zero(*_SAMPLE_POINTS[-100]))
@example(_point_zero(*_SAMPLE_POINTS[-81]))
@example(_point_zero(*_SAMPLE_POINTS[-80]))
@example(_point_zero(*_SAMPLE_POINTS[-1]))
def test_det_status_matches_the_point_by_point_reference(det):
    # Same points, same order: the same first zero, or the same first
    # positive and first negative point, or Unknown on both sides.  First
    # with the powers that earlier examples left in the cache, then with
    # every power formed afresh.
    reference = _reference_status(det)
    assert det_nonvanishing_heuristic(det) == reference
    _clear_power_caches()
    assert det_nonvanishing_heuristic(det) == reference
    assert max(_kept_exponents(), default=0) <= _POWER_CAP


def test_power_cache_keeps_no_exponent_above_the_cap():
    # x^40000 - 2x^20000 + 2 > 0 reaches every block; the powers it needs
    # above the cap are formed for the call and dropped.
    _clear_power_caches()
    status = det_nonvanishing_heuristic(parse_poly("x^40000 - 2*x^20000 + 2"))
    assert status.status == UNKNOWN
    assert _kept_exponents() == {0}
    # (x^8 y^9 - 1)^2 + 1 > 0 needs x to the 0, 8 and 16 and y to the 0, 9
    # and 18: all but y^18 are kept.
    assert _POWER_CAP == 16
    status = det_nonvanishing_heuristic(parse_poly("x^16*y^18 - 2*x^8*y^9 + 2"))
    assert status.status == UNKNOWN
    assert _kept_exponents() == {0, 8, 9, 16}


def test_det_sampling_layout_lists_the_sample_in_order():
    # The grid columns, then the blocks, are the sample points in sample
    # order, and their integers name the same points.
    columns = [point for _, column in _GRID_COLUMNS for point in column]
    blocks = [point for block, *_ in _BLOCKS for point in block]
    assert columns + blocks == list(_SAMPLE_POINTS)
    assert len(_GRID_COLUMNS) == 21 and [len(block) for block, *_ in _BLOCKS] == [20] * 5
    for kx, column in _GRID_COLUMNS:
        assert column == tuple((Fraction(kx, 2), Fraction(ky, 2)) for ky in _HALVES)
    for block, *vectors in _BLOCKS:
        a, b, c, d = (powers.base for powers in vectors)
        assert block == tuple((Fraction(*x), Fraction(*y))
                              for x, y in zip(zip(a, b), zip(c, d)))
        assert min(b) > 0 and min(d) > 0


def test_det_positive_without_pattern_is_unknown():
    st = det_nonvanishing_heuristic((X**2 - Y**2) ** 2 + BivarPoly.const(1))
    assert st.status == UNKNOWN
    assert st.detail == "no syntactic pattern matched and sampling saw one sign"
    assert not st.holds


def test_det_heuristic_is_deterministic():
    p = (X**2 - Y**2) ** 2 + BivarPoly.const(1)
    assert det_nonvanishing_heuristic(p) == det_nonvanishing_heuristic(p)
    q = X - BivarPoly.const(Fraction(1, 3))
    first = det_nonvanishing_heuristic(q)
    assert first.status == VANISHES and first == det_nonvanishing_heuristic(q)


# -- cima_condition -------------------------------------------------------------


def test_cima_condition_examples():
    assert cima_condition(X, Y) is True
    f, g = example1_map([1, 1], [1])
    assert cima_condition(f, g) is False
    f, g = example2_map([1, 1], [1], [1], [1])
    assert cima_condition(f, g) is False
    # One leading form of the Hamiltonian field degenerates to zero; the check
    # must then fall back to the surviving component alone.
    assert cima_condition(X, X**3) is False


def test_cima_condition_on_linear_maps():
    rng = random.Random(703)
    for _ in range(20):
        f, g = linear_map(rng)
        assert cima_condition(f, g) is True


def test_cima_condition_on_equal_odd_powers():
    rng = random.Random(704)
    for _ in range(20):
        f, g = odd_power_map(rng, equal_powers=True)
        assert cima_condition(f, g) is True


def _reference_factor_exists(form: BivarPoly) -> bool:
    """Whether a nonzero binary form has a real linear factor: an axis
    exponent, or a real root of its dehomogenization by a Sturm count."""
    if any(form.min_exponents()):
        return True
    p = dehomogenize(form, (1, 1))
    return p.degree > 0 and sturm_count(p) > 0


def _reference_cima(f: BivarPoly, g: BivarPoly) -> bool:
    """cima_condition in three branches: a zero leading form defers to its
    partner's own real linear factors, two nonzero ones to their common ones."""
    x_field = hamiltonian_field(f, g)
    if x_field.p.is_zero:
        return not _reference_factor_exists(x_field.q.leading_form())
    if x_field.q.is_zero:
        return not _reference_factor_exists(x_field.p.leading_form())
    return not common_real_linear_factors(x_field.p.leading_form(), x_field.q.leading_form())


_small_coeffs = hst.integers(-3, 3)
_small_polys = hst.dictionaries(
    hst.tuples(hst.integers(0, 4), hst.integers(0, 4)).filter(lambda e: sum(e) <= 4),
    _small_coeffs, max_size=5).map(BivarPoly)
# Univariate in x or in y: f^2 + g^2 then depends on one variable, so P = 0 or Q = 0.
_axis_maps = hst.builds(
    lambda axis, a, b: tuple(BivarPoly({(k, 0)[::axis]: c for k, c in enumerate(cs)}) for cs in (a, b)),
    hst.sampled_from([1, -1]), *[hst.lists(_small_coeffs, max_size=5)] * 2)
# Univariate in s = x + c*y: the leading forms of P and Q are equal up to the factor -c.
_line_maps = hst.builds(
    lambda c, a, b: tuple(sum((k * (X + c * Y) ** i for i, k in enumerate(cs)), BivarPoly.zero())
                          for cs in (a, b)),
    hst.integers(-2, 2), *[hst.lists(_small_coeffs, max_size=4)] * 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(hst.one_of(hst.tuples(_small_polys, _small_polys), _axis_maps, _line_maps))
@example((X, X**2))  # P = 0
@example((Y**3, Y))  # Q = 0
@example((X + Y, X + Y))  # P = -Q
@example((X, Y))
def test_cima_condition_matches_the_three_branch_reference(fg):
    # A zero component always gives False: f^2 + g^2 is then nonnegative,
    # nonconstant and in one variable, so of even degree >= 2, and the other
    # component, half its derivative, has a leading form c*x^k or c*y^k, k >= 1.
    f, g = fg
    x_field = hamiltonian_field(f, g)
    assume(not x_field.is_zero)
    expected = _reference_cima(f, g)
    assert cima_condition(f, g) is expected
    if x_field.p.is_zero or x_field.q.is_zero:
        assert expected is False


_small_forms = hst.builds(
    lambda d, cs: BivarPoly({(i, d - i): c for i, c in zip(range(d + 1), cs)}),
    hst.integers(0, 5), hst.lists(_small_coeffs, min_size=6, max_size=6))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_small_forms)
@example(X * Y)
@example(Y**2 - 3 * X**2)
@example(X**2 + Y**2)
@example((Y - 2 * X) ** 2 * (X**2 + Y**2))
def test_common_factors_of_a_form_with_itself_match_the_sturm_reference(form):
    assume(not form.is_zero)
    assert bool(common_real_linear_factors(form, form)) is _reference_factor_exists(form)


# -- certify: degenerate inputs --------------------------------------------------


def test_certify_zero_map_is_not_applicable():
    cert = certify(BivarPoly.zero(), BivarPoly.zero())
    assert cert.verdict == NOT_APPLICABLE
    assert cert.reason == "zero map: the Hamiltonian field vanishes identically"
    assert cert.det_status.status == VANISHES
    assert cert.det_status == det_nonvanishing_heuristic(BivarPoly.zero())
    assert cert.det_status.witness == (Fraction(0), Fraction(0))
    assert cert.diagram is None and cert.monodromy is None
    assert set(cert.timings_ms) == {"total"}


def test_certify_requires_the_origin_fixed():
    cert = certify(X + BivarPoly.const(1), Y)
    assert cert.verdict == NOT_APPLICABLE
    assert cert.reason.startswith("origin is not fixed: F(0,0) = (1, 0)")
    assert "certify the translate" in cert.reason
    assert cert.det_status.status == UNKNOWN
    cert = certify(X + BivarPoly.const(Fraction(1, 2)), Y - BivarPoly.const(3))
    assert cert.reason.startswith("origin is not fixed: F(0,0) = (1/2, -3); ")


def test_certify_stops_on_vanishing_determinant():
    cert = certify(X**2, Y)
    assert cert.verdict == NOT_APPLICABLE
    assert cert.reason.startswith("Jacobian determinant vanishes")
    assert cert.det_status.status == VANISHES
    assert cert.diagram is None
    assert set(cert.timings_ms) == {"det", "total"}

    # Complex squaring: det = 4x^2 + 4y^2 vanishes exactly at the origin.
    cert = certify(X**2 - Y**2, 2 * X * Y)
    assert cert.verdict == NOT_APPLICABLE
    assert cert.det_status.witness == (Fraction(0), Fraction(0))
    assert cert.det_status.witness_exact


# -- certify: main verdicts -------------------------------------------------------


def test_certify_example_families_are_injective():
    for f, g in (example1_map([1, 1], [1]), example2_map([1, 1], [1], [1], [1])):
        cert = certify(f, g)
        assert cert.verdict == INJECTIVE
        assert cert.reason is None
        assert cert.det_status.status == PROVED
        assert cert.monodromy.outcome == MONODROMIC
        assert cert.diagram is not None
        assert cert.compactified == compactify(hamiltonian_field(f, g))
        # The 2016 coprime-leading-forms condition rejects both families;
        # certify no longer runs it, and no stage is timed for it.
        assert cima_condition(f, g) is False
        expected = {"det", "hamiltonian_field", "compactify", "diagram",
                    "monodromy", "total"}
        assert set(cert.timings_ms) == expected


def test_certify_unproved_determinant_is_inconclusive():
    f, g = unknown_det_map()
    cert = certify(f, g)
    assert cert.verdict == INCONCLUSIVE
    assert cert.reason == "origin is monodromic but the determinant hypothesis is unproved"
    assert cert.det_status.status == UNKNOWN
    assert cert.monodromy.outcome == MONODROMIC


def test_certify_factor_on_an_edge_is_inconclusive():
    f, g = factor_edge_map()
    cert = certify(f, g)
    assert cert.verdict == INCONCLUSIVE
    assert cert.reason == "monodromy: Inconclusive (conditions not established: d)"
    assert cert.det_status.status == PROVED
    assert cert.det_status.method == "nonzero constant"
    assert cima_condition(f, g) is False
    assert cert.monodromy.outcome == MONODROMY_INCONCLUSIVE
    failed = [r for r in cert.monodromy.conditions if not r.passed]
    assert [r.condition for r in failed] == ["d"]
    assert failed[0].witnesses


def test_certify_assume_det_overrides_unknown():
    f, g = unknown_det_map()
    cert = certify(f, g, assume_det=True)
    assert cert.verdict == INJECTIVE
    assert cert.det_status.status == ASSUMED
    assert cert.det_status.detail == "determinant hypothesis assumed by the caller"
    assert cert.det_status.holds


def test_certify_assume_det_is_callers_responsibility():
    # det = 1 - 9x^2y^2 really does vanish; without the assumption the run
    # stops, with it the caller owns the hypothesis and the analysis proceeds.
    f, g = X + Y**3, Y + X**3
    assert certify(f, g).verdict == NOT_APPLICABLE
    cert = certify(f, g, assume_det=True)
    assert cert.det_status.status == ASSUMED
    assert cert.verdict == INJECTIVE


def test_certify_assume_det_cannot_rescue_a_zero_determinant():
    cert = certify(X + Y, X + Y, assume_det=True)
    assert cert.verdict == NOT_APPLICABLE
    assert cert.det_status.status == VANISHES
    assert cert.det_status.detail == "determinant is identically zero"


def test_certify_is_deterministic():
    f, g = unknown_det_map()
    first = certify(f, g).to_json_dict()
    second = certify(f, g).to_json_dict()
    first.pop("timings_ms")
    second.pop("timings_ms")
    assert first == second


# -- certify: randomized families --------------------------------------------------


def test_injective_families_certify_injective():
    rng = random.Random(705)
    makers = [linear_map, odd_power_map, rand_example1, rand_example2]
    for maker in makers:
        for _ in range(10):
            f, g = maker(rng)
            cert = certify(f, g)
            assert cert.verdict == INJECTIVE, (f.to_string(), g.to_string())
            assert cert.det_status.status == PROVED


def test_triangular_families_never_misclassify():
    # Triangular maps and shear compositions are injective with constant det,
    # but the one-sided criterion may give up on an edge factor; it must never
    # report anything other than Injective or Inconclusive.
    rng = random.Random(706)
    for maker in (triangular_map, shear_composition):
        for _ in range(15):
            f, g = maker(rng)
            cert = certify(f, g)
            assert cert.verdict in (INJECTIVE, INCONCLUSIVE)
            assert cert.det_status.status == PROVED
            if cert.verdict == INCONCLUSIVE:
                assert "conditions not established" in cert.reason


def test_certify_soundness_gate():
    # Whatever the input, an Injective verdict must be backed by a proved or
    # assumed determinant and a Monodromic diagram.
    rng = random.Random(707)
    for trial in range(60):
        if trial % 2 == 0:
            f, g = rand_any_map(rng)
        else:
            f, g = rand_valid_map(rng)
        cert = certify(f, g)
        assert cert.verdict in (INJECTIVE, INCONCLUSIVE, NOT_APPLICABLE)
        assert (cert.reason is None) == (cert.verdict == INJECTIVE)
        if cert.verdict == INJECTIVE:
            assert cert.det_status.holds
            assert cert.monodromy.outcome == MONODROMIC
        if cert.verdict == NOT_APPLICABLE:
            assert cert.diagram is None


# -- JSON certificates ---------------------------------------------------------------


def load_schema() -> dict:
    text = resources.files("monodroma").joinpath("certificate.schema.json").read_text()
    return json.loads(text)


def test_certificates_validate_against_schema():
    schema = load_schema()
    certs = [
        certify(*example1_map([1, 1], [1])),
        certify(BivarPoly.zero(), BivarPoly.zero()),
        certify(X + BivarPoly.const(1), Y),
        certify(X**2, Y),
        certify(*unknown_det_map()),
        certify(*unknown_det_map(), assume_det=True),
        certify(*factor_edge_map()),
    ]
    for cert in certs:
        doc = cert.to_json_dict()
        jsonschema.validate(doc, schema)
        json.loads(json.dumps(doc))  # everything must already be plain JSON types


def test_det_status_json_carries_exact_evidence():
    schema = load_schema()
    # det = 2x: exact zero at the first grid point with x = 0.
    zero = certify(X**2, Y).to_json_dict()["det_status"]
    assert zero["witness"] == {"x": "0", "y": "-5"} and "segment" not in zero
    # det = x - 1/3: no sample zero, a sign change between two grid points.
    doc = certify(X**2 * Fraction(1, 2) - X * Fraction(1, 3), Y).to_json_dict()
    jsonschema.validate(doc, schema)
    assert doc["det_status"] == {
        "status": VANISHES,
        "segment": {"positive": {"x": "1/2", "y": "-5"}, "negative": {"x": "-5", "y": "-5"}},
        "detail": "sign change between two sample points",
    }
    assert doc["reason"] == "Jacobian determinant vanishes (sign change between two sample points)"
    for bad in ({**doc["det_status"], "witness": zero["witness"]},
                {**zero, "witness": {**zero["witness"], "exact": True}}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**doc, "det_status": bad}, schema)


def _check_with_oracle_json(f: BivarPoly, g: BivarPoly, capsys) -> tuple[int, dict]:
    """``monodroma check --json --with-oracle`` on (f, g): exit code and document."""
    code = cli.main(["check", "--json", "--with-oracle",
                     f"f = {f.to_string()}; g = {g.to_string()}"])
    return code, json.loads(capsys.readouterr().out)


def test_certificate_with_oracle_winding(capsys, monkeypatch):
    made = []

    def recording(f, g, **options):
        made.append(certify(f, g, **options))
        return made[-1]

    monkeypatch.setattr(cli, "certify", recording)
    code, doc = _check_with_oracle_json(*example1_map([1, 1], [1]), capsys)
    assert code == 0 and doc["verdict"] == INJECTIVE
    # The oracle's time goes into the printed document, not the certificate.
    assert "oracle" in doc["timings_ms"] and "oracle" not in made[0].timings_ms
    assert doc["schema"] == 3 and "cima_condition" not in doc
    assert doc["oracle"]["cima_condition"] is False
    with pytest.raises(jsonschema.ValidationError):  # version 2's top-level key
        jsonschema.validate({**doc, "cima_condition": False}, load_schema())
    runs = doc["oracle"]["winding"]
    assert [run["start_radius"] for run in runs] == [0.05, 0.1, 0.3]
    for run in runs:
        assert run["status"] == "returned"
        assert abs(abs(run["angle"]) - 2 * math.pi) < 1e-2
    jsonschema.validate(doc, load_schema())
    assert [run["status"] for run in runs] == ["returned"] * 3


def test_certificate_keeps_the_full_compactified_field():
    # certify builds only the lower terms of b(X); the certificate still
    # hands auditors the full field, and both give the same diagram.
    f, g = parse_poly("x + (y + x^2)^5"), parse_poly("y + x^2")
    cert = certify(f, g)
    full = compactify(hamiltonian_field(f, g))
    lower = compactify_lower(hamiltonian_field(cert.f, cert.g))
    assert len(lower.p) + len(lower.q) < len(full.p) + len(full.q)
    assert cert.compactified == full
    assert cert.diagram == build_diagram(full) == build_diagram(lower)
    assert certify(BivarPoly.zero(), BivarPoly.zero()).compactified is None


def test_certificate_holds_what_its_json_holds():
    # The record keeps the evidence its JSON serializes and no live field,
    # so two runs on one map are equal once their timings are set aside.
    assert [field.name for field in dataclasses.fields(monodroma.Certificate)] == [
        "f", "g", "verdict", "reason", "det_status", "diagram", "monodromy", "timings_ms"]
    f, g = monodroma.parse_map("f = x + x^3; g = y + x^2")
    first, second = (dataclasses.replace(certify(f, g), timings_ms={}) for _ in range(2))
    assert first == second
    assert first.compactified == compactify(hamiltonian_field(f, g))


def test_certificates_compare_and_hash_without_timings():
    # Equality and the hash leave timings_ms out: two runs on one map are
    # equal and hash alike, for every verdict.
    for text in ("f = x + x^3; g = y + x^2", "f = x + x^3 + 3*x*y^2; g = y + 3*x^2*y + y^3",
                 "f = x - x^3; g = y", "f = 0; g = 0"):
        f, g = monodroma.parse_map(text)
        first, second = certify(f, g), certify(f, g)
        other = dataclasses.replace(second, timings_ms={"total": -1.0})
        assert first == second == other, text
        assert hash(first) == hash(second) == hash(other) and len({first, second, other}) == 1
    assert first != dataclasses.replace(first, verdict=INJECTIVE)


def test_reading_compactified_leaves_the_certificate_as_it_was():
    # b(X) is rebuilt on every read, never stored on the certificate.
    f, g = monodroma.parse_map("f = x + x^3; g = y + x^2")
    cert = certify(f, g)
    size = len(pickle.dumps(cert))
    assert cert.compactified == compactify(hamiltonian_field(f, g))
    assert len(pickle.dumps(cert)) == size
    assert "compactified" not in vars(cert)


_ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("name", list(_ROUND_TRIPS))
def test_value_types_copy_and_pickle(name):
    round_trip = _ROUND_TRIPS[name]
    f, g = monodroma.parse_map("f = x + x^3; g = y + x^2")
    for value in (f, BivarPoly.zero(), UniPoly([Fraction(1, 2), -3]), UniPoly(),
                  hamiltonian_field(f, g), PlanarField(-Y, X)):
        assert round_trip(value) == value, value
    cert = certify(f, g)
    copied = round_trip(cert)
    assert copied == cert
    assert copied.compactified == cert.compactified


def test_oracle_winding_integrates_the_full_field(capsys):
    from monodroma import oracle

    f, g = example1_map([1, 1], [1])
    x_field = hamiltonian_field(f, g)
    assert compactify_lower(x_field) != compactify(x_field)
    _, doc = _check_with_oracle_json(f, g, capsys)
    assert doc["oracle"]["cima_condition"] is cima_condition(f, g)
    expected = [oracle.winding(compactify(x_field), (radius, 0.0))
                for radius in (0.05, 0.1, 0.3)]
    assert [(run["angle"], run["status"]) for run in doc["oracle"]["winding"]] == [
        (result.angle, result.status) for result in expected]


def test_certificate_json_shape():
    cert = certify(*example1_map([1, 1], [1]))
    doc = cert.to_json_dict()
    assert doc["verdict"] == INJECTIVE
    assert doc["input"] == {"f": cert.f.to_string(), "g": cert.g.to_string()}
    assert doc["det_status"]["status"] == PROVED
    assert doc["schema"] == 3 and "cima_condition" not in doc
    points = [tuple(v["point"]) for v in doc["diagram"]["vertices"]]
    assert points == [(0, 12), (6, 2), (8, 0)]
    assert all(t["passed"] for t in doc["monodromy"]["conditions"])


def test_pipeline_runs_without_numpy_or_scipy():
    # Only the numeric oracles need numpy and scipy; blocking both imports
    # must leave the package importable, the README map certifiable, and
    # `check` working without ever importing the oracle module.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from monodroma import certify, parse_map\n"
        "from monodroma.cli import main\n"
        "text = 'f = x + x^3; g = y + x^2'\n"
        "print(certify(*parse_map(text)).verdict)\n"
        "assert main(['check', '--json', text]) == 0\n"
        "assert 'monodroma.oracle' not in sys.modules\n"
    )
    package_root = str(Path(monodroma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    verdict, doc = done.stdout.split("\n", 1)
    assert verdict == INJECTIVE
    assert json.loads(doc)["verdict"] == INJECTIVE
