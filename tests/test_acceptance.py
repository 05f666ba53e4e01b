"""Acceptance suite: one test per shipping criterion, each ending in a single
PASS line.  Tolerances and time budgets are part of the criteria."""

import math
import random
import time
from fractions import Fraction

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

from monodroma import (
    BivarPoly,
    PlanarField,
    build_diagram,
    certify,
    compactify,
    det_nonvanishing_heuristic,
    hamiltonian_field,
    jacobian_det,
    parse_poly,
    quasi_factor_test,
)
from monodroma.diagram import newton_chain
from monodroma.monodromy import MONODROMIC
from monodroma.pipeline import INJECTIVE, PROVED, cima_condition
from monodroma.realroots import UniPoly, squarefree_part, sturm_count
from monodroma.oracle import brute_force_diagram, diagonal_part, map_degree, numeric_root_count, winding

U = BivarPoly.monomial(1, 0)
V = BivarPoly.monomial(0, 1)


def vertex_points(dia):
    return [v.point for v in dia.vertices]


def bounded_edges(dia):
    return [e for e in dia.edges if e.bounded]


def test_criterion_01_first_family_fixture():
    start = time.perf_counter()
    f, g = example1_map([1, 1], [1])
    cert = certify(f, g)
    elapsed = time.perf_counter() - start

    assert cert.verdict == INJECTIVE
    dia = cert.diagram
    assert vertex_points(dia) == [(0, 12), (6, 2), (8, 0)]
    by_type = {e.t: e for e in bounded_edges(dia)}
    assert set(by_type) == {(5, 3), (1, 1)}
    assert by_type[(5, 3)].h == (U**6 * V**2 + V**12) * Fraction(1, 12)
    assert by_type[(1, 1)].h == (U**8 + U**6 * V**2) * Fraction(3, 8)
    betas = dict(dia.inner_betas)
    assert betas[(6, 2)] == Fraction(1, 32) and betas[(6, 2)] > 0
    assert elapsed < 2.0
    print("criterion 1: PASS")


def test_criterion_02_first_family_sweep():
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 2)):
        start = time.perf_counter()
        f, g = example1_map([1] * (n + 1), [1] * m)
        cert = certify(f, g)
        elapsed = time.perf_counter() - start
        assert cert.verdict == INJECTIVE, (n, m)
        expected = [(0, 4 * (2 * n + 1)), (2 * (2 * n + 1), 2), (4 * (n + 1), 0)]
        assert vertex_points(cert.diagram) == expected, (n, m)
        assert elapsed < 10.0, (n, m)
    print("criterion 2: PASS")


def test_criterion_03_second_family_fixture_and_sweep():
    start = time.perf_counter()
    f, g = example2_map([1, 1], [1], [1], [1])
    assert jacobian_det(f, g) == parse_poly("3*y^2 + 2")
    cert = certify(f, g)
    elapsed = time.perf_counter() - start
    assert cert.verdict == INJECTIVE
    assert vertex_points(cert.diagram) == [(0, 8), (2, 6), (12, 0)]
    assert {e.t for e in bounded_edges(cert.diagram)} == {(1, 1), (3, 5)}
    assert elapsed < 2.0

    sweep = {
        (1, 0, 0): ([1, 1], [1], [1], [1]),
        (2, 1, 1): ([1, 1, 1], [1, 1], [1, 1], [1, 1]),
        (2, 0, 0): ([1, 1, 1], [1], [1], [1]),
    }
    for key, (a, b, c, d) in sweep.items():
        cert = certify(*example2_map(a, b, c, d))
        assert cert.verdict == INJECTIVE, key
    print("criterion 3: PASS")


def test_criterion_04_coprimality_check_on_the_families():
    assert cima_condition(U, V) is True
    assert cima_condition(*example1_map([1, 1], [1])) is False
    assert cima_condition(*example2_map([1, 1], [1], [1], [1])) is False
    rng = random.Random(404)
    for _ in range(10):
        assert cima_condition(*rand_example1(rng)) is False
        assert cima_condition(*rand_example2(rng)) is False
    print("criterion 4: PASS")


def test_criterion_05_coprime_maps_have_factor_free_edges():
    # The criterion generalizes the coprime-leading-forms condition of
    # [JDE 260 (2016) 5250-5258]: every map that condition accepts, with a
    # proved determinant, must come out Monodromic.
    start = time.perf_counter()
    rng = random.Random(405)
    makers = [linear_map, odd_power_map,
              lambda r: odd_power_map(r, equal_powers=True),
              triangular_map, shear_composition, rand_valid_map]
    accepted = 0
    while accepted < 200:
        f, g = rng.choice(makers)(rng)
        if cima_condition(f, g) is not True:
            continue
        if det_nonvanishing_heuristic(jacobian_det(f, g)).status != PROVED:
            continue
        dia = build_diagram(compactify(hamiltonian_field(f, g)))
        for edge in bounded_edges(dia):
            assert quasi_factor_test(edge.h, edge.t).has_factor is False, (
                f.to_string(), g.to_string(), edge.t)
        assert certify(f, g).monodromy.outcome == MONODROMIC, (f.to_string(), g.to_string())
        accepted += 1
    assert time.perf_counter() - start < 300.0
    print("criterion 5: PASS")


def test_criterion_06_valid_maps_satisfy_the_monodromy_conditions():
    rng = random.Random(406)
    accepted = 0
    while accepted < 200:
        f, g = rand_valid_map(rng)
        if det_nonvanishing_heuristic(jacobian_det(f, g)).status != PROVED:
            continue
        dia = build_diagram(compactify(hamiltonian_field(f, g)))
        context = (f.to_string(), g.to_string())
        assert all(v.point[0] % 2 == 0 and v.point[1] % 2 == 0
                   for v in dia.vertices), context
        first, last = dia.vertices[0], dia.vertices[-1]
        assert first.kind == "exterior" and last.kind == "exterior", context
        assert sum(1 for v in dia.vertices if v.kind == "exterior") == 2, context
        assert first.coeff[1] == 0 and last.coeff[0] == 0, context
        assert first.coeff[0] * last.coeff[1] < 0, context
        assert dia.beta_undefined == (), context
        assert all(beta > 0 for _, beta in dia.inner_betas), context
        assert all(not e.h.is_zero for e in bounded_edges(dia)), context
        accepted += 1
    print("criterion 6: PASS")


def test_criterion_07_diagonal_part_has_the_same_vertices():
    rng = random.Random(407)
    accepted = 0
    while accepted < 200:
        f, g = rand_any_map(rng)
        if map_degree(f, g) == 0 or hamiltonian_field(f, g).is_zero:
            continue
        b_field = compactify(hamiltonian_field(f, g))
        y_field = diagonal_part(f, g)
        assert vertex_points(build_diagram(b_field)) == \
            vertex_points(build_diagram(y_field)), (f.to_string(), g.to_string())
        accepted += 1
    print("criterion 7: PASS")


def test_criterion_08_sturm_count_matches_the_numeric_oracle():
    rng = random.Random(408)
    for trial in range(500):
        degree = rng.randint(1, 12)
        coeffs = [Fraction(rng.randint(-100, 100)) for _ in range(degree)]
        coeffs.append(Fraction(rng.choice([k for k in range(-100, 101) if k])))
        p = squarefree_part(UniPoly(coeffs))
        assert sturm_count(p) == numeric_root_count(p), (trial, p.coeffs)
    print("criterion 8: PASS")


def test_criterion_09_diagram_chain_matches_the_brute_force_oracle():
    rng = random.Random(409)
    for trial in range(500):
        points = {(rng.randint(0, 40), rng.randint(0, 40))
                  for _ in range(rng.randint(1, 25))}
        points.discard((0, 0))
        if not points:
            points = {(1, 0)}
        expected = brute_force_diagram(points)
        assert newton_chain(points) == expected, (trial, sorted(points))
        p = sum((BivarPoly.monomial(i, j - 1) for i, j in points if j >= 1),
                BivarPoly.zero())
        q = sum((BivarPoly.monomial(i - 1, 0) for i, j in points if j == 0),
                BivarPoly.zero())
        dia = build_diagram(PlanarField(p, q))
        assert vertex_points(dia) == expected, (trial, sorted(points))
    print("criterion 9: PASS")


def test_criterion_10_winding_cross_check():
    fields = [
        compactify(hamiltonian_field(*example1_map([1, 1], [1]))),
        compactify(hamiltonian_field(*example2_map([1, 1], [1], [1], [1]))),
        compactify(hamiltonian_field(U, V)),
    ]
    for field in fields:
        for radius in (0.05, 0.1, 0.3):
            result = winding(field, (radius, 0.0))
            assert result.status == "returned"
            assert abs(abs(result.angle) - 2 * math.pi) < 1e-2
    print("criterion 10: PASS")
