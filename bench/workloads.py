"""Seeded input generators for the four benchmark workloads.

Every generator turns a seed into map *text*; the program under test sees
only that text.  The generators live here, not in the test suite, so a
change to the tests cannot shift the corpus.  A seed changes signs, small
coefficients, variable orientation and the random draws, but not the
shape of the corpus, so the cost of one pass stays close across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("high_degree", "full_field", "random_maps", "big_coeffs")
SHAPE = {
    "high_degree": "check",
    "full_field": "diagram",
    "random_maps": "check",
    "big_coeffs": "check",
}


@dataclass(frozen=True)
class Case:
    """One input map: an id that names it in reports, and its text.

    ``det_zero`` marks maps whose Jacobian determinant has a real zero by
    construction; such a map must never come out Injective.
    """

    id: str
    text: str
    det_zero: bool = False


# -- text helpers --------------------------------------------------------------


def _monomial(c: Fraction, i: int, j: int) -> str:
    """One signed term as text: ' + 3/2*x^2*y' or ' - x'."""
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    factors = [] if mag == 1 and (i or j) else [str(mag)]
    if i:
        factors.append("x" if i == 1 else f"x^{i}")
    if j:
        factors.append("y" if j == 1 else f"y^{j}")
    return f" {sign} " + "*".join(factors)


def poly_text(terms: dict[tuple[int, int], Fraction]) -> str:
    """Polynomial text from an exponent -> coefficient dict (zeros dropped)."""
    body = "".join(_monomial(c, i, j) for (i, j), c in sorted(terms.items()) if c)
    if not body:
        return "0"
    return body[3:] if body.startswith(" + ") else "-" + body[3:]


def map_text(f: dict, g: dict, transpose: bool = False) -> str:
    """``f = ...; g = ...``; ``transpose`` swaps x with y and f with g.

    The transposed map is the original conjugated by the swap of the
    coordinates, so it has the same verdict and the same cost.
    """
    if transpose:
        f, g = ({(j, i): c for (i, j), c in poly.items()} for poly in (g, f))
    return f"f = {poly_text(f)}; g = {poly_text(g)}"


# -- high_degree / full_field --------------------------------------------------


def _signed(c: int) -> str:
    return f" + {c}" if c > 0 else f" - {-c}"


def high_degree(seed: int) -> list[Case]:
    """The sweep f = x + c*(y + a*x^2)^k, g = y + a*x^2 for k = 3..13, three
    times with seeded signs a, c = +-1 and orientation, plus the sparse
    maps f = x + c*y^d, g = y for d = 50, 75, ..., 200 with c = +-1 or +-2:
    40 maps, enough for a p75 with ten maps beyond it.
    """
    rng = random.Random(f"high_degree/{seed}")
    cases = []
    for k in range(3, 14):
        for variant in range(3):
            a = rng.choice((1, -1))
            c = rng.choice((1, -1))
            inner = f"y{_signed(a)}*x^2"
            f = f"x{_signed(c)}*({inner})^{k}"
            g = inner
            if rng.random() < 0.5:
                f, g = (s.replace("x", "Y").replace("y", "x").replace("Y", "y") for s in (g, f))
            cases.append(Case(f"sweep-k{k}-{variant}", f"f = {f}; g = {g}"))
    for d in range(50, 201, 25):
        c = Fraction(rng.choice((1, -1, 2, -2)))
        text = map_text({(1, 0): Fraction(1), (0, d): c}, {(0, 1): Fraction(1)},
                        transpose=rng.random() < 0.5)
        cases.append(Case(f"sparse-d{d}", text))
    return cases


# -- random_maps ---------------------------------------------------------------

# A random map's f and g each draw this many terms of at most this total
# degree, with numerators of at most this size.
_RAND_TERMS = 4
_RAND_DEGREE = 4
_RAND_BOUND = 4


def _rand_fraction(rng: random.Random, bound: int) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, 4))


def _rand_terms(rng: random.Random) -> dict[tuple[int, int], Fraction]:
    """Random polynomial without constant term (the map fixes the origin)."""
    acc: dict[tuple[int, int], Fraction] = {}
    while not any(acc.values()):
        acc = {}
        for _ in range(_RAND_TERMS):
            i = rng.randint(0, _RAND_DEGREE)
            j = rng.randint(0, _RAND_DEGREE - i)
            if i == 0 and j == 0:
                i = 1
            acc[(i, j)] = acc.get((i, j), Fraction(0)) + _rand_fraction(rng, _RAND_BOUND)
    return acc


def _positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 3))


def _posdet_map(rng: random.Random, family: int) -> str:
    """A map whose determinant is positive everywhere but matches neither
    syntactic pattern, so the determinant status ends Unknown.

    Two families:
      f = x + a*x^3 + 3a*x*y^2, g = y + 3a*x^2*y + a*y^3 with
      det = 1 + 6a(x^2 + y^2) + 9a^2 (x^2 - y^2)^2;
      f = x + a*x^5/5 - 2a*x^3*y^2/3 + a*x*y^4, g = y with
      det = 1 + a*(x^2 - y^2)^2.
    """
    a = _positive(rng)
    if family == 0:
        f = {(1, 0): Fraction(1), (3, 0): a, (1, 2): 3 * a}
        g = {(0, 1): Fraction(1), (2, 1): 3 * a, (0, 3): a}
    else:
        f = {(1, 0): Fraction(1), (5, 0): a / 5, (3, 2): -2 * a / 3, (1, 4): a}
        g = {(0, 1): Fraction(1)}
    return map_text(f, g, transpose=rng.random() < 0.5)


def _valid_map(rng: random.Random, family: int) -> str:
    """A map with a provably nonvanishing determinant (constant, or one of
    the admissible odd-power and example families)."""
    if family == 0:  # triangular: det = a*b
        a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
        f = {(1, 0): Fraction(a)}
        for j in range(1, rng.randint(2, 5)):
            f[(0, j)] = f.get((0, j), Fraction(0)) + _rand_fraction(rng, 6)
        g = {(0, 1): Fraction(b)}
    elif family == 1:  # odd power: det = 1 + a*b*p*q*x^(q-1)*y^(p-1) > 0
        p, q = rng.choice((3, 5)), rng.choice((3, 5))
        f = {(1, 0): Fraction(1), (0, p): _positive(rng)}
        g = {(0, 1): Fraction(1), (q, 0): -_positive(rng)}
    elif family == 2:  # example 1: f = x + a*x^3, g = y + b*x^2
        f = {(1, 0): _positive(rng), (3, 0): _positive(rng)}
        g = {(0, 1): Fraction(1), (2, 0): _positive(rng)}
    else:  # example 2
        f = {(0, 1): _positive(rng), (0, 3): _positive(rng), (1, 0): _positive(rng)}
        g = {(0, 1): _positive(rng), (1, 0): -_positive(rng)}
    return map_text(f, g, transpose=rng.random() < 0.5)


def _zero_det_map(rng: random.Random) -> str:
    """f = x - a*x^3, g = y + b*x^2 + c*y^3 with a, c > 0:
    det = (1 - 3a x^2)(1 + 3c y^2) vanishes on x = +-1/sqrt(3a)."""
    f = {(1, 0): Fraction(1), (3, 0): -_positive(rng)}
    g = {(0, 1): Fraction(1), (2, 0): _rand_fraction(rng, 4), (0, 3): _positive(rng)}
    return map_text(f, g, transpose=rng.random() < 0.5)


def random_maps(seed: int) -> list[Case]:
    """200 arbitrary random maps of degree at most 4 (almost all have a
    sign-changing determinant), 30 maps with a positive determinant outside
    the patterns, 30 valid maps and 20 maps with a determinant zero built in.
    The families within each group take turns, so their counts do not
    depend on the seed.
    """
    rng = random.Random(f"random_maps/{seed}")
    cases = []
    for idx in range(200):
        cases.append(Case(f"rand-{idx:03d}",
                          map_text(_rand_terms(rng), _rand_terms(rng))))
    for idx in range(30):
        cases.append(Case(f"posdet-{idx:02d}", _posdet_map(rng, idx % 2)))
    for idx in range(30):
        cases.append(Case(f"valid-{idx:02d}", _valid_map(rng, idx % 4)))
    for idx in range(20):
        cases.append(Case(f"zerodet-{idx:02d}", _zero_det_map(rng), det_zero=True))
    return cases


# -- big_coeffs ----------------------------------------------------------------

# Shapes of the admissible families: example 1 as (n, m), example 2 as
# (m1, m2, m3), odd power as (p, q).  Every pass runs each shape the same
# number of times, so only the coefficients vary with the seed.
_EXAMPLE1_SHAPES = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
_EXAMPLE2_SHAPES = ((1, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1), (3, 1, 2), (3, 2, 2))
_ODD_SHAPES = ((3, 3), (3, 5), (5, 3), (5, 5))
# Every shape appears this many times in the corpus.
_BIG_ROUNDS = 24


def _big(rng: random.Random, digits: int) -> Fraction:
    """A positive integer with the given number of digits."""
    return Fraction(rng.randint(10 ** (digits - 1), 10 ** digits - 1))


def _example1(rng: random.Random, n: int, m: int) -> str:
    """f = sum a_i x^(2i+1), g = y + sum b_i x^(2i+2); four-digit coefficients."""
    f = {(2 * i + 1, 0): _big(rng, 4) for i in range(n + 1)}
    g = {(0, 1): Fraction(1)}
    g.update({(2 * i + 2, 0): _big(rng, 4) for i in range(m)})
    return map_text(f, g)


def _example2(rng: random.Random, m1: int, m2: int, m3: int) -> str:
    """f = sum a_i y^(2i+1) + sum b_i x^(2i+1), g = sum c_i y^(2i+1) - sum d_i x^(2i+1);
    three-digit coefficients."""
    f = {(0, 2 * i + 1): _big(rng, 3) for i in range(m1 + 1)}
    f.update({(2 * i + 1, 0): _big(rng, 3) for i in range(m2 + 1)})
    g = {(0, 2 * i + 1): _big(rng, 3) for i in range(m3 + 1)}
    g.update({(2 * i + 1, 0): -_big(rng, 3) for i in range(m2 + 1)})
    return map_text(f, g)


def _odd_power(rng: random.Random, p: int, q: int) -> str:
    """f = x + a*y^p, g = y - b*x^q with three-digit a, b > 0."""
    return map_text({(1, 0): Fraction(1), (0, p): _big(rng, 3)},
                    {(0, 1): Fraction(1), (q, 0): -_big(rng, 3)})


def big_coeffs(seed: int) -> list[Case]:
    """The admissible families with 3-4 digit integer coefficients: every
    shape ``_BIG_ROUNDS`` times, each time with fresh seeded coefficients.

    Example 2 and the odd powers use three digits: with four, one map in a
    few dozen takes more than 100 ms in divisor enumeration, and the pass
    cost then varies too much from seed to seed to compare two commits."""
    rng = random.Random(f"big_coeffs/{seed}")
    cases = []
    for r in range(_BIG_ROUNDS):
        for n, m in _EXAMPLE1_SHAPES:
            cases.append(Case(f"ex1-{n}{m}-{r}", _example1(rng, n, m)))
        for m1, m2, m3 in _EXAMPLE2_SHAPES:
            cases.append(Case(f"ex2-{m1}{m2}{m3}-{r}", _example2(rng, m1, m2, m3)))
        for p, q in _ODD_SHAPES:
            cases.append(Case(f"odd-{p}{q}-{r}", _odd_power(rng, p, q)))
    return cases


_GENERATORS = {
    "high_degree": high_degree,
    "full_field": high_degree,
    "random_maps": random_maps,
    "big_coeffs": big_coeffs,
}

# The smallest maps of each corpus, for the self-test.
_TINY_IDS = {
    "high_degree": ("sweep-k3-0", "sweep-k4-1", "sparse-d50"),
    "full_field": ("sweep-k3-0", "sweep-k4-1", "sparse-d50"),
    "random_maps": ("rand-000", "posdet-00", "valid-00", "zerodet-00"),
    "big_coeffs": ("ex1-11-0", "ex2-100-0", "odd-33-0"),
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    """The workload's corpus for ``seed``; ``tiny`` keeps a few small maps."""
    cases = _GENERATORS[workload](seed)
    if tiny:
        keep = _TINY_IDS[workload]
        cases = [c for c in cases if c.id in keep]
    return cases


# -- known answers ---------------------------------------------------------------

# The README map and the pinned fixtures of the acceptance tests, with the
# answers pinned there.  ``vertices`` and ``betas`` are checked when given.
KNOWN_ANSWERS = (
    {"text": "f = x + x^3; g = y + x^2", "verdict": "Injective",
     "vertices": [(0, 12), (6, 2), (8, 0)], "betas": {(6, 2): "1/32"},
     "edge_types": [(1, 1), (5, 3)]},
    {"text": "f = x + x^3 + x^5; g = y + x^2", "verdict": "Injective",
     "vertices": [(0, 20), (10, 2), (12, 0)]},
    {"text": "f = x + x^3 + x^5; g = y + x^2 + x^4", "verdict": "Injective",
     "vertices": [(0, 20), (10, 2), (12, 0)]},
    {"text": "f = x + x^3 + x^5 + x^7; g = y + x^2 + x^4", "verdict": "Injective",
     "vertices": [(0, 28), (14, 2), (16, 0)]},
    {"text": "f = y + y^3 + x; g = y - x", "verdict": "Injective",
     "vertices": [(0, 8), (2, 6), (12, 0)], "edge_types": [(1, 1), (3, 5)]},
    {"text": "f = y + y^3 + y^5 + x + x^3; g = y + y^3 - x - x^3", "verdict": "Injective"},
    {"text": "f = y + y^3 + y^5 + x; g = y - x", "verdict": "Injective"},
    {"text": "f = x + x^3 + 3*x*y^2; g = y + 3*x^2*y + y^3", "verdict": "Inconclusive",
     "det_status": "Unknown"},
    {"text": "f = x - x^3; g = y", "verdict": "NotApplicable", "det_status": "VanishesAt"},
)
