"""Shared generators for the test suite.

Every sampling test builds its own ``random.Random`` with an explicit seed
so that failures reproduce exactly.  The map families below come with
provable side facts that the tests rely on:

* ``linear_map``: invertible, det constant, coprime leading forms.
* ``triangular_map``: det equal to a nonzero constant.
* ``shear_composition``: det identically 1.
* ``odd_power_map``: det = 1 + a*b*p*q*x^(q-1)*y^(p-1), positive everywhere.
* ``example1_map`` / ``example2_map``: the two odd-coefficient families with
  known diagrams; admissible coefficients keep det positive.
"""

from __future__ import annotations

import random
from fractions import Fraction

from monodroma import BivarPoly, PlanarField

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


# -- raw polynomial generators -------------------------------------------------


def rand_fraction(rng: random.Random, bound: int = 6, allow_zero: bool = True) -> Fraction:
    num = rng.randint(-bound, bound)
    while num == 0 and not allow_zero:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, 4))


def rand_poly(rng: random.Random, max_degree: int = 4, terms: int = 5,
              bound: int = 6, zero_constant: bool = False) -> BivarPoly:
    acc: dict[tuple[int, int], Fraction] = {}
    for _ in range(terms):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        if zero_constant and i == 0 and j == 0:
            i = 1
        c = rand_fraction(rng, bound)
        acc[(i, j)] = acc.get((i, j), Fraction(0)) + c
    return BivarPoly(acc)


def rand_nonzero_poly(rng: random.Random, max_degree: int = 4, terms: int = 5,
                      bound: int = 6, zero_constant: bool = False) -> BivarPoly:
    while True:
        p = rand_poly(rng, max_degree, terms, bound, zero_constant)
        if not p.is_zero:
            return p


def rand_homogeneous(rng: random.Random, degree: int, bound: int = 6) -> BivarPoly:
    acc = {}
    for i in range(degree + 1):
        if rng.random() < 0.6:
            acc[(i, degree - i)] = rand_fraction(rng, bound)
    poly = BivarPoly(acc)
    if poly.is_zero:
        i = rng.randint(0, degree)
        poly = BivarPoly.monomial(i, degree - i, rand_fraction(rng, bound, allow_zero=False))
    return poly


def lattice_on_line(t: tuple[int, int], value: int) -> list[tuple[int, int]]:
    """Nonnegative lattice points on t1*i + t2*j = value, by increasing i.

    On the axis types (1, 0) and (0, 1) the free exponent runs up to value.
    """
    t1, t2 = t
    return [(i, j) for i in range(value + 1) for j in range(value + 1) if t1 * i + t2 * j == value]


def rand_quasi_poly(rng: random.Random, t: tuple[int, int], value: int,
                    bound: int = 6) -> BivarPoly:
    """Nonzero quasi-homogeneous polynomial of type t and quasi-degree value."""
    points = lattice_on_line(t, value)
    if not points:
        raise ValueError(f"no lattice points on {t} = {value}")
    acc = {pt: rand_fraction(rng, bound) for pt in points if rng.random() < 0.7}
    poly = BivarPoly(acc)
    if poly.is_zero:
        poly = BivarPoly.monomial(*rng.choice(points), rand_fraction(rng, bound, allow_zero=False))
    return poly


def rand_type(rng: random.Random, bound: int = 5) -> tuple[int, int]:
    while True:
        t1 = rng.randint(1, bound)
        t2 = rng.randint(1, bound)
        from math import gcd
        if gcd(t1, t2) == 1:
            return (t1, t2)


def rand_quasi_field(rng: random.Random, t: tuple[int, int], k: int,
                     bound: int = 6) -> PlanarField:
    """Nonzero quasi-homogeneous field of type t and degree k >= 1."""
    t1, t2 = t
    while True:
        p = rand_quasi_poly(rng, t, k + t1, bound) if lattice_on_line(t, k + t1) else BivarPoly.zero()
        q = rand_quasi_poly(rng, t, k + t2, bound) if lattice_on_line(t, k + t2) else BivarPoly.zero()
        if rng.random() < 0.2:
            p = BivarPoly.zero()
        if rng.random() < 0.2:
            q = BivarPoly.zero()
        field = PlanarField(p, q)
        if not field.is_zero:
            return field


def compose(p: BivarPoly, gx: BivarPoly, gy: BivarPoly) -> BivarPoly:
    """p(gx, gy) by direct substitution."""
    acc = BivarPoly.zero()
    for (i, j), c in p.terms():
        acc = acc + gx ** i * gy ** j * c
    return acc


# -- map families ----------------------------------------------------------------


def example1_map(a_coeffs: list[Fraction], b_coeffs: list[Fraction]) -> tuple[BivarPoly, BivarPoly]:
    """f = sum a_i x^(2i+1), g = y + sum_{i>=1} b_i x^(2i)."""
    f = BivarPoly({(2 * i + 1, 0): c for i, c in enumerate(a_coeffs)})
    g = Y + BivarPoly({(2 * (i + 1), 0): c for i, c in enumerate(b_coeffs)})
    return f, g


def rand_example1(rng: random.Random) -> tuple[BivarPoly, BivarPoly]:
    """Admissible random instance: a_i, b_i >= 0, a_0, a_n, b_m > 0, n >= m >= 1."""
    n = rng.randint(1, 3)
    m = rng.randint(1, n)
    a = [rand_positive(rng) if i in (0, n) else rand_nonneg(rng) for i in range(n + 1)]
    b = [rand_positive(rng) if i == m - 1 else rand_nonneg(rng) for i in range(m)]
    return example1_map(a, b)


def example2_map(a: list[Fraction], b: list[Fraction], c: list[Fraction],
                 d: list[Fraction]) -> tuple[BivarPoly, BivarPoly]:
    """f = sum a_i y^(2i+1) + sum b_i x^(2i+1), g = sum c_i y^(2i+1) - sum d_i x^(2i+1)."""
    f = BivarPoly({(0, 2 * i + 1): v for i, v in enumerate(a)}) \
        + BivarPoly({(2 * i + 1, 0): v for i, v in enumerate(b)})
    g = BivarPoly({(0, 2 * i + 1): v for i, v in enumerate(c)}) \
        - BivarPoly({(2 * i + 1, 0): v for i, v in enumerate(d)})
    return f, g


def rand_positive(rng: random.Random, bound: int = 4) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, 2))


def rand_nonneg(rng: random.Random, bound: int = 4) -> Fraction:
    return Fraction(rng.randint(0, bound), rng.randint(1, 2))


def rand_example2(rng: random.Random) -> tuple[BivarPoly, BivarPoly]:
    """Admissible random instance: all coefficients >= 0, b0*c0 + a0*d0 > 0,
    a_m1 > 0, b_m2 > 0, d_m2 > 0, m1 > max(m2, m3) >= 0."""
    m1 = rng.randint(1, 3)
    m2 = rng.randint(0, m1 - 1)
    m3 = rng.randint(0, m1 - 1)
    a = [rand_nonneg(rng) for _ in range(m1 + 1)]
    a[m1] = rand_positive(rng)
    b = [rand_nonneg(rng) for _ in range(m2 + 1)]
    b[m2] = rand_positive(rng)
    c = [rand_nonneg(rng) for _ in range(m3 + 1)]
    d = [rand_nonneg(rng) for _ in range(m2 + 1)]
    d[m2] = rand_positive(rng)
    if b[0] * c[0] + a[0] * d[0] == 0:
        b[0] = rand_positive(rng)
        c[0] = rand_positive(rng)
    return example2_map(a, b, c, d)


def linear_map(rng: random.Random) -> tuple[BivarPoly, BivarPoly]:
    """Invertible linear map with integer entries."""
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c != 0:
            return X * a + Y * b, X * c + Y * d


def triangular_map(rng: random.Random) -> tuple[BivarPoly, BivarPoly]:
    """f = a*x + p(y), g = b*y with a, b nonzero: det = a*b."""
    a = rng.choice([-3, -2, -1, 1, 2, 3])
    b = rng.choice([-3, -2, -1, 1, 2, 3])
    p = BivarPoly({(0, j): rand_fraction(rng) for j in range(1, rng.randint(2, 5))})
    return X * a + p, Y * b


def _rand_univar(rng: random.Random, axis: int, max_degree: int = 3) -> BivarPoly:
    mono = (lambda j, c: BivarPoly.monomial(j, 0, c)) if axis == 0 else \
        (lambda j, c: BivarPoly.monomial(0, j, c))
    acc = BivarPoly.zero()
    for j in range(1, max_degree + 1):
        if rng.random() < 0.6:
            acc = acc + mono(j, rng.randint(-2, 2))
    return acc


def shear_composition(rng: random.Random) -> tuple[BivarPoly, BivarPoly]:
    """Composition of two unipotent shears: det identically 1, origin fixed."""
    p = _rand_univar(rng, 1)
    q = _rand_univar(rng, 0)
    inner = Y + q
    f = X + compose(p, X, inner)
    g = inner
    if rng.random() < 0.5:
        # Transpose the roles of the variables for the mirrored family.
        f, g = (BivarPoly({(j, i): c for (i, j), c in poly.terms()}) for poly in (g, f))
    return f, g


def odd_power_map(rng: random.Random, equal_powers: bool = False) -> tuple[BivarPoly, BivarPoly]:
    """f = x + a*y^p, g = y - b*x^q with a, b > 0 and odd p, q >= 3."""
    p = rng.choice([3, 5])
    q = p if equal_powers else rng.choice([3, 5])
    a = rand_positive(rng)
    b = rand_positive(rng)
    return X + BivarPoly.monomial(0, p, a), Y - BivarPoly.monomial(q, 0, b)


VALID_FAMILIES = ("linear", "triangular", "shear", "odd_power", "example1", "example2")


def rand_valid_map(rng: random.Random) -> tuple[BivarPoly, BivarPoly]:
    """A map with provably nonvanishing Jacobian determinant, fixing the origin."""
    family = rng.choice(VALID_FAMILIES)
    if family == "linear":
        return linear_map(rng)
    if family == "triangular":
        return triangular_map(rng)
    if family == "shear":
        return shear_composition(rng)
    if family == "odd_power":
        return odd_power_map(rng)
    if family == "example1":
        return rand_example1(rng)
    return rand_example2(rng)


def rand_any_map(rng: random.Random, max_degree: int = 4) -> tuple[BivarPoly, BivarPoly]:
    """Arbitrary map fixing the origin; no injectivity or det guarantee."""
    f = rand_nonzero_poly(rng, max_degree, terms=4, bound=4, zero_constant=True)
    g = rand_nonzero_poly(rng, max_degree, terms=4, bound=4, zero_constant=True)
    return f, g
