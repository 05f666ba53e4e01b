"""Exact sparse bivariate polynomials over the rationals.

Everything downstream (vector fields, Newton diagrams, edge Hamiltonians)
is built on :class:`BivarPoly`.  Coefficients are :class:`fractions.Fraction`,
exponents are non-negative machine integers, and the zero polynomial is the
empty term map, so equality of values is equality of representations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import ItemsView, Iterable, Iterator, Mapping, Union

Monomial = tuple[int, int]
Scalar = Union[int, Fraction]

# Exponents must stay within a machine word; arithmetic that would pass this
# bound is a hard error, never a silent wrap.
MAX_EXPONENT = 2**62


class ExponentOverflowError(OverflowError):
    """An exponent left the supported machine-word range."""


class ZeroPolynomialError(ValueError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


def _check_exponent(n: int) -> int:
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    if n > MAX_EXPONENT:
        raise ExponentOverflowError(f"exponent {n} exceeds {MAX_EXPONENT}")
    return n


def _coerce(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction coefficient, got {type(c).__name__}")


class BivarPoly:
    """Immutable polynomial in two variables with Fraction coefficients.

    Terms are stored sparsely as ``{(i, j): c}`` with every ``c`` nonzero.
    Instances are value objects: hashable, comparable, never mutated.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for (i, j), c in items:
            key = (_check_exponent(i), _check_exponent(j))
            val = acc.get(key, Fraction(0)) + _coerce(c)
            if val:
                acc[key] = val
            else:
                acc.pop(key, None)
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BivarPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "BivarPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar = 1) -> "BivarPoly":
        return cls({(i, j): c})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate terms sorted by (x-exponent, y-exponent)."""
        return iter(sorted(self._terms.items()))

    def items(self) -> ItemsView[Monomial, Fraction]:
        """Terms in storage order, unsorted: one cheap pass over them."""
        return self._terms.items()

    def support(self) -> list[Monomial]:
        return sorted(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivarPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == BivarPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"BivarPoly({self.to_string()!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BivarPoly | Scalar") -> "BivarPoly":
        other = _as_poly(other)
        acc = dict(self._terms)
        for key, c in other._terms.items():
            val = acc.get(key, Fraction(0)) + c
            if val:
                acc[key] = val
            else:
                acc.pop(key, None)
        return _raw(acc)

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        return _raw({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "BivarPoly | Scalar") -> "BivarPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: Scalar) -> "BivarPoly":
        return _as_poly(other) - self

    def __mul__(self, other: "BivarPoly | Scalar") -> "BivarPoly":
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return BivarPoly.zero()
            return _raw({key: v * c for key, v in self._terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return BivarPoly.zero()
        # Every exponent sum is at most the sum of the largest exponents, and
        # that sum is reached, so one check per product covers all term pairs.
        _, dx1, dy1 = self.degrees()
        _, dx2, dy2 = other.degrees()
        _check_exponent(dx1 + dx2)
        _check_exponent(dy1 + dy2)
        (a,), den_a = _integer_terms(self)
        (b,), den_b = _integer_terms(other)
        acc: dict[Monomial, int] = {}
        get = acc.get
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                acc[key] = get(key, 0) + c1 * c2
        return _from_integer_terms(acc, den_a * den_b)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivarPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = BivarPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and evaluation -------------------------------------------

    def partial(self, axis: int) -> "BivarPoly":
        """Partial derivative; axis 0 is the first variable, 1 the second."""
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        acc: dict[Monomial, Fraction] = {}
        for (i, j), c in self._terms.items():
            e = (i, j)[axis]
            if e == 0:
                continue
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            acc[key] = c * e
        return _raw(acc)

    def evaluate(self, x: Scalar, y: Scalar) -> Fraction:
        x, y = _coerce(x), _coerce(y)
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            total += c * x**i * y**j
        return total

    # -- degrees and gradings ----------------------------------------------

    def degrees(self) -> tuple[int, int, int]:
        """Return (total degree, degree in x, degree in y); error on zero."""
        if not self._terms:
            raise ZeroPolynomialError("degree of the zero polynomial")
        total = max(i + j for i, j in self._terms)
        dx = max(i for i, _ in self._terms)
        dy = max(j for _, j in self._terms)
        return total, dx, dy

    def total_degree(self) -> int:
        return self.degrees()[0]

    def min_exponents(self) -> tuple[int, int]:
        """Smallest x-exponent and smallest y-exponent over the support."""
        if not self._terms:
            raise ZeroPolynomialError("min exponents of the zero polynomial")
        return min(i for i, _ in self._terms), min(j for _, j in self._terms)

    def quasi_components(self, t: "QuasiType") -> list[tuple[int, "BivarPoly"]]:
        """Split into quasi-homogeneous parts of type t, ascending quasi-degree.

        The zero polynomial yields an empty list.
        """
        t1, t2 = quasi_type(*t)
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for (i, j), c in self._terms.items():
            buckets.setdefault(t1 * i + t2 * j, {})[(i, j)] = c
        return [(k, _raw(buckets[k])) for k in sorted(buckets)]

    def quasi_part(self, t: "QuasiType", degree: int) -> "BivarPoly":
        """The quasi-homogeneous part of type t and the given quasi-degree;
        zero when no term has that quasi-degree."""
        t1, t2 = quasi_type(*t)
        return _raw({(i, j): c for (i, j), c in self._terms.items() if t1 * i + t2 * j == degree})

    def homogeneous_components(self) -> list[tuple[int, "BivarPoly"]]:
        return self.quasi_components((1, 1))

    def leading_form(self) -> "BivarPoly":
        """Top total-degree homogeneous part; error on zero."""
        comps = self.homogeneous_components()
        if not comps:
            raise ZeroPolynomialError("leading form of the zero polynomial")
        return comps[-1][1]

    def quasi_degree(self, t: "QuasiType") -> int:
        """Quasi-degree if quasi-homogeneous of type t; error otherwise."""
        comps = self.quasi_components(t)
        if len(comps) != 1:
            raise ValueError(f"polynomial is not quasi-homogeneous of type {t}")
        return comps[0][0]

    def is_quasi_homogeneous(self, t: "QuasiType") -> bool:
        return len(self.quasi_components(t)) <= 1

    # -- formatting ---------------------------------------------------------

    def to_string(self, variables: tuple[str, str] = ("x", "y")) -> str:
        """Render in the grammar accepted by the expression parser."""
        if not self._terms:
            return "0"
        vx, vy = variables
        parts: list[str] = []
        for (i, j), c in sorted(self._terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
            factors: list[str] = []
            if i:
                factors.append(vx if i == 1 else f"{vx}^{i}")
            if j:
                factors.append(vy if j == 1 else f"{vy}^{j}")
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_term_list(self) -> list[tuple[int, int, str]]:
        """JSON-friendly sorted term list [(i, j, "p/q"), ...]."""
        return [(i, j, str(c)) for (i, j), c in self.terms()]

    @classmethod
    def from_term_list(cls, items: Iterable[tuple[int, int, str]]) -> "BivarPoly":
        return cls({(int(i), int(j)): Fraction(c) for i, j, c in items})


def _raw(terms: dict[Monomial, Fraction]) -> BivarPoly:
    """Wrap an already-canonical term dict without re-validating."""
    p = BivarPoly.__new__(BivarPoly)
    object.__setattr__(p, "_terms", terms)
    return p


def _integer_terms(*polys: BivarPoly) -> tuple[list[dict[Monomial, int]], int]:
    """Scale polynomials to integer term dicts over one common denominator.

    Returns the integer dicts, in argument order, and the denominator: the
    lcm of every coefficient denominator.
    """
    den = lcm(*(c.denominator for p in polys for c in p._terms.values()))
    return [
        {key: c.numerator * (den // c.denominator) for key, c in p._terms.items()}
        for p in polys
    ], den


def _from_integer_terms(acc: Mapping[Monomial, int], den: int) -> BivarPoly:
    """The polynomial with coefficients acc/den; zero entries are dropped."""
    if den == 1:
        return _raw({key: Fraction(c) for key, c in acc.items() if c})
    return _raw({key: Fraction(c, den) for key, c in acc.items() if c})


def _as_poly(value: "BivarPoly | Scalar") -> BivarPoly:
    if isinstance(value, BivarPoly):
        return value
    return BivarPoly.const(value)


QuasiType = tuple[int, int]


def quasi_type(t1: int, t2: int) -> QuasiType:
    """Validate a quasi-homogeneity type: coprime non-negative, not (0, 0)."""
    if t1 < 0 or t2 < 0:
        raise ValueError(f"quasi-homogeneity type must be non-negative, got {(t1, t2)}")
    if t1 == 0 and t2 == 0:
        raise ValueError("quasi-homogeneity type (0, 0) is not allowed")
    if gcd(t1, t2) != 1:
        raise ValueError(f"quasi-homogeneity type {(t1, t2)} is not coprime")
    return (t1, t2)


X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)
