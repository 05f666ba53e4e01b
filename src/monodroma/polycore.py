"""Exact sparse bivariate polynomials over the rationals.

Everything downstream (vector fields, Newton diagrams, edge Hamiltonians)
is built on :class:`BivarPoly`, stored as integer numerators ``{(i, j): n}``
over one positive denominator in lowest terms (no zero numerator, gcd of all
of them 1), so equality of values is equality of representations.  Every
operation works on integers and ends in one normaliser; Fractions appear
only where a coefficient or a value is handed out.  Products, squares and
powers run on three numerator kernels, mul_numerators, _square_numerators
and pow_numerators, which the parser, the energy (f^2 + g^2)/2 and
jacobian_det call too.  Exponents are non-negative machine integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

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
    """Immutable polynomial in two variables with rational coefficients,
    stored as the module docstring says.  Instances are value objects:
    hashable, comparable, never mutated.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        items = [((_check_exponent(i), _check_exponent(j)), _coerce(c))
                 for (i, j), c in (terms.items() if isinstance(terms, Mapping) else terms)]
        den = lcm(*(c.denominator for _, c in items))
        acc: dict[Monomial, int] = {}
        for key, c in items:
            acc[key] = acc.get(key, 0) + c.numerator * (den // c.denominator)
        _normalise(acc, den, self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BivarPoly is immutable")

    def __reduce__(self):
        # __setattr__ refuses the slot-by-slot restore that copy and pickle would do.
        return BivarPoly.from_numerators, (dict(self._num), self._den)

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

    @classmethod
    def from_numerators(cls, num: Mapping[Monomial, int], den: int) -> "BivarPoly":
        """The polynomial sum num[i, j]/den x^i y^j, for integers num and
        den > 0 in any scaling: zero entries are dropped, the fraction reduced."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if num:
            _check_exponent(min(map(min, num)))
            _check_exponent(max(map(max, num)))
        return _normalise(num, den)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def numerators(self) -> tuple[Mapping[Monomial, int], int]:
        """The stored form: read-only integer numerators, unsorted, and
        their common positive denominator, in lowest terms."""
        return MappingProxyType(self._num), self._den

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self._num.get((i, j), 0), self._den)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate terms sorted by (x-exponent, y-exponent)."""
        return ((key, Fraction(n, self._den)) for key, n in sorted(self._num.items()))

    def support(self) -> list[Monomial]:
        return sorted(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivarPoly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == BivarPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its scalar, so it must hash like one.
        if self._num.keys() <= {(0, 0)}:
            return hash(Fraction(self._num.get((0, 0), 0), self._den))
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"BivarPoly({self.to_string()!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BivarPoly | Scalar") -> "BivarPoly":
        other = _as_poly(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        acc = {key: n * sa for key, n in self._num.items()}
        for key, n in other._num.items():
            acc[key] = acc.get(key, 0) + n * sb
        return _normalise(acc, den)

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        return _normalise({key: -n for key, n in self._num.items()}, self._den)

    def __sub__(self, other: "BivarPoly | Scalar") -> "BivarPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: Scalar) -> "BivarPoly":
        return _as_poly(other) - self

    def __mul__(self, other: "BivarPoly | Scalar") -> "BivarPoly":
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return _normalise({key: n * c.numerator for key, n in self._num.items()},
                              self._den * c.denominator)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return _normalise(mul_numerators(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivarPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _normalise(*pow_numerators(self._num, self._den, n))

    # -- calculus and evaluation -------------------------------------------

    def partial(self, axis: int) -> "BivarPoly":
        """Partial derivative; axis 0 is the first variable, 1 the second."""
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        if axis == 0:
            acc = {(i - 1, j): n * i for (i, j), n in self._num.items() if i}
        else:
            acc = {(i, j - 1): n * j for (i, j), n in self._num.items() if j}
        return _normalise(acc, self._den)

    def evaluate(self, x: Scalar, y: Scalar) -> Fraction:
        """Exact value at (x, y) = (a/b, c/d): the integer sum of n a^i b^(dx-i)
        c^j d^(dy-j), dx and dy the degrees in x and y, over den b^dx d^dy."""
        x, y = _coerce(x), _coerce(y)
        if not self._num:
            return Fraction(0)
        a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
        x_exps, y_exps = {i for i, _ in self._num}, {j for _, j in self._num}
        dx, dy = max(x_exps), max(y_exps)
        xs = {i: a**i * b**(dx - i) for i in x_exps}
        ys = {j: c**j * d**(dy - j) for j in y_exps}
        total = sum(n * xs[i] * ys[j] for (i, j), n in self._num.items())
        return Fraction(total, self._den * b**dx * d**dy)

    # -- degrees and gradings ----------------------------------------------

    def degrees(self) -> tuple[int, int, int]:
        """Return (total degree, degree in x, degree in y); error on zero."""
        if not self._num:
            raise ZeroPolynomialError("degree of the zero polynomial")
        total = max(i + j for i, j in self._num)
        dx = max(i for i, _ in self._num)
        dy = max(j for _, j in self._num)
        return total, dx, dy

    def total_degree(self) -> int:
        return self.degrees()[0]

    def min_exponents(self) -> tuple[int, int]:
        """Smallest x-exponent and smallest y-exponent over the support."""
        if not self._num:
            raise ZeroPolynomialError("min exponents of the zero polynomial")
        return min(i for i, _ in self._num), min(j for _, j in self._num)

    def quasi_components(self, t: "QuasiType") -> list[tuple[int, "BivarPoly"]]:
        """Split into quasi-homogeneous parts of type t, ascending quasi-degree.

        The zero polynomial yields an empty list.
        """
        t1, t2 = quasi_type(*t)
        buckets: dict[int, dict[Monomial, int]] = {}
        for (i, j), n in self._num.items():
            buckets.setdefault(t1 * i + t2 * j, {})[(i, j)] = n
        return [(k, _normalise(buckets[k], self._den)) for k in sorted(buckets)]

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

    # -- formatting ---------------------------------------------------------

    def to_string(self, variables: tuple[str, str] = ("x", "y")) -> str:
        """Render in the grammar accepted by the expression parser."""
        if not self._num:
            return "0"
        vx, vy = variables
        parts: list[str] = []
        for (i, j), n in sorted(self._num.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
            factors: list[str] = []
            if i:
                factors.append(vx if i == 1 else f"{vx}^{i}")
            if j:
                factors.append(vy if j == 1 else f"{vy}^{j}")
            if abs(n) != self._den or not factors:
                factors.insert(0, _ratio(abs(n), self._den))
            body = "*".join(factors)
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts)

    def to_term_list(self) -> list[tuple[int, int, str]]:
        """JSON-friendly sorted term list [(i, j, "p/q"), ...]."""
        return [(i, j, _ratio(n, self._den)) for (i, j), n in sorted(self._num.items())]

    @classmethod
    def from_term_list(cls, items: Iterable[tuple[int, int, str]]) -> "BivarPoly":
        return cls({(int(i), int(j)): Fraction(c) for i, j, c in items})


def _normalise(num: Mapping[Monomial, int], den: int, p: BivarPoly | None = None) -> BivarPoly:
    """num/den in lowest terms, stored in p (a new instance by default);
    den > 0 and the exponents are checked by the caller."""
    num = {key: n for key, n in num.items() if n}
    g = gcd(den, *num.values())
    if g != 1:
        num = {key: n // g for key, n in num.items()}
        den //= g
    if p is None:
        p = BivarPoly.__new__(BivarPoly)
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)
    return p


def mul_numerators(a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """The integer product of two numerator dicts, unreduced: it may hold
    zero entries where terms cancel.  An empty operand gives {} before any
    check; otherwise ExponentOverflowError when an exponent of the product
    would pass MAX_EXPONENT (the x exponents are checked first)."""
    if not a or not b:
        return {}
    if len(a) == 1 and len(b) == 1:
        ((i1, j1), c1), = a.items()
        ((i2, j2), c2), = b.items()
        return {(_check_exponent(i1 + i2), _check_exponent(j1 + j2)): c1 * c2}
    # Every exponent sum is at most the sum of the largest exponents, and
    # that sum is reached, so one check per product covers all term pairs.
    dx1, dy1 = map(max, zip(*a))
    dx2, dy2 = map(max, zip(*b))
    _check_exponent(dx1 + dx2)
    _check_exponent(dy1 + dy2)
    acc: dict[Monomial, int] = {}
    get = acc.get
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = get(key, 0) + c1 * c2
    return acc


def mul_monomial(c: int, a: int, b: int, n: int, i: int, j: int) -> tuple[int, int, int]:
    """The product of c*x^a*y^b and n*x^i*y^j as (c*n, a+i, b+j), where a
    coefficient 0 stands for the empty numerators: the checks of
    mul_numerators({(a, b): c}, {(i, j): n}), none when either side is 0,
    otherwise the x exponent before the y exponent."""
    if not c or not n:
        return 0, 0, 0
    return c * n, _check_exponent(a + i), _check_exponent(b + j)


def _square_numerators(a: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """mul_numerators(a, a), with the same exponent checks and messages, in
    about half the products: each cross term of two distinct terms is formed
    once and doubled."""
    if not a:
        return {}
    if len(a) == 1:
        ((i, j), c), = a.items()
        return {(_check_exponent(i + i), _check_exponent(j + j)): c * c}
    dx, dy = map(max, zip(*a))
    _check_exponent(dx + dx)
    _check_exponent(dy + dy)
    items = list(a.items())
    acc: dict[Monomial, int] = {}
    get = acc.get
    for k, ((i1, j1), c1) in enumerate(items):
        key = (i1 + i1, j1 + j1)
        acc[key] = get(key, 0) + c1 * c1
        c1 += c1  # each cross term below stands for both of its orders
        for (i2, j2), c2 in items[k + 1:]:
            key = (i1 + i2, j1 + j2)
            acc[key] = get(key, 0) + c1 * c2
    return acc


def pow_numerators(num: Mapping[Monomial, int], den: int,
                   n: int) -> tuple[dict[Monomial, int], int]:
    """(num/den)^n as unreduced numerators over den^n, for n >= 0; 0^0 is 1.

    A single term whose powered exponents stay within MAX_EXPONENT is raised
    directly.  Anything else is squared repeatedly on _square_numerators and
    multiplied in on mul_numerators, so an overflow is raised by the first
    product of that squaring whose exponents pass MAX_EXPONENT."""
    if len(num) == 1:
        ((i, j), c), = num.items()
        if i * n <= MAX_EXPONENT and j * n <= MAX_EXPONENT:
            return {(i * n, j * n): c**n}, den**n
    result = {(0, 0): 1}
    result_den = 1
    while n:
        if n & 1:
            result, result_den = mul_numerators(result, num), result_den * den
        n >>= 1
        if n:
            num, den = _square_numerators(num), den * den
    return result, result_den


def _ratio(n: int, den: int) -> str:
    """n/den in lowest terms as "p" or "p/q", the text str(Fraction(n, den))
    gives, for den > 0."""
    if den == 1:
        return str(n)
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


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
