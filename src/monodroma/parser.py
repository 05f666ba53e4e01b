"""Recursive-descent parser for polynomial expressions and planar maps.

Grammar (whitespace-insensitive, '^' binds tightest, then unary minus,
then '*', then '+'/'-'; multiplication is always explicit):

    bindings := name "=" expr (";" name "=" expr)* [";"]
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | power
    power    := atom ["^" natural]
    atom     := rational | variable | "(" expr ")"
    rational := natural ["/" natural]
    natural  := [0-9]+

Exponents are non-negative integer literals up to polycore.MAX_EXPONENT.
Rational literals require integer numerator and denominator; anything else
next to "/" is an error.  A literal longer than the interpreter's limit on
integer strings (sys.get_int_max_str_digits) is an error too.  Parentheses
and unary minuses together nest at most MAX_DEPTH deep, so hostile input
ends in a ParseError, not in the interpreter's recursion limit.

Cost model: the text is split by one regular-expression pass, linear in
its length, and each distinct lexeme is classified once, so a token costs
one list entry for its kind.  Byte offsets are computed only for an error.
Every value is one pair (num, den) of integer numerators {(i, j): n} over a
positive denominator, in any scaling.  A factor is such a pair: a literal
n/d is {(0, 0): n} over d, or {} when n is 0, a variable {(1, 0): 1} or
{(0, 1): 1} over 1, and a parenthesised factor its expression's value.  A
term multiplies its factors left to right, each power, sign and product at
one site: a power is one call of polycore.pow_numerators on its base in
lowest terms, and each factor after the first is multiplied in by one call
of polycore.mul_numerators, the kernels BivarPoly's own operators use.  A
sum of k terms is one pass over their numerators scaled to the lcm of their
denominators.  Nothing is reduced on the way, except a power's base with a
denominator, by the gcd of denominator and numerators: one
BivarPoly.from_numerators per parsed expression or binding puts the result
in lowest terms.
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm

from .polycore import MAX_EXPONENT, BivarPoly, Monomial, mul_numerators, pow_numerators

MAX_DEPTH = 100

# Integer numerators over a positive denominator, not necessarily reduced,
# and the index of the token after them.
_Parsed = tuple[dict[Monomial, int], int, int]


class ParseError(ValueError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at byte {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


# One token per match: an ASCII decimal run, a word run or any other single
# non-whitespace character.  findall steps over whitespace one character at
# a time, so a split costs time linear in the text.
_TOKEN = re.compile(r"[0-9]+|\w+|\S")
# Each operator is its own kind.
_OPERATORS = {op: op for op in "+-*/^()=;"}


def _byte_offset(text: str, k: int) -> int:
    """The UTF-8 byte offset of token k's first character, or of the end of
    text for the end token; computed only for an error."""
    pos = len(text)
    for m in _TOKEN.finditer(text):
        if not k:
            pos = m.start()
            break
        k -= 1
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and lexemes of text's tokens, both lists ending with the end
    token's.  A kind is "int", "name", one of "+-*/^()=;" or "end".  A lexeme
    that is no token raises the ParseError of the first such in the text."""
    lexemes = _TOKEN.findall(text)
    kind_of = dict(_OPERATORS)
    errors: dict[str, str] = {}  # the error message of each lexeme that is no token
    for lexeme in set(lexemes).difference(_OPERATORS):
        head = lexeme[0]
        if "0" <= head <= "9":  # the whole lexeme is an ASCII decimal run
            try:
                int(lexeme)
            except ValueError:  # longer than the interpreter's int-string limit
                errors[lexeme] = (f"integer literal of {len(lexeme)} digits exceeds the limit "
                                  f"of {sys.get_int_max_str_digits()} digits")
                continue
            kind_of[lexeme] = "int"
        elif head.isalpha() or head == "_":  # a word run, since letters are word characters
            kind_of[lexeme] = "name"
        else:  # a word run that starts with no letter, or a stray character
            errors[lexeme] = f"unexpected character {head!r}"
    if errors:
        k = next(k for k, lexeme in enumerate(lexemes) if lexeme in errors)
        raise ParseError(errors[lexemes[k]], _byte_offset(text, k))
    kinds = list(map(kind_of.__getitem__, lexemes))
    kinds.append("end")
    lexemes.append("")
    return kinds, lexemes


class _Parser:
    """The descent over one text's tokens.  expr and term take the index of
    their first token and return their value with the index after it."""

    def __init__(self, text: str, variables: tuple[str, str]):
        self.text = text
        self.kinds, self.lexemes = _tokenize(text)
        self.variables = variables
        self.depth = 0

    def error(self, message: str, k: int, expected: frozenset[str] = frozenset()) -> ParseError:
        return ParseError(message, _byte_offset(self.text, k), expected)

    def unexpected(self, k: int, *expected: str) -> ParseError:
        kind, lexeme = self.kinds[k], self.lexemes[k]
        if kind == "end":
            described = "end of input"
        elif kind == "int":
            described = f"integer {lexeme}"
        elif kind == "name":
            described = f"name {lexeme!r}"
        else:
            described = repr(lexeme)
        return self.error(f"unexpected {described}", k, frozenset(expected))

    def expect(self, k: int, kind: str, description: str) -> int:
        if self.kinds[k] != kind:
            raise self.unexpected(k, description)
        return k + 1

    def exponent(self, k: int) -> int:
        """The exponent after the '^' at k - 1."""
        if self.kinds[k] != "int":
            raise self.unexpected(k, "non-negative integer exponent")
        n = int(self.lexemes[k])
        if n > MAX_EXPONENT:
            raise self.error(f"exponent {n} exceeds {MAX_EXPONENT}", k)
        return n

    def nest(self, k: int) -> None:
        """Go one level deeper for the '(' or unary '-' at k, within MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH}", k)

    def expr(self, k: int) -> _Parsed:
        kinds = self.kinds
        num, den, k = self.term(k)
        if kinds[k] != "+" and kinds[k] != "-":
            return num, den, k
        nums, dens, signs = [num], [den], [1]
        while (op := kinds[k]) == "+" or op == "-":
            num, den, k = self.term(k + 1)
            nums.append(num)
            dens.append(den)
            signs.append(1 if op == "+" else -1)
        # One sum over the lcm of the denominators, linear in the terms.
        den = lcm(*dens)
        acc: dict[Monomial, int] = {}
        get = acc.get
        for num, term_den, sign in zip(nums, dens, signs):
            scale = den // term_den if sign > 0 else -(den // term_den)
            for key, n in num.items():
                acc[key] = get(key, 0) + n * scale
        return {key: n for key, n in acc.items() if n}, den, k

    def term(self, k: int) -> _Parsed:
        kinds, lexemes = self.kinds, self.lexemes
        x, y = self.variables
        num: dict[Monomial, int] | None = None  # the factors' product over den, once there is one
        den = 1
        while True:
            # factor := "-"* power; each minus is one level of nesting.
            minuses = 0
            while kinds[k] == "-":
                self.nest(k)
                minuses += 1
                k += 1
            # The atom as numerators fnum over d.
            kind = kinds[k]
            if kind == "int":  # rational
                n, d = int(lexemes[k]), 1
                k += 1
                if kinds[k] == "/":
                    if kinds[k + 1] != "int":
                        raise self.unexpected(k + 1, "integer denominator")
                    d = int(lexemes[k + 1])
                    if not d:
                        raise self.error("zero denominator", k + 1)
                    k += 2
                fnum = {(0, 0): n} if n else {}
            elif kind == "name":  # variable
                name = lexemes[k]
                if name == x:
                    fnum = {(1, 0): 1}
                elif name == y:
                    fnum = {(0, 1): 1}
                else:
                    raise self.error(f"unknown variable {name!r}", k,
                                     frozenset({f"variable {v!r}" for v in self.variables}))
                d = 1
                k += 1
            elif kind == "(":  # "(" expr ")"
                self.nest(k)
                fnum, d, k = self.expr(k + 1)
                k = self.expect(k, ")", "')'")
                self.depth -= 1
            else:
                raise self.unexpected(k, "integer", "'('",
                                      *(f"variable {v!r}" for v in self.variables))
            if kinds[k] == "^":
                e = self.exponent(k + 1)
                k += 2
                if d != 1:  # lowest terms, so that (2/2*x)^n costs what x^n does
                    g = gcd(d, *fnum.values())
                    fnum, d = {key: v // g for key, v in fnum.items()}, d // g
                fnum, d = pow_numerators(fnum, d, e)
            if minuses:
                self.depth -= minuses
                if minuses & 1:
                    fnum = {key: -v for key, v in fnum.items()}
            num = fnum if num is None else mul_numerators(num, fnum)
            den *= d
            if kinds[k] != "*":
                break
            k += 1
        return num, den, k


def parse_poly(text: str, variables: tuple[str, str] = ("x", "y")) -> BivarPoly:
    """Parse a single polynomial expression in the two given variables."""
    parser = _Parser(text, variables)
    num, den, k = parser.expr(0)
    poly = BivarPoly.from_numerators(num, den)
    parser.expect(k, "end", "end of input")
    return poly


def parse_bindings(text: str, names: tuple[str, str],
                   variables: tuple[str, str]) -> tuple[BivarPoly, BivarPoly]:
    """Parse 'a = expr ; b = expr' with the required binding names in order."""
    parser = _Parser(text, variables)
    kinds, lexemes = parser.kinds, parser.lexemes
    polys: list[BivarPoly] = []
    k = 0
    for index, name in enumerate(names):
        if index:
            k = parser.expect(k, ";", "';'")
        if kinds[k] != "name" or lexemes[k] != name:
            raise parser.unexpected(k, f"binding {name!r}")
        num, den, k = parser.expr(parser.expect(k + 1, "=", "'='"))
        polys.append(BivarPoly.from_numerators(num, den))
    if kinds[k] == ";":
        k += 1
    parser.expect(k, "end", "end of input")
    return polys[0], polys[1]


def parse_map(text: str) -> tuple[BivarPoly, BivarPoly]:
    """Parse a planar polynomial map given as 'f = <expr> ; g = <expr>'."""
    return parse_bindings(text, ("f", "g"), ("x", "y"))
