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

Exponents are non-negative integer literals up to polycore.MAX_EXPONENT.
Rational literals require integer numerator and denominator; anything else
next to "/" is an error.  Parentheses and unary minuses together nest at
most MAX_DEPTH deep, so hostile input ends in a ParseError, not in the
interpreter's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .polycore import MAX_EXPONENT, BivarPoly

MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at byte {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", one of "+-*/^()=;", or "end"
    text: str
    offset: int  # byte offset into the input
    value: int = 0


# One lexeme per match, in order: a whitespace run, a decimal run, a word
# run or any other single character, so the matches tile the whole text.
_LEXEME = re.compile(r"(\s+)|(\d+)|(\w+)|(.)", re.DOTALL)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    offset = 0  # byte offset of the current lexeme
    for m in _LEXEME.finditer(text):
        space, digits, word, other = m.groups()
        if digits:
            tokens.append(_Token("int", digits, offset, int(digits)))
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append(_Token("name", word, offset))
        elif other and other in "+-*/^()=;":
            tokens.append(_Token(other, other, offset))
        elif not space:
            raise ParseError(f"unexpected character {m.group()[0]!r}", offset)
        offset += len(m.group().encode("utf-8"))
    tokens.append(_Token("end", "", offset))
    return tokens


@dataclass
class _Parser:
    tokens: list[_Token]
    variables: tuple[str, str]
    pos: int = field(default=0)
    depth: int = field(default=0)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, description: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {_describe(tok)}", tok.offset, frozenset({description}))
        return self.advance()

    def nest(self) -> None:
        """Consume a '(' or unary '-' one level deeper, within MAX_DEPTH."""
        tok = self.advance()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH}", tok.offset)

    def expr(self) -> BivarPoly:
        signed = [(1, *self.term().numerators())]
        while self.peek().kind in ("+", "-"):
            signed.append((1 if self.advance().kind == "+" else -1, *self.term().numerators()))
        # One sum over the lcm of the denominators, linear in the terms.
        den = lcm(*(term_den for _, _, term_den in signed))
        acc: dict[tuple[int, int], int] = {}
        for sign, num, term_den in signed:
            for key, n in num.items():
                acc[key] = acc.get(key, 0) + n * sign * (den // term_den)
        return BivarPoly.from_numerators(acc, den)

    def term(self) -> BivarPoly:
        acc = self.factor()
        while self.peek().kind == "*":
            self.advance()
            acc = acc * self.factor()
        return acc

    def factor(self) -> BivarPoly:
        if self.peek().kind == "-":
            self.nest()
            inner = self.factor()
            self.depth -= 1
            return -inner
        return self.power()

    def power(self) -> BivarPoly:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError(
                    f"unexpected {_describe(tok)}", tok.offset,
                    frozenset({"non-negative integer exponent"}),
                )
            if tok.value > MAX_EXPONENT:
                raise ParseError(f"exponent {tok.value} exceeds {MAX_EXPONENT}", tok.offset)
            self.advance()
            return base ** tok.value
        return base

    def atom(self) -> BivarPoly:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.advance()
                den = self.peek()
                if den.kind != "int":
                    raise ParseError(
                        f"unexpected {_describe(den)}", den.offset,
                        frozenset({"integer denominator"}),
                    )
                if den.value == 0:
                    raise ParseError("zero denominator", den.offset)
                self.advance()
                value /= den.value
            return BivarPoly.const(value)
        if tok.kind == "name":
            if tok.text not in self.variables:
                raise ParseError(
                    f"unknown variable {tok.text!r}", tok.offset,
                    frozenset({f"variable {v!r}" for v in self.variables}),
                )
            self.advance()
            index = self.variables.index(tok.text)
            return BivarPoly.monomial(1 - index, index)
        if tok.kind == "(":
            self.nest()
            inner = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return inner
        raise ParseError(
            f"unexpected {_describe(tok)}", tok.offset,
            frozenset({"integer", "'('"} | {f"variable {v!r}" for v in self.variables}),
        )


def _describe(tok: _Token) -> str:
    if tok.kind == "end":
        return "end of input"
    if tok.kind == "int":
        return f"integer {tok.text}"
    if tok.kind == "name":
        return f"name {tok.text!r}"
    return f"{tok.text!r}"


def parse_poly(text: str, variables: tuple[str, str] = ("x", "y")) -> BivarPoly:
    """Parse a single polynomial expression in the two given variables."""
    parser = _Parser(_tokenize(text), variables)
    poly = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {_describe(tok)}", tok.offset, frozenset({"end of input"}))
    return poly


def parse_bindings(text: str, names: tuple[str, str],
                   variables: tuple[str, str]) -> tuple[BivarPoly, BivarPoly]:
    """Parse 'a = expr ; b = expr' with the required binding names in order."""
    parser = _Parser(_tokenize(text), variables)
    polys: list[BivarPoly] = []
    for k, name in enumerate(names):
        if k:
            parser.expect(";", "';'")
        tok = parser.peek()
        if tok.kind != "name" or tok.text != name:
            raise ParseError(
                f"unexpected {_describe(tok)}", tok.offset, frozenset({f"binding {name!r}"}),
            )
        parser.advance()
        parser.expect("=", "'='")
        polys.append(parser.expr())
    if parser.peek().kind == ";":
        parser.advance()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {_describe(tok)}", tok.offset, frozenset({"end of input"}))
    return polys[0], polys[1]


def parse_map(text: str) -> tuple[BivarPoly, BivarPoly]:
    """Parse a planar polynomial map given as 'f = <expr> ; g = <expr>'."""
    return parse_bindings(text, ("f", "g"), ("x", "y"))
