"""The recursive-descent parser as it was before the one-pass tokenizer.

A reference the tests compare monodroma.parser against: one _Token per
lexeme, peek() and advance() over them, one method per grammar rule, and
one mul_numerators call per product.  Its errors are monodroma.parser's
ParseError, so the two can be compared on class, message, offset and
expected set.
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm
from typing import NamedTuple

from monodroma import BivarPoly
from monodroma.parser import MAX_DEPTH, ParseError
from monodroma.polycore import MAX_EXPONENT, Monomial, mul_numerators, pow_numerators

# Integer numerators over a positive denominator, not necessarily reduced.
_Value = tuple[dict[Monomial, int], int]


class _Token(NamedTuple):
    kind: str  # "int", "name", one of "+-*/^()=;", or "end"
    text: str
    start: int  # index of its first character in the input
    value: int = 0


# One lexeme per match, in order: a whitespace run, an ASCII decimal run, a
# word run or any other single character, so the matches tile the whole text.
_LEXEME = re.compile(r"(\s+)|([0-9]+)|(\w+)|(.)", re.DOTALL)
_OPERATORS = frozenset("+-*/^()=;")


def _byte_offset(text: str, pos: int) -> int:
    """The UTF-8 byte offset of character pos; computed only for an error."""
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _LEXEME.finditer(text):
        group = m.lastindex
        if group == 1:
            continue
        lexeme = m.group(group)
        if group == 2:
            try:
                value = int(lexeme)
            except ValueError:  # longer than the interpreter's int-string limit
                raise ParseError(
                    f"integer literal of {len(lexeme)} digits exceeds the limit of "
                    f"{sys.get_int_max_str_digits()} digits", _byte_offset(text, m.start()),
                ) from None
            tokens.append(_Token("int", lexeme, m.start(), value))
        elif group == 3 and (lexeme[0].isalpha() or lexeme[0] == "_"):
            tokens.append(_Token("name", lexeme, m.start()))
        elif group == 4 and lexeme in _OPERATORS:
            tokens.append(_Token(lexeme, lexeme, m.start()))
        else:
            raise ParseError(f"unexpected character {lexeme[0]!r}", _byte_offset(text, m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: tuple[str, str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.variables = variables
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token, expected: frozenset[str] = frozenset()) -> ParseError:
        return ParseError(message, _byte_offset(self.text, tok.start), expected)

    def unexpected(self, tok: _Token, *expected: str) -> ParseError:
        return self.error(f"unexpected {_describe(tok)}", tok, frozenset(expected))

    def expect(self, kind: str, description: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.unexpected(tok, description)
        return self.advance()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise self.unexpected(tok, "end of input")

    def nest(self) -> None:
        """Consume a '(' or unary '-' one level deeper, within MAX_DEPTH."""
        tok = self.advance()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH}", tok)

    def expr(self) -> _Value:
        value = self.term()
        if self.peek().kind not in ("+", "-"):
            return value
        signed = [(1, *value)]
        while self.peek().kind in ("+", "-"):
            signed.append((1 if self.advance().kind == "+" else -1, *self.term()))
        # One sum over the lcm of the denominators, linear in the terms.
        den = lcm(*(term_den for _, _, term_den in signed))
        acc: dict[Monomial, int] = {}
        get = acc.get
        for sign, num, term_den in signed:
            scale = sign * (den // term_den)
            for key, n in num.items():
                acc[key] = get(key, 0) + n * scale
        return {key: n for key, n in acc.items() if n}, den

    def term(self) -> _Value:
        num, den = self.factor()
        while self.peek().kind == "*":
            self.advance()
            rhs, rhs_den = self.factor()
            num, den = mul_numerators(num, rhs), den * rhs_den
        return num, den

    def factor(self) -> _Value:
        if self.peek().kind == "-":
            self.nest()
            num, den = self.factor()
            self.depth -= 1
            return {key: -n for key, n in num.items()}, den
        return self.power()

    def power(self) -> _Value:
        num, den = self.atom()
        if self.peek().kind != "^":
            return num, den
        self.advance()
        tok = self.peek()
        if tok.kind != "int":
            raise self.unexpected(tok, "non-negative integer exponent")
        if tok.value > MAX_EXPONENT:
            raise self.error(f"exponent {tok.value} exceeds {MAX_EXPONENT}", tok)
        self.advance()
        if den != 1:  # lowest terms, so that (2/2*x)^n costs what x^n does
            g = gcd(den, *num.values())
            num, den = {key: n // g for key, n in num.items()}, den // g
        return pow_numerators(num, den, tok.value)

    def atom(self) -> _Value:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            den = 1
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    raise self.unexpected(den_tok, "integer denominator")
                if den_tok.value == 0:
                    raise self.error("zero denominator", den_tok)
                self.advance()
                den = den_tok.value
            return ({(0, 0): tok.value} if tok.value else {}), den
        if tok.kind == "name":
            if tok.text not in self.variables:
                raise self.error(f"unknown variable {tok.text!r}", tok,
                                 frozenset({f"variable {v!r}" for v in self.variables}))
            self.advance()
            return ({(1, 0): 1} if tok.text == self.variables[0] else {(0, 1): 1}), 1
        if tok.kind == "(":
            self.nest()
            value = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return value
        raise self.unexpected(tok, "integer", "'('", *(f"variable {v!r}" for v in self.variables))


def _describe(tok: _Token) -> str:
    if tok.kind == "end":
        return "end of input"
    if tok.kind == "int":
        return f"integer {tok.text}"
    if tok.kind == "name":
        return f"name {tok.text!r}"
    return f"{tok.text!r}"


def parse_poly(text: str, variables: tuple[str, str] = ("x", "y")) -> BivarPoly:
    parser = _Parser(text, variables)
    poly = BivarPoly.from_numerators(*parser.expr())
    parser.expect_end()
    return poly


def parse_bindings(text: str, names: tuple[str, str],
                   variables: tuple[str, str]) -> tuple[BivarPoly, BivarPoly]:
    parser = _Parser(text, variables)
    polys: list[BivarPoly] = []
    for k, name in enumerate(names):
        if k:
            parser.expect(";", "';'")
        tok = parser.peek()
        if tok.kind != "name" or tok.text != name:
            raise parser.unexpected(tok, f"binding {name!r}")
        parser.advance()
        parser.expect("=", "'='")
        polys.append(BivarPoly.from_numerators(*parser.expr()))
    if parser.peek().kind == ";":
        parser.advance()
    parser.expect_end()
    return polys[0], polys[1]
