"""Expression grammar: precedence, rationals, bindings, error offsets."""

import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import monodroma
from monodroma import BivarPoly, ParseError, parse_bindings, parse_map, parse_poly
from monodroma.cli import main
from monodroma.polycore import MAX_EXPONENT, ExponentOverflowError

import reference_parser
from genmaps import rand_poly

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


def test_basic_expressions():
    assert parse_poly("x + y") == X + Y
    assert parse_poly("x - y + x") == X * 2 - Y
    assert parse_poly("2*x^3 - 1/2") == X ** 3 * 2 - Fraction(1, 2)
    assert parse_poly("x*y^2") == X * Y ** 2
    assert parse_poly("0") == BivarPoly.zero()
    assert parse_poly("(x + y)^2") == X ** 2 + X * Y * 2 + Y ** 2


def test_unary_minus_binds_tighter_than_subtraction():
    assert parse_poly("-x^2") == -(X ** 2)
    assert parse_poly("- x + y") == Y - X
    assert parse_poly("x - -y") == X + Y
    assert parse_poly("-(x + y)*x") == -(X ** 2) - X * Y


def test_rational_literals():
    assert parse_poly("3/4") == BivarPoly.const(Fraction(3, 4))
    assert parse_poly("3/4*x") == X * Fraction(3, 4)
    # Division only forms rational literals, never divides variables.
    with pytest.raises(ParseError):
        parse_poly("x/2")
    with pytest.raises(ParseError) as err:
        parse_poly("1/0")
    assert "zero denominator" in str(err.value)
    assert err.value.offset == 2


def test_alternate_variable_names():
    assert parse_poly("u^2 - v", ("u", "v")) == X ** 2 - Y
    with pytest.raises(ParseError) as err:
        parse_poly("x + 1", ("u", "v"))
    assert "unknown variable 'x'" in str(err.value)
    assert err.value.offset == 0


def test_round_trip_random():
    rng = random.Random(201)
    for _ in range(200):
        p = rand_poly(rng, max_degree=6, terms=7)
        assert parse_poly(p.to_string()) == p
        assert parse_poly(p.to_string(("u", "v")), ("u", "v")) == p


def test_error_offsets_point_at_offending_byte():
    with pytest.raises(ParseError) as err:
        parse_poly("x + ")
    assert err.value.offset == 4  # end of input
    with pytest.raises(ParseError) as err:
        parse_poly("x ^ y")
    assert err.value.offset == 4
    assert "non-negative integer exponent" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_poly("x + %")
    assert "unexpected character '%'" in str(err.value)
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_poly("(x + y")
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        parse_poly("x y")
    assert err.value.offset == 2
    assert "end of input" in str(err.value)


def test_nesting_depth_is_bounded():
    assert parse_poly("(" * 100 + "x" + ")" * 100) == X
    assert parse_poly("-" * 100 + "x") == X
    assert parse_poly("-(" * 50 + "x" + ")" * 50) == X
    # Siblings do not nest: each factor's minuses and parentheses are released.
    assert parse_poly("*".join(["-x"] * 150)) == X ** 150
    assert parse_poly(" - ".join(["(-(x))"] * 150)) == X * 148
    for text in ("(" * 101 + "x" + ")" * 101, "(" * 200 + "x" + ")" * 200,
                 "-" * 1000 + "x", "-(" * 50 + "-x" + ")" * 50):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.offset == 100
        assert "nesting deeper than 100" in str(err.value)


def test_exponent_beyond_the_cap_is_a_parse_error():
    assert parse_poly(f"x^{2 ** 62}") == X ** (2 ** 62)
    with pytest.raises(ParseError) as err:
        parse_poly("y + x^99999999999999999999")
    assert err.value.offset == 6
    assert "exceeds" in str(err.value)


def test_error_offsets_are_bytes_not_code_points():
    # A two-byte character before the error shifts the byte offset.
    with pytest.raises(ParseError) as err:
        parse_poly("µ + x")  # MICRO SIGN is alphabetic, hence an unknown name
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_poly("x + µ")
    assert err.value.offset == 4


def test_only_ascii_digits_form_numbers():
    # ARABIC-INDIC DIGIT THREE is a Unicode digit, not a grammar digit.
    for text, offset in (("x^\u0663", 2), ("\u0663*x", 0), ("\u00b5^\u0663", 3)):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert str(err.value) == f"unexpected character '\u0663' at byte {offset}"
        assert err.value.offset == offset


def test_an_oversized_literal_is_a_parse_error(capsys):
    with pytest.raises(ParseError) as err:
        parse_poly("x + " + "9" * 5000)
    assert err.value.offset == 4
    assert "integer literal of 5000 digits" in str(err.value)
    assert main(["check", "f = x + " + "9" * 5000 + "; g = y"]) == 1
    assert capsys.readouterr().err.startswith("parse error: integer literal of 5000 digits")


_CAP = MAX_EXPONENT  # 2^62


@pytest.mark.parametrize("text, error, message", [
    ("x + ", ParseError,
     "unexpected end of input at byte 4 (expected '(', integer, variable 'x', variable 'y')"),
    ("x ^ y", ParseError, "unexpected name 'y' at byte 4 (expected non-negative integer exponent)"),
    ("x + %", ParseError, "unexpected character '%' at byte 4"),
    ("(x + y", ParseError, "unexpected end of input at byte 6 (expected ')')"),
    ("x y", ParseError, "unexpected name 'y' at byte 2 (expected end of input)"),
    ("x/2", ParseError, "unexpected '/' at byte 1 (expected end of input)"),
    ("2/x", ParseError, "unexpected name 'x' at byte 2 (expected integer denominator)"),
    ("1/0", ParseError, "zero denominator at byte 2"),
    ("x + \u00b5", ParseError,
     "unknown variable '\u00b5' at byte 4 (expected variable 'x', variable 'y')"),
    ("y + x^99999999999999999999", ParseError,
     f"exponent 99999999999999999999 exceeds {_CAP} at byte 6"),
    ("(" * 101 + "x" + ")" * 101, ParseError, "nesting deeper than 100 at byte 100"),
    (f"x^{_CAP}*x", ExponentOverflowError, f"exponent {_CAP + 1} exceeds {_CAP}"),
    (f"y^{_CAP}*x^{_CAP}*y", ExponentOverflowError, f"exponent {_CAP + 1} exceeds {_CAP}"),
    (f"(x^2)^{_CAP // 2 + 1}", ExponentOverflowError, f"exponent {_CAP + 2} exceeds {_CAP}"),
    # Repeated squaring passes the cap at the square x^(2^63), before the
    # result's x^(3 * 2^62): the first product over the cap names the error.
    (f"(x^4)^{3 * _CAP // 4}", ExponentOverflowError, f"exponent {2 * _CAP} exceeds {_CAP}"),
    # A term multiplies in each factor by mul_numerators, so it checks each
    # product, literals and denominators in between included ...
    (f"2*x^{_CAP}*3*x", ExponentOverflowError, f"exponent {_CAP + 1} exceeds {_CAP}"),
    (f"1/2*y^{_CAP}*x*y", ExponentOverflowError, f"exponent {_CAP + 1} exceeds {_CAP}"),
    # The product overflows before the parser reads the unknown name after it.
    (f"x^{_CAP}*x*z", ExponentOverflowError, f"exponent {_CAP + 1} exceeds {_CAP}"),
    (f"y^{_CAP}*y*z", ExponentOverflowError, f"exponent {_CAP + 1} exceeds {_CAP}"),
    # ... and a parenthesised factor the same way, x first.
    (f"x^{_CAP}*y^{_CAP - 1}*(x*y^3)", ExponentOverflowError,
     f"exponent {_CAP + 1} exceeds {_CAP}"),
    ("2/0*x", ParseError, "zero denominator at byte 2"),
])
def test_error_parity_on_hostile_inputs(text, error, message):
    with pytest.raises(error) as err:
        parse_poly(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_hostile_inputs_that_parse():
    assert parse_poly(f"0*x^{_CAP}*x") == 0
    assert parse_poly(f"x^{_CAP}*0*x") == 0  # no check once the product is 0
    assert parse_poly(f"x^{_CAP}*0*x^{_CAP}*x") == 0
    assert parse_poly(f"0/1*y^{_CAP}*y") == 0
    assert parse_poly("3/4^2*x") == X * Fraction(9, 16)  # a rational literal is one atom
    # A power's base is put in lowest terms first, so a power of a rational
    # literal costs no more than the same power of its reduced value.
    assert parse_poly(f"2/2^{_CAP}*x") == X
    assert parse_poly(f"0/5^{_CAP}") == 0
    assert parse_poly(f"(x^2)^{_CAP // 2}") == BivarPoly.monomial(_CAP, 0)
    assert parse_poly(f"(x*y^2)^{_CAP // 2}") == BivarPoly.monomial(_CAP // 2, _CAP)
    assert parse_poly(f"(x - x)^{_CAP}") == 0
    assert parse_poly(f"(2/2*x)^{_CAP}") == BivarPoly.monomial(_CAP, 0)
    assert parse_poly(f"(-1)^{_CAP}") == 1
    assert parse_poly("0^0") == 1
    assert parse_poly("0^3") == 0
    assert parse_poly("(x + y)^0") == 1


def test_every_power_goes_through_the_power_kernel(monkeypatch):
    # A literal's, a variable's and a group's power are formed at one site.
    pow_numerators = monodroma.parser.pow_numerators
    calls = []

    def counting(num, den, n):
        calls.append(n)
        return pow_numerators(num, den, n)

    monkeypatch.setattr(monodroma.parser, "pow_numerators", counting)
    assert parse_poly("2^3*x^2*(y)^2*3/4^2") == X**2 * Y**2 * Fraction(9, 2)  # 8 * (3/4)^2
    assert calls == [3, 2, 2, 2]


def test_tokenizing_is_linear_in_the_input():
    # 150,000 terms "x + " spaced with two-byte no-break spaces, then a stray
    # character: 900 KB that tokenize well inside the timeout only when the
    # cost of a token's byte offset does not grow with its position.  Then a
    # million blanks or newlines after the last token, or no token at all:
    # linear only when a whitespace run is stepped over once, not rescanned
    # from each of its characters.
    code = ("from monodroma import ParseError, parse_map, parse_poly\n"
            "for text in ('x\\u00a0+\\u00a0' * 150000 + '%', ' ' * 10**6):\n"
            "    try:\n"
            "        parse_poly(text)\n"
            "    except ParseError as exc:\n"
            "        print(exc)\n"
            "print(parse_poly('x' + ' ' * 10**6))\n"
            "print(parse_map('f = x; g = y' + '\\n' * 10**6))\n")
    src = str(Path(monodroma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert done.stdout.splitlines() == [
        "unexpected character '%' at byte 900000",
        "unexpected end of input at byte 1000000 "
        "(expected '(', integer, variable 'x', variable 'y')",
        "BivarPoly('x')", "(BivarPoly('x'), BivarPoly('y'))"]


def test_parsing_a_long_sum_is_linear_in_its_terms():
    # 20,000 terms "c/(c+1)*x^i*y^j" summed once, not by copying the running
    # sum per term: well inside the timeout only when the sum is linear.
    code = ("import random\n"
            "from monodroma import parse_poly\n"
            "rng = random.Random(7)\n"
            "terms = [(rng.randint(1, 999), rng.randint(0, 60), rng.randint(0, 60))\n"
            "         for _ in range(20000)]\n"
            "text = ' - '.join(f'{c}/{c + 1}*x^{i}*y^{j}' for c, i, j in terms)\n"
            "print(len(parse_poly(text)))\n")
    src = str(Path(monodroma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert done.returncode == 0, done.stderr
    assert 0 < int(done.stdout) <= 61 * 61


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                       st.fractions(min_value=-50, max_value=50, max_denominator=12),
                       max_size=12).map(BivarPoly))
def test_to_string_round_trips(p):
    assert parse_poly(p.to_string()) == p
    assert parse_poly(p.to_string(("u", "v")), ("u", "v")) == p


def _operand(node, prec):
    text, _, node_prec = node
    return text if node_prec >= prec else f"({text})"


def _binary(children, op, apply, lhs_prec, rhs_prec, prec):
    return st.tuples(children, children).map(lambda ab: (
        f"{_operand(ab[0], lhs_prec)} {op} {_operand(ab[1], rhs_prec)}",
        apply(ab[0][1], ab[1][1]), prec))


def _raise(node, k):
    # Keep degrees and coefficients small: a power that would pass size 12
    # is taken to the exponent's parity instead.
    text, value, _ = node
    size = max(value.total_degree(), 1) if value else 1
    k = k if size * k <= 12 else k % 2
    # k products, not value ** k, so the reference shares no power routine.
    return f"{_operand(node, 4)}^{k}", reduce(operator.mul, [value] * k, BivarPoly.const(1)), 3


# Nodes (text, value, precedence): 0 sum, 1 product, 2 unary minus, 3 power,
# 4 atom; an operand of lower precedence than its place allows is wrapped.
_ATOMS = st.one_of(
    st.sampled_from([("x", X), ("y", Y)]),
    st.integers(0, 30).map(lambda n: (str(n), BivarPoly.const(n))),
    st.tuples(st.integers(0, 30), st.integers(1, 12)).map(
        lambda nd: (f"{nd[0]}/{nd[1]}", BivarPoly.const(Fraction(*nd)))),  # unreduced: 4/6
).map(lambda tv: (*tv, 4))
_EXPRESSIONS = st.recursive(_ATOMS, lambda children: st.one_of(
    _binary(children, "+", operator.add, 0, 1, 0),
    _binary(children, "-", operator.sub, 0, 1, 0),
    _binary(children, "*", operator.mul, 1, 2, 1),  # products of sums
    children.map(lambda a: (f"-{_operand(a, 2)}", -a[1], 2)),
    children.map(lambda a: (f"({a[0]})", a[1], 4)),  # redundant parentheses
    st.tuples(children, st.integers(0, 4)).map(lambda ak: _raise(*ak)),  # 0^k, ^0
), max_leaves=10)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_EXPRESSIONS)
def test_parse_agrees_with_bivarpoly_operators(node):
    text, value, _ = node
    assert parse_poly(text) == value


# Characters an edit may insert or substitute: every operator, digits, the
# variables and a stranger, a two-byte letter, a non-ASCII digit, a stray
# character, a space and a no-break space.
_EDIT_CHARS = "+-*/^();=09xyz\u00b5\u0663% \u00a0"
# A parenthesised base raised past the generator's exponents (at most 4)
# can cost seconds, so such edits are left out.
_BIG_POWER_OF_A_GROUP = re.compile(r"\)\s*\^\s*0*([5-9]|[1-9][0-9])")


# Sums of products whose factors mix literals, rationals, powers of
# variables, short parenthesised sums and unary minuses, every kind of
# factor that a term's power, sign and product sites see.
_FACTORS = st.tuples(
    st.sampled_from(("", "-", "- -")),
    st.one_of(
        _ATOMS.map(lambda node: node[0]),
        st.lists(_ATOMS.map(lambda node: node[0]), min_size=1, max_size=3).map(
            lambda texts: "(" + " - ".join(texts) + ")"),
    ),
    st.sampled_from(("", "^0", "^1", "^2", "^3")),
).map("".join)
_PRODUCTS = st.lists(st.lists(_FACTORS, min_size=1, max_size=5).map("*".join),
                     min_size=1, max_size=3).map(" + ".join)


@st.composite
def _edited_texts(draw):
    """The text of an _EXPRESSIONS node or of a sum of _PRODUCTS, with zero,
    one or two characters inserted, deleted or replaced."""
    text = draw(st.one_of(_EXPRESSIONS.map(lambda node: node[0]), _PRODUCTS))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        char = draw(st.sampled_from(_EDIT_CHARS))
        text = text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert"):]
    return text


def _outcome(parse, *args):
    try:
        return parse(*args)
    except Exception as exc:  # any error must match the reference's
        return type(exc), str(exc), getattr(exc, "offset", None), getattr(exc, "expected", None)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(_edited_texts())
def test_parser_agrees_with_the_reference_parser(text):
    assume(not _BIG_POWER_OF_A_GROUP.search(text))
    assert _outcome(parse_poly, text) == _outcome(reference_parser.parse_poly, text)
    bindings = f"f = {text}; g = x"
    assert (_outcome(parse_bindings, bindings, ("f", "g"), ("x", "y"))
            == _outcome(reference_parser.parse_bindings, bindings, ("f", "g"), ("x", "y")))


def test_parse_map_bindings():
    f, g = parse_map("f = x^3 + x; g = y + x^2")
    assert f == X ** 3 + X
    assert g == Y + X ** 2
    # Trailing semicolon is allowed.
    assert parse_map("f = x; g = y;") == (X, Y)
    with pytest.raises(ParseError) as err:
        parse_map("g = y; f = x")
    assert "binding 'f'" in str(err.value)
    with pytest.raises(ParseError):
        parse_map("f = x; g = y; h = x")
    with pytest.raises(ParseError):
        parse_map("f = x")


def test_parse_bindings_custom_names_and_variables():
    p, q = parse_bindings("P = -v; Q = u", ("P", "Q"), ("u", "v"))
    assert p == -Y
    assert q == X
