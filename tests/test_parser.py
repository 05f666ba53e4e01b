"""Expression grammar: precedence, rationals, bindings, error offsets."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import monodroma
from monodroma import BivarPoly, ParseError, parse_bindings, parse_map, parse_poly

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


def test_tokenizing_is_linear_in_the_input():
    # 150,000 terms "x + " spaced with two-byte no-break spaces, then a stray
    # character: 900 KB that tokenize well inside the timeout only when the
    # cost of a token's byte offset does not grow with its position.
    code = ("from monodroma import ParseError, parse_poly\n"
            "try:\n"
            "    parse_poly('x\\u00a0+\\u00a0' * 150000 + '%')\n"
            "except ParseError as exc:\n"
            "    print(exc)\n")
    src = str(Path(monodroma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert done.stdout.strip() == "unexpected character '%' at byte 900000"


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
