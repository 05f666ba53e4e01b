"""The command-line runs that pin what ``monodroma`` prints.

Each run is an argument list, its exit code and the checks on its output.
``test_cli.py`` runs every one and checks it; ``test_reachability.py`` runs
all but the time-bounded ones under a profiler to see which package
functions they call.
A digest is the sha256 of the ``check --json`` document without
``timings_ms``, dumped with ``json.dumps(doc, sort_keys=True)``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Run:
    id: str
    argv: tuple[str, ...]
    code: int
    out: str | None = None  # the whole stdout
    lines: tuple[str, ...] = ()  # whole lines that stdout holds
    err: str | None = None  # the whole stderr
    digest: str | None = None  # of the check --json document, as above
    timeout: float | None = None  # run in a fresh interpreter under this bound, in seconds


README_MAP = "f = x + x^3; g = y + x^2"
README_DIGEST = "75e425e4139fb6bfb001db50bbd662ee5619d2ef10307e7f38c0be5fb050883b"
MIXED = "f = 1/2*x + 1/3*x^3; g = 2/5*y + 1/7*x^2"
CUBIC_PAIR = "f = x + y^3; g = y + x^3"
MONODROMIC = ("P = -u^6*v - 3*u^4*v^3 - 3*u^2*v^5 - v^7 - u^6 + u^2*v^4 - 2*u^2*v^3; "
              "Q = u^7 + 3*u^5*v^2 + 3*u^3*v^4 + u*v^6 - 2*u^5*v - 2*u^3*v^3 + u^3*v^2 - u*v^4")
NO_REAL_FACTOR = "h has no factor v^1 - a*u^1 with real nonzero a"

DIAGRAM_README = """\
12 | V . . . . . . . . . . . .
11 | . . . . . . . . . . . . .
10 | . . * . . . . . . . . . .
 9 | . . * . . . . . . . . . .
 8 | . . . . * . . . . . . . .
 7 | . . . . * . . . . . . . .
 6 | . . . . * . * . . . . . .
 5 | . . . . . . * . . . . . .
 4 | . . . . . . * . * . . . .
 3 | . . . . . . . . * . . . .
 2 | . . . . . . V . * . * . .
 1 | . . . . . . . . . . * . .
 0 | . . . . . . . . V . * . *
   +--------------------------
     0   2   4   6   8   0   2

vertices:
  (0, 12) exterior, coeff (-1, 0), exponent 0
  (6, 2) inner, coeff (-6, -3), exponent 1/2
  (8, 0) exterior, coeff (0, 3), exponent inf
edges:
  type (5,3) bounded, exponent 3/5, line 5*x + 3*y = 36
  type (1,1) bounded, exponent 1, line 1*x + 1*y = 8
betas:
  (6, 2): 1/32
"""

# Both rays leave the axes, each through a second support point, and the
# edge 1*x + 1*y = 6 holds three support points.
MONODROMY_OFF_AXES = """\
8 | . * . . . . . . .
7 | . . . . . . . . .
6 | . . * . . . . . .
5 | . V . . . . . . .
4 | . . * . * . . . .
3 | . . . V . . . . .
2 | . . . . . V . * *
1 | . . . . . . . . .
0 | . . . . . . . . .
  +------------------
    0   2   4   6   8

vertices:
  (1, 5) inner, coeff (1, -1), exponent -1
  (3, 3) inner, coeff (1, 1), exponent 1
  (5, 2) inner, coeff (1, -2), exponent -2
edges:
  type (1,0) unbounded, exponent 0, line 1*x + 0*y = 1
  type (1,1) bounded, exponent 1, line 1*x + 1*y = 6
  type (1,2) bounded, exponent 2, line 1*x + 2*y = 9
  type (0,1) unbounded, exponent inf, line 0*x + 1*y = 2
betas:
  (3, 3): -1/18
  beta undefined at (1, 5): adjacent edge is unbounded
  beta undefined at (5, 2): adjacent edge is unbounded

monodromy: NotMonodromic
reason: beta = -1/18 < 0 at inner vertex (3, 3): parabolic sector at the origin
  (a) FAIL: vertices with odd coordinates: [(1, 5), (3, 3), (5, 2)]
  (b) FAIL: expected exactly two exterior vertices, found 0
  (c) FAIL: beta((3, 3)) = -1/18; beta((1, 5)) undefined: adjacent edge is unbounded; \
beta((5, 2)) undefined: adjacent edge is unbounded
  (d) FAIL: bounded edge of type (1,1) on 1*x + 1*y = 6 has factor v^1 - a*u^1: a = 3/2; \
bounded edge of type (1,2) on 1*x + 2*y = 9 has factor v^1 - a*u^2: a = -4
"""

RUNS = [
    # -- check ---------------------------------------------------------------------
    Run("check-readme-map", ("check", README_MAP), 0, lines=(
        "verdict: Injective",
        "diagram vertices: (0, 12), (6, 2), (8, 0)",
        "beta(6, 2) = 1/32",
        "  (d) pass: every bounded edge Hamiltonian is nonzero and factor-free")),
    Run("check-inconclusive", ("check", "f = 2*x - y^3 - 2*y^2 - y; g = -y"), 2, lines=(
        "verdict: Inconclusive",
        "  (d) FAIL: bounded edge of type (3,5) on 3*x + 5*y = 36 has factor v^3 - a*u^5: a = 2")),
    Run("check-not-applicable", ("check", "f = x; g = x^2"), 3, lines=(
        "verdict: NotApplicable",
        "reason: Jacobian determinant vanishes (determinant is identically zero)")),
    Run("check-det-zero", ("check", "f = x^2; g = y"), 3, lines=(
        "jacobian determinant: VanishesAt at zero (0, -5)",)),
    Run("check-det-sign-change", ("check", "f = 1/2*x^2 - 1/3*x; g = y"), 3, lines=(
        "jacobian determinant: VanishesAt between (1/2, -5) where det > 0 "
        "and (-5, -5) where det < 0",)),
    Run("check-without-assume-det", ("check", CUBIC_PAIR), 3),
    Run("check-assume-det", ("check", CUBIC_PAIR, "--assume-det"), 0, lines=(
        "jacobian determinant: AssumedByUser",)),
    Run("check-mixed-denominators", ("check", MIXED), 0, lines=(
        "beta(6, 2) = 1/2592",
        "  (b) pass: exterior coefficients a = -4/25, b = 1/3, a*b = -4/75 < 0")),
    Run("check-sparse-high-degree", ("check", "f = x + y^300001; g = y"), 2, timeout=20),
    # -- check --json: certificate digests -----------------------------------------
    Run("json-readme-map", ("check", "--json", README_MAP), 0, digest=README_DIGEST),
    Run("json-mixed-denominators", ("check", "--json", MIXED), 0,
        digest="9a11429e436265b0ad58d165681dcb9ad13f3ae036b18132a99a64b58917b01b"),
    # Each text spells the README map with powers of literals, variables and
    # groups, rationals, unary minuses and zero terms.
    Run("json-spelling-1", ("check", "--json", "f = x^1*1 + x*x^2; g = --y + (x)^2"), 0,
        digest=README_DIGEST),
    Run("json-spelling-2", ("check", "--json",
                            "f = 2/2*x + 1^7*x^3*y^0; g = y*(4/2)^0 + (2/4*x)^2*2^2 + 0^3"), 0,
        digest=README_DIGEST),
    Run("json-spelling-3", ("check", "--json", "f = (x^3 + x) - (0/5)^2; g = -(-y - x^2)^1"), 0,
        digest=README_DIGEST),
    Run("json-spelling-4", ("check", "--json",
                            "f = (2/2)^99*x*(1 + x^2); g = y + (x^2)^1*3/3^1"), 0,
        digest=README_DIGEST),
    # The determinant sample: a positive det sampled to the end (Unknown), a
    # sign change found among the 100 pseudo-random points, and an exact zero
    # at the 21st of them, the first point of a block.
    Run("json-det-unknown", ("check", "--json", "f = x + x^3 + 3*x*y^2; g = y + 3*x^2*y + y^3"),
        2, digest="631e6676f5204dfa44c0178411eb1c52933d5055ec0c3e16dcfc6a3cd6818bad"),
    Run("json-det-random-sign-change", ("check", "--json", "f = 26*x - 1/3*x^3; g = y"), 3,
        digest="e77b1272d70b1f014ecc011656e8ff2c12c665b029ea8829f3418d5f6e7bd207"),
    Run("json-det-random-zero", ("check", "--json",
                                 "f = 1/3*(x - 25/6)^3 + 1/3*(25/6)^3 + x*(y + 109/2)^2; g = y"),
        3, digest="0c9e9361a2eddfa4aafed3e4f3c4c9db3d06019032ef38d266b7f31422c67cf3"),
    # Condition (d) fails on a rational root: the factor witness goes in the JSON.
    Run("json-factor-witness", ("check", "--json", "f = x + (y + x^2)^3; g = y + x^2"), 2,
        digest="c3f3b3dd8be18bc7be2ad59faa7a49b7d37adb1a2be949a9bab392c43ecfa398"),
    # -- diagram -------------------------------------------------------------------
    Run("diagram-readme-map", ("diagram", README_MAP), 0, out=DIAGRAM_README),
    Run("diagram-constant-map", ("diagram", "f = 1; g = 0"), 3,
        err="the Hamiltonian field of this map is identically zero\n"),
    # -- monodromy -----------------------------------------------------------------
    Run("monodromy-circle", ("monodromy", "P = -v^3 - u^2*v; Q = u^3 + u*v^2"), 0, lines=(
        "monodromy: Monodromic",
        "  (a) pass: all vertices have even coordinates")),
    Run("monodromy-readme-field", ("monodromy", MONODROMIC), 0, lines=(
        "  (2, 4): 1/48",
        "  (4, 2): 1/48",
        "monodromy: Monodromic")),
    Run("monodromy-off-axes", ("monodromy",
                               "P = u*v^4 - 2*u^2*v^3 + u^3*v^2 + u^5*v + 3*u^8*v - u*v^7 "
                               "+ u^4*v^3 + 2*u^2*v^5; "
                               "Q = -v^5 + u*v^4 + u^2*v^3 - 2*u^4*v^2 + u^6*v^2"), 0,
        out=MONODROMY_OFF_AXES),
    Run("monodromy-odd-coordinate", ("monodromy", "P = u*v - v^5; Q = u^5"), 0, lines=(
        "  (a) FAIL: vertices with odd coordinates: [(1, 2)]",)),
    # The one bounded edge dehomogenizes to a binomial of degree 200001;
    # every Sturm value steps over its zero coefficients.
    Run("monodromy-sparse-edge", ("monodromy", "P = -v^200000; Q = u^200000"), 0, lines=(
        "  (d) FAIL: bounded edge of type (1,1) on 1*x + 1*y = 200001 "
        "has factor v^1 - a*u^1: a = -1",), timeout=20),
    Run("monodromy-zero-field", ("monodromy", "P = 0; Q = 0"), 1,
        err="error: support of the zero field\n"),
    # -- bendixson -----------------------------------------------------------------
    Run("bendixson-rotation", ("bendixson", "P = -y; Q = x"), 0,
        out="P = -u^2*v - v^3\nQ = u^3 + u*v^2\n"),
    Run("bendixson-readme-field", ("bendixson", "P = -y + x^2; Q = x + x*y^2"), 0, out=(
        "P = -u^6*v - 3*u^4*v^3 - 3*u^2*v^5 - v^7 - u^6 + u^2*v^4 - 2*u^2*v^3\n"
        "Q = u^7 + 3*u^5*v^2 + 3*u^3*v^4 + u*v^6 - 2*u^5*v - 2*u^3*v^3 + u^3*v^2 - u*v^4\n")),
    # For X = (1 + x, 1) the two u^2*v^2 terms of P cancel.
    Run("bendixson-cancelling-term", ("bendixson", "P = 1 + x; Q = 1"), 0, out=(
        "P = -u^4 - 2*u^3*v - 2*u*v^3 + v^4 - u^3 + u*v^2\n"
        "Q = u^4 - 2*u^3*v - 2*u*v^3 - v^4 - 2*u^2*v\n")),
    Run("bendixson-constant-field", ("bendixson", "P = 1; Q = 0"), 1,
        err="error: cannot compactify a nonzero constant field (degree 0)\n"),
    # -- factor-test ---------------------------------------------------------------
    Run("factor-two-roots", ("factor-test", "v^2 - 2*u^2", "--type", "1,1"), 0, lines=(
        "  a in (-7/4, -7/8)",
        "  a in (7/8, 7/4)")),
    Run("factor-rational-root", ("factor-test", "2*v - 3*u", "--type", "1,1"), 0, lines=(
        "  a = 3/2",)),
    Run("factor-exact-root", ("factor-test", "u*v - v^2", "--type", "1,1"), 0,
        out="h has a factor v^1 - a*u^1 for:\n  a = 1\n"),
    Run("factor-leading-minus", ("factor-test", "--type", "1,2", "--", "-u^2+v"), 0,
        out="h has a factor v^1 - a*u^2 for:\n  a = 1\n"),
    # No root in any of the next three: Descartes' rule of signs settles the
    # first; the second has a sign change in its coefficients and a negative
    # discriminant, which settles it; the third, a quartic with a sign
    # change, is settled by the Sturm chain's root count, with no bisection.
    Run("factor-none-descartes", ("factor-test", "v^2 + u^2", "--type", "1,1"), 0,
        out=NO_REAL_FACTOR + "\n"),
    Run("factor-none-discriminant", ("factor-test", "v^2 - u*v + u^2", "--type", "1,1"), 0,
        lines=(NO_REAL_FACTOR,)),
    Run("factor-none-sturm", ("factor-test", "v^4 - u^2*v^2 + u^4", "--type", "1,1"), 0,
        lines=(NO_REAL_FACTOR,)),
    Run("factor-type-zero", ("factor-test", "u*v", "--type", "0,0"), 1,
        err="invalid --type: quasi-homogeneity type (0, 0) is not allowed\n"),
    Run("factor-type-not-coprime", ("factor-test", "u*v", "--type", "2,4"), 1,
        err="invalid --type: quasi-homogeneity type (2, 4) is not coprime\n"),
    # ASCII digits only, as in map text.
    *(Run(f"factor-type-malformed-{i}", ("factor-test", "u*v", f"--type={text}"), 1,
          err=f"invalid --type '{text}': expected T1,T2, "
              "two non-negative integers such as 3,1\n")
      for i, text in enumerate(("x", "1,2,3", "a,b", "٣,1", "-1,2"))),
    # -- usage, parse and input errors ---------------------------------------------
    Run("usage-no-map", ("check",), 1),
    Run("parse-error", ("check", "f = x +; g = y"), 1, err=(
        "parse error: unexpected ';' at byte 7 "
        "(expected '(', integer, variable 'x', variable 'y')\n")),
    Run("parse-error-non-ascii-digit", ("check", "f = x^٣; g = y"), 1,
        err="parse error: unexpected character '٣' at byte 6\n"),
    Run("parse-error-denominator", ("check", "f = 2/x; g = y"), 1,
        err="parse error: unexpected name 'x' at byte 6 (expected integer denominator)\n"),
    Run("parse-error-character", ("check", "f = x + %; g = y"), 1,
        err="parse error: unexpected character '%' at byte 8\n"),
    Run("hostile-exponent", ("check", "f = x^99999999999999999999; g = y"), 1,
        err="parse error: exponent 99999999999999999999 exceeds 4611686018427387904 at byte 6\n"),
    Run("hostile-parentheses", ("check", "f = " + "(" * 200 + "x" + ")" * 200 + "; g = y"), 1,
        err="parse error: nesting deeper than 100 at byte 104\n"),
    Run("hostile-unary-minus", ("check", "f = " + "-" * 1000 + "x; g = y"), 1,
        err="parse error: nesting deeper than 100 at byte 104\n"),
    # A digit, not a decimal.
    Run("hostile-superscript", ("check", "f = x^²; g = y"), 1,
        err="parse error: unexpected character '²' at byte 6\n"),
    # Each factor is within the cap; their product is not.
    Run("exponent-overflow-in-a-product", ("check", f"f = x^{2 ** 62} * x; g = y"), 1,
        err=f"error: exponent {2 ** 62 + 1} exceeds {2 ** 62}\n"),
]
