"""Metamorphic relations: maps whose certificates must agree, checked end to
end with no second implementation to compare against.

R1, a rotation of the target, (f, g) -> ((3f - 4g)/5, (4f + 3g)/5), keeps
f^2 + g^2 and the Jacobian determinant.  So it keeps every stage certify
runs, and the two certificates agree apart from the input they quote and
their timings.  Every stage past the energy and det reads only those two,
so R1 tests the arithmetic that forms them: a det kernel that adds
f_y*g_x instead of subtracting it fails R1.  Any quadratic form in the coefficients
is rotation-invariant, so a squaring kernel that drops the doubling of its
cross terms passes R1.

R2 swaps the target's components, negates one, or scales both by 7.  The
energy is kept or scaled and det is kept, negated or scaled, all at the
same points, so the verdict, the determinant status and the monodromy
outcome are equal.

R3 composes the map with x -> -x, y -> -y or the swap of x and y, edited
into the map's text, so the parser reads every example too.  F o S is
injective exactly when F is, and det(F o S) vanishes exactly where det F
does at the mirrored point.  Sampling looks at fixed points that no mirror
keeps, so the two statuses may differ; what must not happen is a proof
one way and a zero the other: Injective for one map and VanishesAt for its
mirror.  Where both certificates reach the monodromy stage, its outcome is
equal too: a mirror of the plane keeps whether the origin is monodromic.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from monodroma import BivarPoly, certify, parse_map
from monodroma.pipeline import INJECTIVE, VANISHES

X = BivarPoly.monomial(1, 0)
Y = BivarPoly.monomial(0, 1)


def rotated(f: BivarPoly, g: BivarPoly) -> tuple[BivarPoly, BivarPoly]:
    cos, sin = Fraction(3, 5), Fraction(4, 5)
    return f * cos - g * sin, f * sin + g * cos


def evidence(f: BivarPoly, g: BivarPoly, assume_det: bool) -> dict:
    """The certificate's JSON without ``input`` and ``timings_ms``."""
    doc = certify(f, g, assume_det=assume_det).to_json_dict()
    del doc["input"], doc["timings_ms"]
    return doc


_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
# No constant term: the NotApplicable reason for F(0, 0) != 0 quotes the
# constants, and R1 rotates them.
_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: 0 < sum(e) <= 4),
    _coeffs, max_size=5).map(BivarPoly)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_polys, _polys, st.booleans())
@example(*parse_map("f = x + x^3; g = y + x^2"), False)
@example(BivarPoly.zero(), BivarPoly.zero(), False)
def test_rotating_the_target_keeps_the_certificate(f, g, plus_identity):
    # Adding the identity makes a determinant that vanishes nowhere, and so
    # Injective verdicts, far more likely.
    if plus_identity:
        f, g = f + X, g + Y
    for assume_det in (False, True):
        assert evidence(*rotated(f, g), assume_det) == evidence(f, g, assume_det)


def verdicts(f: BivarPoly, g: BivarPoly) -> tuple[str, str, str | None]:
    """The verdict, the determinant status and the monodromy outcome, None
    when certify stops before the monodromy stage."""
    cert = certify(f, g)
    return cert.verdict, cert.det_status.status, cert.monodromy and cert.monodromy.outcome


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_polys, _polys, st.booleans())
@example(*parse_map("f = x + x^3; g = y + x^2"), False)
@example(*parse_map("f = x + x^3 + 3*x*y^2; g = y + 3*x^2*y + y^3"), False)  # det: Unknown
@example(*parse_map("f = 26*x - 1/3*x^3; g = y"), False)  # a sign change among the sample
@example(BivarPoly.zero(), BivarPoly.zero(), False)
def test_swapping_negating_or_scaling_the_target_keeps_the_verdict(f, g, plus_identity):
    if plus_identity:
        f, g = f + X, g + Y
    expected = verdicts(f, g)
    for image in ((g, f), (-f, g), (f * 7, g * 7)):
        assert verdicts(*image) == expected


# Each mirror S of the plane as an edit of the map text and as a map of the
# terms: x -> -x, y -> -y, and the swap of x and y.
_MIRRORS = (
    ({ord("x"): "(-x)"}, lambda i, j, c: ((i, j), -c if i % 2 else c)),
    ({ord("y"): "(-y)"}, lambda i, j, c: ((i, j), -c if j % 2 else c)),
    ({ord("x"): "y", ord("y"): "x"}, lambda i, j, c: ((j, i), c)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_polys, _polys, st.booleans())
@example(*parse_map("f = x + x^3; g = y + x^2"), False)
@example(*parse_map("f = x + x^3 + 3*x*y^2; g = y + 3*x^2*y + y^3"), False)
@example(*parse_map("f = 26*x - 1/3*x^3; g = y"), False)
def test_mirroring_the_input_never_turns_a_proof_into_a_zero(f, g, plus_identity):
    if plus_identity:
        f, g = f + X, g + Y
    text = f"f = {f.to_string()}; g = {g.to_string()}"
    verdict, status, outcome = verdicts(f, g)
    for edit, mirror in _MIRRORS:
        mf, mg = parse_map(text.translate(edit))
        assert (mf, mg) == tuple(BivarPoly(dict(mirror(i, j, c) for (i, j), c in p.terms()))
                                 for p in (f, g))
        mirrored_verdict, mirrored_status, mirrored_outcome = verdicts(mf, mg)
        assert not (verdict == INJECTIVE and mirrored_status == VANISHES)
        assert not (mirrored_verdict == INJECTIVE and status == VANISHES)
        # The origin's monodromy is a property of the mirrored field too.
        if outcome and mirrored_outcome:
            assert mirrored_outcome == outcome
