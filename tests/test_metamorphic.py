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
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from monodroma import BivarPoly, certify, parse_map

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
