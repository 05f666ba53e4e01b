"""Exact injectivity certification for planar polynomial maps.

The pipeline: from a map F = (f, g) with nonvanishing Jacobian determinant,
build the Hamiltonian field of (f^2 + g^2) / 2, compactify it, and test a
combinatorial monodromy condition on its Newton diagram.  When the origin of
the compactified field is monodromic, F is globally injective.

The package root exports the pipeline and its errors; every helper stays in
its module (``monodroma.realroots``, ``monodroma.diagram``, ...).
"""

from .polycore import BivarPoly, ExponentOverflowError, ZeroPolynomialError
from .parser import ParseError, parse_bindings, parse_map, parse_poly
from .field import PlanarField, hamiltonian_field, support
from .bendixson import DegenerateTransformError, compactify, compactify_lower
from .diagram import build_diagram
from .realroots import quasi_factor_test
from .monodromy import check_monodromic
from .pipeline import Certificate, certify, det_nonvanishing_heuristic, jacobian_det
from .render import render_ascii, render_svg

__version__ = "0.1.0"

__all__ = [
    "BivarPoly",
    "Certificate",
    "DegenerateTransformError",
    "ExponentOverflowError",
    "ParseError",
    "PlanarField",
    "ZeroPolynomialError",
    "build_diagram",
    "certify",
    "check_monodromic",
    "compactify",
    "compactify_lower",
    "det_nonvanishing_heuristic",
    "hamiltonian_field",
    "jacobian_det",
    "parse_bindings",
    "parse_map",
    "parse_poly",
    "quasi_factor_test",
    "render_ascii",
    "render_svg",
    "support",
]
