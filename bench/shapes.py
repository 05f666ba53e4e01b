"""The two request shapes: map text in, program output out.

Each request calls the public functions through the ``monodroma`` package
namespace, the same names the command line uses, and returns the output
text together with the objects the correctness gate inspects afterwards.
"""

from __future__ import annotations

import json


def to_json(cert) -> str:
    """What ``monodroma check --json`` prints for a certificate."""
    return json.dumps(cert.to_json_dict(), indent=2)


def check_request(api, text: str):
    """parse_map -> certify -> to_json_dict -> json.dumps."""
    f, g = api.parse_map(text)
    cert = api.certify(f, g)
    return to_json(cert), cert


def diagram_request(api, text: str):
    """parse_map -> hamiltonian_field -> compactify -> build_diagram ->
    support -> render_ascii, as ``monodroma diagram --ascii`` does."""
    f, g = api.parse_map(text)
    x_field = api.hamiltonian_field(f, g)
    if x_field.is_zero:
        raise ValueError("the Hamiltonian field of this map is identically zero")
    b_field = api.compactify(x_field)
    dia = api.build_diagram(b_field)
    points = [sp.point for sp in api.support(b_field)]
    return api.render_ascii(dia, points), (b_field, dia, points)


SHAPES = {"check": check_request, "diagram": diagram_request}
