"""Correctness gate: every output is checked, outside the timed code.

* Certificates validate against the packaged ``certificate.schema.json``.
* The README map and the pinned acceptance fixtures give their pinned
  answers.
* A ``VanishesAt`` status with an exact witness gives det = 0 exactly when
  the determinant is evaluated again here, from the partial derivatives of
  the input map, without the program's determinant code.
* No map with a determinant zero is ``Injective``; an ``Injective`` map's
  determinant keeps one sign on a rational grid.
* The diagram vertices equal those of ``oracle.brute_force_diagram``
  applied to the support of b(X) (``oracle_cross_check``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import KNOWN_ANSWERS

_GRID = [(Fraction(i, 2), Fraction(j, 3)) for i in range(-4, 5) for j in range(-4, 5)]


def load_validator(api):
    import jsonschema

    schema_path = Path(api.__file__).with_name("certificate.schema.json")
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def det_at(f, g, x: Fraction, y: Fraction) -> Fraction:
    """f_x*g_y - f_y*g_x at (x, y), from the terms of f and g."""

    def partials(poly):
        dx = dy = Fraction(0)
        for (i, j), c in poly.terms():
            if i:
                dx += c * i * x ** (i - 1) * y ** j
            if j:
                dy += c * j * x ** i * y ** (j - 1)
        return dx, dy

    fx, fy = partials(f)
    gx, gy = partials(g)
    return fx * gy - fy * gx


def canonical(shape: str, output: str) -> str:
    """The output with timings dropped, in a canonical byte form."""
    if shape != "check":
        return output
    doc = json.loads(output)
    doc.pop("timings_ms", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def check_certificate(validator, case, output: str, cert) -> list[str]:
    """Problems with one check-request output; empty when it is correct."""
    problems = [f"schema: {err.message}" for err in validator.iter_errors(json.loads(output))]
    status = cert.det_status
    if status.status == "VanishesAt" and status.witness_exact:
        x, y = status.witness
        if det_at(cert.f, cert.g, x, y) != 0:
            problems.append(f"exact det witness ({x}, {y}) is not a zero")
    if cert.verdict == "Injective":
        if case.det_zero:
            problems.append("Injective verdict on a map whose determinant has a zero")
        values = [det_at(cert.f, cert.g, x, y) for x, y in _GRID]
        signs = {(v > 0) - (v < 0) for v in values}
        if 0 in signs or len(signs) != 1:
            problems.append("Injective verdict but the determinant is not of one sign on the grid")
    return problems


def check_diagram(output: str, artifact) -> list[str]:
    """The legend lists exactly the diagram's vertices, in order."""
    _, dia, _ = artifact
    listed = [line.split(")")[0].strip() + ")" for line in output.splitlines()
              if line.startswith("  (") and ("exterior" in line or "inner" in line)]
    expected = [str(v.point) for v in dia.vertices]
    return [] if listed == expected else [f"legend vertices {listed} != {expected}"]


def known_answers(api, check_request, diagram_request) -> dict[str, list[str]]:
    """Run the pinned fixtures; return the wrong answers by input text."""
    problems: dict[str, list[str]] = {}
    for item in KNOWN_ANSWERS:
        _, cert = check_request(api, item["text"])
        found = []
        if cert.verdict != item["verdict"]:
            found.append(f"verdict {cert.verdict}, expected {item['verdict']}")
        if "det_status" in item and cert.det_status.status != item["det_status"]:
            found.append(f"det status {cert.det_status.status}")
        if "vertices" in item and [v.point for v in cert.diagram.vertices] != item["vertices"]:
            found.append(f"vertices {[v.point for v in cert.diagram.vertices]}")
        for point, beta in item.get("betas", {}).items():
            if dict(cert.diagram.inner_betas).get(point) != Fraction(beta):
                found.append(f"beta{point} != {beta}")
        if "edge_types" in item:
            types = sorted(e.t for e in cert.diagram.edges if e.bounded)
            if types != sorted(item["edge_types"]):
                found.append(f"bounded edge types {types}")
        if found:
            problems[item["text"]] = found
    readme = KNOWN_ANSWERS[0]["text"]
    text, _ = diagram_request(api, readme)
    missing = [needle for needle in ("(0, 12) exterior", "(6, 2) inner", "(8, 0) exterior",
                                     "(6, 2): 1/32") if needle not in text]
    if missing:
        problems[f"diagram of {readme}"] = [f"lacks {needle!r}" for needle in missing]
    return problems


def _staircase(points) -> list[tuple[int, int]]:
    """Points not dominated coordinatewise by another point.  Every Newton
    diagram vertex is one of them, and they span the same diagram."""
    out: list[tuple[int, int]] = []
    for x, y in sorted(set(points)):
        if not out or y < out[-1][1]:
            out.append((x, y))
    return out


def oracle_cross_check(shape: str, artifact) -> list[str]:
    """Diagram vertices against the brute-force oracle on supp(b(X))."""
    from monodroma.oracle import brute_force_diagram

    if shape == "check":
        if artifact.diagram is None:
            return []
        points = [(i, j + 1) for (i, j), _ in artifact.compactified.p.terms()]
        points += [(i + 1, j) for (i, j), _ in artifact.compactified.q.terms()]
        vertices = [v.point for v in artifact.diagram.vertices]
    else:
        _, dia, points = artifact
        vertices = [v.point for v in dia.vertices]
    expected = brute_force_diagram(_staircase(points))
    return [] if vertices == expected else [f"oracle vertices {expected} != {vertices}"]
