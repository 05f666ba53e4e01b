"""Command-line interface.

Exit codes for ``check``: 0 Injective, 2 Inconclusive, 3 NotApplicable,
1 usage, parse or input error (an exponent past polycore.MAX_EXPONENT too).
No subcommand draws random numbers at run time: the same input always gives
the same output, apart from timings.  Only ``check --with-oracle`` runs
numerics: after certification, it winds on ``Certificate.compactified`` and
prints ``cima_condition``, the 2016 coprime-leading-forms comparison.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Optional, Sequence

from .parser import ParseError, parse_bindings, parse_map, parse_poly
from .polycore import ExponentOverflowError, quasi_type
from .field import PlanarField, hamiltonian_field, support_points
from .bendixson import compactify
from .diagram import build_diagram
from .monodromy import check_monodromic
from .pipeline import INCONCLUSIVE, INJECTIVE, NOT_APPLICABLE, certify, cima_condition
from .realroots import quasi_factor_test
from .render import render_ascii, render_svg

_VERDICT_EXIT = {INJECTIVE: 0, INCONCLUSIVE: 2, NOT_APPLICABLE: 3}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors, matching the parse-error code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _print_certificate(cert, cima: Optional[bool], windings: list) -> None:
    print(f"verdict: {cert.verdict}")
    if cert.reason:
        print(f"reason: {cert.reason}")
    det = cert.det_status
    line = f"jacobian determinant: {det.status}"
    if det.method:
        line += f" ({det.method})"
    if det.witness is not None:
        line += f" at zero ({det.witness[0]}, {det.witness[1]})"
    if det.segment is not None:
        (px, py), (nx, ny) = det.segment
        line += f" between ({px}, {py}) where det > 0 and ({nx}, {ny}) where det < 0"
    print(line)
    if cert.diagram is not None:
        points = ", ".join(str(v.point) for v in cert.diagram.vertices)
        print(f"diagram vertices: {points}")
        for pt, beta in cert.diagram.inner_betas:
            print(f"beta{pt} = {beta}")
    if cert.monodromy is not None:
        print(f"monodromy: {cert.monodromy.outcome}")
        for report in cert.monodromy.conditions:
            mark = "pass" if report.passed else "FAIL"
            print(f"  ({report.condition}) {mark}: {report.detail}")
    if cima is not None:
        print(f"coprime leading forms: {'yes' if cima else 'no'}")
    for radius, run in windings:
        print(f"oracle winding from r={radius}: {run.angle:+.6f} ({run.status})")
    print(f"total time: {cert.timings_ms['total']:.1f} ms")


def _cmd_check(args: argparse.Namespace) -> int:
    f, g = parse_map(args.map)
    cert = certify(f, g, assume_det=args.assume_det)
    cima, windings, oracle_ms = None, [], 0.0
    # b(X) is rebuilt on every read of cert.compactified: read it once here.
    if args.with_oracle and (b_field := cert.compactified) is not None:
        try:
            from . import oracle
        except ImportError:
            print("error: --with-oracle needs numpy and scipy (pip install -e '.[oracle]')",
                  file=sys.stderr)
            return 1
        start = time.perf_counter()
        cima = cima_condition(f, g)
        windings = [(r, oracle.winding(b_field, (r, 0.0))) for r in (0.05, 0.1, 0.3)]
        oracle_ms = (time.perf_counter() - start) * 1000.0
    if args.json:
        doc = cert.to_json_dict()
        if windings:
            doc["timings_ms"]["oracle"] = oracle_ms
            doc["oracle"] = {"cima_condition": cima,
                             "winding": [{"start_radius": r, "angle": run.angle,
                                          "status": run.status} for r, run in windings]}
        print(json.dumps(doc, separators=(",", ":")))
    else:
        _print_certificate(cert, cima, windings)
    return _VERDICT_EXIT[cert.verdict]


def _cmd_diagram(args: argparse.Namespace) -> int:
    f, g = parse_map(args.map)
    x_field = hamiltonian_field(f, g)
    if x_field.is_zero:
        print("the Hamiltonian field of this map is identically zero", file=sys.stderr)
        return 3
    b_field = compactify(x_field)
    dia = build_diagram(b_field)
    points = support_points(b_field)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_svg(dia, points))
        print(f"wrote {args.svg}")
    else:
        print(render_ascii(dia, points))
    return 0


def _cmd_monodromy(args: argparse.Namespace) -> int:
    p, q = parse_bindings(args.field, ("P", "Q"), ("u", "v"))
    x_field = PlanarField(p, q)
    dia = build_diagram(x_field)  # the zero field has no support: an error, exit 1
    verdict = check_monodromic(dia)
    print(render_ascii(dia, support_points(x_field)))
    print()
    print(f"monodromy: {verdict.outcome}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    for report in verdict.conditions:
        mark = "pass" if report.passed else "FAIL"
        print(f"  ({report.condition}) {mark}: {report.detail}")
    return 0


def _cmd_bendixson(args: argparse.Namespace) -> int:
    p, q = parse_bindings(args.field, ("P", "Q"), ("x", "y"))
    b_field = compactify(PlanarField(p, q))
    print(f"P = {b_field.p.to_string(('u', 'v'))}")
    print(f"Q = {b_field.q.to_string(('u', 'v'))}")
    return 0


def _cmd_factor_test(args: argparse.Namespace) -> int:
    typed = re.fullmatch(r"([0-9]+),([0-9]+)", args.type)
    if typed is None:
        print(f"invalid --type {args.type!r}: expected T1,T2, "
              "two non-negative integers such as 3,1", file=sys.stderr)
        return 1
    try:
        t = quasi_type(int(typed[1]), int(typed[2]))
    except ValueError as exc:
        print(f"invalid --type: {exc}", file=sys.stderr)
        return 1
    h = parse_poly(args.poly, ("u", "v"))
    result = quasi_factor_test(h, t)
    # Format every line before printing any, so an error prints nothing.
    if result.has_factor:
        lines = [f"h has a factor v^{t[0]} - a*u^{t[1]} for:"]
        lines += [f"  a = {w.exact}" if w.exact is not None else f"  a in ({w.lo}, {w.hi})"
                  for w in result.witnesses]
    else:
        lines = [f"h has no factor v^{t[0]} - a*u^{t[1]} with real nonzero a"]
    print("\n".join(lines))
    return 0


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="monodroma",
        description="Exact injectivity certification for planar polynomial maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", parents=[], help="certify a map f = ...; g = ...")
    check.add_argument("map", help="map text, e.g. 'f = x + x^3; g = y + x^2'")
    check.add_argument("--assume-det", action="store_true",
                       help="take the nonvanishing determinant hypothesis on trust")
    check.add_argument("--json", action="store_true", help="emit the JSON certificate")
    check.add_argument("--with-oracle", action="store_true",
                       help="cross-check with the numeric winding oracle")
    check.set_defaults(func=_cmd_check)

    diagram = sub.add_parser("diagram", help="Newton diagram of b(X) for a map")
    diagram.add_argument("map")
    group = diagram.add_mutually_exclusive_group()
    group.add_argument("--ascii", action="store_true", help="text rendering (default)")
    group.add_argument("--svg", metavar="FILE", help="write an SVG rendering")
    diagram.set_defaults(func=_cmd_diagram)

    monodromy = sub.add_parser("monodromy", help="monodromy test for a field P = ...; Q = ... in (u, v)")
    monodromy.add_argument("field")
    monodromy.set_defaults(func=_cmd_monodromy)

    bendixson = sub.add_parser("bendixson", help="compactify a field P = ...; Q = ... in (x, y)")
    bendixson.add_argument("field")
    bendixson.set_defaults(func=_cmd_bendixson)

    factor = sub.add_parser("factor-test", help="edge factor test for a polynomial in (u, v)")
    factor.add_argument("poly", help="polynomial in u, v; one that starts with '-' goes "
                        "after --, as in: factor-test --type 1,2 -- '-u^2+v'")
    factor.add_argument("--type", required=True, metavar="T1,T2",
                        help="quasi-homogeneity type, e.g. 3,1")
    factor.set_defaults(func=_cmd_factor_test)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ExponentOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
