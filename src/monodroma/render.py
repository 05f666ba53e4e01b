"""Text and SVG renderings of Newton diagrams."""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from .diagram import NewtonDiagram

_ASCII_LIMIT = 48


def _legend(diagram: NewtonDiagram) -> list[str]:
    lines = ["vertices:"]
    for v in diagram.vertices:
        exp = "inf" if v.exponent is None else str(v.exponent)
        lines.append(f"  {v.point} {v.kind}, coeff ({v.coeff[0]}, {v.coeff[1]}), exponent {exp}")
    lines.append("edges:")
    for e in diagram.edges:
        exp = "inf" if e.exponent is None else str(e.exponent)
        kind = "bounded" if e.bounded else "unbounded"
        lines.append(
            f"  type ({e.t[0]},{e.t[1]}) {kind}, exponent {exp}, "
            f"line {e.t[0]}*x + {e.t[1]}*y = {e.line_value}")
    if diagram.inner_betas:
        lines.append("betas:")
        for pt, beta in diagram.inner_betas:
            lines.append(f"  {pt}: {beta}")
    for pt, reason in diagram.beta_undefined:
        lines.append(f"  beta undefined at {pt}: {reason}")
    return lines


def render_ascii(diagram: NewtonDiagram, support_points: Iterable[tuple[int, int]]) -> str:
    """Lattice picture ('V' vertices, '*' other support points) plus legend."""
    vertex_points = diagram.vertex_points()
    points = [*support_points, *vertex_points]
    xmax = max(map(itemgetter(0), points))
    ymax = max(map(itemgetter(1), points))
    lines: list[str] = []
    if xmax <= _ASCII_LIMIT and ymax <= _ASCII_LIMIT:
        grid = [["."] * (xmax + 1) for _ in range(ymax + 1)]
        for x, y in points:
            grid[y][x] = "*"
        for x, y in vertex_points:
            grid[y][x] = "V"
        width = len(str(ymax))
        for y in range(ymax, -1, -1):
            lines.append(f"{y:>{width}} | " + " ".join(grid[y]))
        lines.append(" " * width + " +" + "-" * (2 * xmax + 2))
        labels = [str(x) if x % 2 == 0 else " " for x in range(xmax + 1)]
        lines.append(" " * width + "   " + " ".join(c[-1] for c in labels))
        lines.append("")
    lines.extend(_legend(diagram))
    return "\n".join(lines)


def render_svg(diagram: NewtonDiagram, support_points: Iterable[tuple[int, int]]) -> str:
    """Standalone SVG of the diagram with labelled vertices."""
    vertex_points = diagram.vertex_points()
    extra = sorted(set(support_points) - set(vertex_points))
    all_points = vertex_points + extra
    xmax = max(max(x for x, _ in all_points), 1)
    ymax = max(max(y for _, y in all_points), 1)
    scale = 36
    margin = 40
    width = xmax * scale + 2 * margin
    height = ymax * scale + 2 * margin

    def cx(x: int) -> int:
        return margin + x * scale

    def cy(y: int) -> int:
        return height - margin - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{cx(0)}" y1="{cy(0)}" x2="{cx(xmax)}" y2="{cy(0)}" stroke="#888"/>',
        f'<line x1="{cx(0)}" y1="{cy(0)}" x2="{cx(0)}" y2="{cy(ymax)}" stroke="#888"/>',
    ]
    for e in diagram.edges:
        if e.bounded:
            (ax, ay), (bx, by) = e.endpoints[0].point, e.endpoints[1].point
            parts.append(
                f'<line x1="{cx(ax)}" y1="{cy(ay)}" x2="{cx(bx)}" y2="{cy(by)}" '
                'stroke="#1a6" stroke-width="2"/>')
        else:
            (ax, ay) = e.endpoints[0].point
            dx, dy = (0, 1) if e.t == (1, 0) else (1, 0)
            parts.append(
                f'<line x1="{cx(ax)}" y1="{cy(ay)}" '
                f'x2="{cx(ax + dx * 2)}" y2="{cy(ay + dy * 2)}" '
                'stroke="#1a6" stroke-width="2" stroke-dasharray="6 4"/>')
    for x, y in extra:
        parts.append(f'<circle cx="{cx(x)}" cy="{cy(y)}" r="3" fill="#aaa"/>')
    for v in diagram.vertices:
        x, y = v.point
        color = "#d33" if v.kind == "inner" else "#33d"
        parts.append(f'<circle cx="{cx(x)}" cy="{cy(y)}" r="5" fill="{color}"/>')
        parts.append(
            f'<text x="{cx(x) + 8}" y="{cy(y) - 8}" font-size="12" '
            f'font-family="monospace">({x},{y})</text>')
    parts.append("</svg>")
    return "\n".join(parts)
