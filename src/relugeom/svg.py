"""Deterministic SVG rendering of planar decision-region pictures.

Input dimension 2 only.  Regions Y and N are filled with two colors, the
bent hyperplane arrangement is drawn with flat edges dashed and oriented
edges carrying an arrowhead at their midpoint, and the level set F = t is
drawn on top.  All geometry is clipped to the bounding box exactly in
rational arithmetic; floats appear only in the final coordinate formatting,
so the output is a stable function of the complex.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .complexes import (
    RAY,
    SEGMENT,
    CanonicalComplex,
    Cell,
    cell_forms,
    edge_geometry,
    line_interval,
    sign_key,
)
from .linalg import Vec, dot, solve_square, vadd, vscale
from .topology import DecisionTopology, oriented_skeleton

YES_FILL = "#cde7cd"
NO_FILL = "#f3cfcf"
EDGE_COLOR = "#222222"
LEVEL_COLOR = "#1565c0"
VERTEX_COLOR = "#000000"

CANVAS = 800.0


def default_bbox(cpx: CanonicalComplex) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The vertex bounding box padded by 20 percent (unit box fallback)."""
    points = [c.witness for c in cpx.cells.values() if c.dim == 0]
    if not points:
        return (Fraction(-2), Fraction(-2), Fraction(2), Fraction(2))
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = max(x1 - x0, y1 - y0, Fraction(1)) * Fraction(1, 5)
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _box_rows(bbox) -> list[tuple[Vec, Fraction]]:
    x0, y0, x1, y1 = bbox
    one = Fraction(1)
    return [
        ((one, Fraction(0)), -x0),  # x >= x0
        ((-one, Fraction(0)), x1),  # x <= x1
        ((Fraction(0), one), -y0),
        ((Fraction(0), -one), y1),
    ]


def _clip_cell_polygon(cpx: CanonicalComplex, cell: Cell, bbox) -> list[Vec]:
    """Vertices of the (convex) closed 2-cell intersected with the box, in
    angular order; empty when the intersection is lower-dimensional.  A
    2-cell of the plane has no equality rows, only degenerate ones."""
    rows = [
        (tuple(s * x for x in w), s * c)
        for (w, c), s in zip(cell_forms(cpx, cell), cell.sign)
        if s and any(w)
    ] + _box_rows(bbox)
    candidates: set[Vec] = set()
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            (w1, c1), (w2, c2) = rows[i], rows[j]
            p = solve_square((w1, w2), (-c1, -c2))
            if p is None:
                continue
            if all(dot(w, p) + c >= 0 for w, c in rows):
                candidates.add(p)
    if len(candidates) < 3:
        return []
    pts = sorted(candidates)
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts.sort(key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))
    return pts


def _clip_edge(kind, base, direction, end, bbox) -> tuple[Vec, Vec] | None:
    """The edge's visible segment inside the box, or None."""
    if kind == SEGMENT:
        lo, hi = Fraction(0), Fraction(1)
    elif kind == RAY:
        lo, hi = Fraction(0), None
    else:
        lo, hi = None, None
    interval = line_interval(_box_rows(bbox), base, direction, lo, hi)
    if interval is None:
        return None
    # the box bounds every line, so both ends are now finite
    lo, hi = interval
    return vadd(base, vscale(direction, lo)), vadd(base, vscale(direction, hi))


class _Canvas:
    def __init__(self, bbox):
        self.x0, self.y0, self.x1, self.y1 = (float(v) for v in bbox)
        span = max(self.x1 - self.x0, self.y1 - self.y0)
        self.scale = CANVAS / span if span else 1.0
        self.parts: list[str] = []

    def map(self, p: Vec) -> tuple[float, float]:
        return (
            (float(p[0]) - self.x0) * self.scale,
            (self.y1 - float(p[1])) * self.scale,
        )

    def fmt(self, p: Vec) -> str:
        x, y = self.map(p)
        return f"{x:.2f},{y:.2f}"

    def polygon(self, pts, fill):
        coords = " ".join(self.fmt(p) for p in pts)
        self.parts.append(f'<polygon points="{coords}" fill="{fill}" stroke="none"/>')

    def line(self, a, b, color, width, dashed=False):
        xa, ya = self.map(a)
        xb, yb = self.map(b)
        dash = ' stroke-dasharray="8,6"' if dashed else ""
        self.parts.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            f'stroke="{color}" stroke-width="{width}"{dash}/>'
        )

    def arrow(self, a, b, color):
        """A small arrowhead at the midpoint of the segment a -> b."""
        xa, ya = self.map(a)
        xb, yb = self.map(b)
        mx, my = (xa + xb) / 2, (ya + yb) / 2
        dx, dy = xb - xa, yb - ya
        norm = math.hypot(dx, dy)
        if norm < 1e-9:
            return
        ux, uy = dx / norm, dy / norm
        px, py = -uy, ux
        size = 9.0
        tip = (mx + ux * size / 2, my + uy * size / 2)
        left = (mx - ux * size / 2 + px * size / 2.2, my - uy * size / 2 + py * size / 2.2)
        right = (mx - ux * size / 2 - px * size / 2.2, my - uy * size / 2 - py * size / 2.2)
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (tip, left, right))
        self.parts.append(f'<polygon points="{coords}" fill="{color}" stroke="none"/>')

    def dot(self, p, color):
        x, y = self.map(p)
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{color}"/>')

    def render(self) -> str:
        w = (self.x1 - self.x0) * self.scale
        h = (self.y1 - self.y0) * self.scale
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
            f'viewBox="0 0 {w:.2f} {h:.2f}">\n'
            f'<rect width="100%" height="100%" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )


def render_svg(topology: DecisionTopology, bbox=None) -> str:
    """Draw the decision picture of a planar network at a transversal
    threshold: Y/N fills, the oriented bent hyperplane arrangement, and the
    level set."""
    base = topology.base
    refined = topology.complex
    if base.ambient_dim != 2:
        raise ValueError("SVG rendering needs input dimension 2")
    if bbox is None:
        bbox = default_bbox(base)
    canvas = _Canvas(bbox)

    for key in sorted(refined.cells, key=sign_key):
        cell = refined.cells[key]
        if cell.dim != 2 or key[-1] == 0:
            continue
        pts = _clip_cell_polygon(refined, cell, bbox)
        if pts:
            canvas.polygon(pts, YES_FILL if key[-1] > 0 else NO_FILL)

    skeleton = oriented_skeleton(base)
    for key in sorted(skeleton.edges, key=sign_key):
        edge = skeleton.edges[key]
        clipped = _clip_edge(edge.kind, edge.base, edge.direction, edge.end, bbox)
        if clipped is None:
            continue
        a, b = clipped
        canvas.line(a, b, EDGE_COLOR, 2.0, dashed=edge.flat)
        if not edge.flat:
            head, tail = (b, a) if edge.orientation > 0 else (a, b)
            canvas.arrow(tail, head, EDGE_COLOR)

    for key in sorted(refined.cells, key=sign_key):
        cell = refined.cells[key]
        if key[-1] != 0 or cell.dim != 1:
            continue
        kind, base_pt, direction, end = edge_geometry(refined, cell)
        clipped = _clip_edge(kind, base_pt, direction, end, bbox)
        if clipped is not None:
            canvas.line(clipped[0], clipped[1], LEVEL_COLOR, 3.0)

    for key in sorted(base.cells, key=sign_key):
        cell = base.cells[key]
        if cell.dim == 0:
            canvas.dot(cell.witness, VERTEX_COLOR)

    return canvas.render()
