"""Deterministic SVG rendering of point sets, matchings, walks, arcs and
block hierarchies. Text output with fixed number formatting so renders are
byte-identical across runs and usable as golden files."""

from __future__ import annotations

from typing import List, Optional, Sequence

from .arcs import ArcTable
from .geometry import LINE
from .matching import Matching
from .sampling import ColoredPointSet

RED = "#c62828"
BLUE = "#1565c0"
EDGE = "#555555"
ARC = "#2e7d32"
WALK = "#9e9e9e"
BLOCK_COLORS = ["#bdbdbd", "#ffb300", "#8e24aa", "#00897b", "#d81b60", "#3949ab"]
MARGIN = 20
POINT_RADIUS = 2.5
WALK_SCALE = 0.08  # walk units per strip height


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Canvas:
    def __init__(self, width: int, height: int, x0, x1, y0, y1):
        self.width, self.height = width, height
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.elements: List[str] = []

    def tx(self, x: float) -> float:
        w = self.width - 2 * MARGIN
        return MARGIN + (x - self.x0) / (self.x1 - self.x0) * w

    def ty(self, y: float) -> float:
        h = self.height - 2 * MARGIN
        return self.height - MARGIN - (y - self.y0) / (self.y1 - self.y0) * h

    def line(self, a, b, color, width=1.0, dash=None, cls="line"):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line class="{cls}" x1="{_fmt(self.tx(a[0]))}" y1="{_fmt(self.ty(a[1]))}" '
            f'x2="{_fmt(self.tx(b[0]))}" y2="{_fmt(self.ty(b[1]))}" '
            f'stroke="{color}" stroke-width="{width}"{d} />'
        )

    def polyline(self, pts, color, width=1.0, cls="arc"):
        path = " ".join(f"{_fmt(self.tx(x))},{_fmt(self.ty(y))}" for x, y in pts)
        self.elements.append(
            f'<polyline class="{cls}" points="{path}" fill="none" '
            f'stroke="{color}" stroke-width="{width}" />'
        )

    def circle(self, p, color, r=None, cls="point"):
        r = r if r is not None else POINT_RADIUS
        self.elements.append(
            f'<circle class="{cls}" cx="{_fmt(self.tx(p[0]))}" cy="{_fmt(self.ty(p[1]))}" '
            f'r="{_fmt(r)}" fill="{color}" />'
        )

    def rect(self, x0, x1, y0, y1, color, width=1.0, cls="block"):
        self.elements.append(
            f'<rect class="{cls}" x="{_fmt(self.tx(x0))}" y="{_fmt(self.ty(y1))}" '
            f'width="{_fmt(self.tx(x1) - self.tx(x0))}" '
            f'height="{_fmt(self.ty(y0) - self.ty(y1))}" '
            f'fill="none" stroke="{color}" stroke-width="{width}" />'
        )

    def svg(self) -> str:
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n{body}\n</svg>\n'
        )


def render_scene(ps: ColoredPointSet,
                 matching: Optional[Matching] = None,
                 arcs: Optional[ArcTable] = None,
                 walk=None,
                 blocks: Optional[Sequence] = None,
                 width: int = 800,
                 height: int = 400) -> str:
    """Compose point/edge/arc/walk/block layers into one SVG document. The
    arcs, an ``ArcTable``, are drawn from its vertex column; a block is a
    (level, x0, x1, y0, y1) row. ``width`` and ``height`` are the SVG's
    size in pixels, a margin of MARGIN included."""
    d = ps.domain
    if d.kind == LINE:
        y0, y1 = -1.0, 1.0
    else:
        y0, y1 = d.y0, d.y1
    if walk is not None and len(walk.xs):
        vals = walk.values
        lo = min(0, int(vals.min()))
        y0 = min(y0, (lo - 1) * WALK_SCALE)
    canvas = _Canvas(width, height, d.x0, d.x1, y0, y1)

    if blocks:
        for level, x0, x1, y0, y1 in blocks:
            color = BLOCK_COLORS[level % len(BLOCK_COLORS)]
            canvas.rect(x0, x1, y0, y1, color, width=0.5 + 0.4 * level)

    if walk is not None and len(walk.xs):
        vals = walk.values
        s = WALK_SCALE
        prev_v = 0
        prev_x = d.x0
        for x, v in zip(walk.xs, vals):
            canvas.line((prev_x, prev_v * s - s), (x, prev_v * s - s), WALK, cls="walk")
            canvas.line((x, prev_v * s - s), (x, v * s - s), WALK, dash="2,2", cls="walk")
            prev_x, prev_v = x, v
        canvas.line((prev_x, prev_v * s - s), (d.x1, prev_v * s - s), WALK, cls="walk")

    if matching is not None:
        p, q = matching.endpoint_arrays()
        for a, b in zip(p, q):
            canvas.line(a, b, EDGE, cls="edge")

    if arcs is not None:
        for vertices in arcs.vertices.tolist():
            canvas.polyline(vertices, ARC, cls="arc")

    for p in ps.reds:
        canvas.circle(p, RED, cls="red-point")
    for p in ps.blues:
        canvas.circle(p, BLUE, cls="blue-point")
    return canvas.svg()
