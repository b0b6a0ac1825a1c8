"""Deterministic SVG rendering of point sets, matchings, walks, arcs and
block hierarchies. Text output with fixed number formatting so renders are
byte-identical across runs and usable as golden files.

``render_scene`` streams the document: each layer is one ``%`` template
filled row by row from numpy columns, mapped to the screen once per
column and read ROWS_PER_BLOCK rows at a time (``_rows``, which the CLI's
JSON writer uses too), so neither a list of elements nor the text is held.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

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
ROWS_PER_BLOCK = 512  # rows of a column read from numpy at a time

# one element per row: the {} fields are set per layer, the % fields per row
LINE_ROW = ('<line class="{}" x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" '
            'stroke="{}" stroke-width="1.0"{} />\n')
RECT_ROW = ('<rect class="block" x="%.4f" y="%.4f" width="%.4f" height="%.4f" '
            'fill="none" stroke="{}" stroke-width="{}" />\n')
ARC_ROW = ('<polyline class="arc" points="%.4f,%.4f %.4f,%.4f %.4f,%.4f %.4f,%.4f" '
           f'fill="none" stroke="{ARC}" stroke-width="1.0" />\n')
POINT_ROW = '<circle class="{}" cx="%.4f" cy="%.4f" r="{:.4f}" fill="{}" />\n'


def _rows(template: str, *columns: np.ndarray) -> Iterator[str]:
    """``template`` filled from each row of ``columns``, read ROWS_PER_BLOCK
    rows at a time."""
    return itertools.chain.from_iterable(
        map(template.__mod__, zip(*(c[s:s + ROWS_PER_BLOCK].tolist() for c in columns)))
        for s in range(0, len(columns[0]), ROWS_PER_BLOCK))


def render_scene(ps: ColoredPointSet,
                 matching: Optional[Matching] = None,
                 arcs: Optional[ArcTable] = None,
                 walk=None,
                 blocks: Iterable[Tuple[int, np.ndarray]] = (),
                 width: int = 800,
                 height: int = 400) -> Iterator[str]:
    """The SVG document of the block, walk, edge, arc and point layers, as
    chunks of text. The arcs, an ``ArcTable``, are drawn from its vertex
    column; ``blocks`` are (level, rects) pairs, ``rects`` the (x0, x1, y0,
    y1) rows ``BlockSystem.rects`` gives. ``width`` and ``height`` are the
    SVG's size in pixels, a margin of MARGIN included."""
    d = ps.domain
    y0, y1 = (-1.0, 1.0) if d.kind == LINE else (d.y0, d.y1)
    steps = walk is not None and len(walk.xs)
    if steps:
        y0 = min(y0, (min(0, int(walk.values.min())) - 1) * WALK_SCALE)
    w, h = width - 2 * MARGIN, height - 2 * MARGIN

    def tx(x):
        return MARGIN + (x - d.x0) / (d.x1 - d.x0) * w

    def ty(y):
        return height - MARGIN - (y - y0) / (y1 - y0) * h

    def layers() -> Iterator[str]:
        for level, rects in blocks:
            left, right = tx(rects[:, 0]), tx(rects[:, 1])
            bottom, top = ty(rects[:, 2]), ty(rects[:, 3])
            color = BLOCK_COLORS[level % len(BLOCK_COLORS)]
            yield from _rows(RECT_ROW.format(color, 0.5 + 0.4 * level),
                             left, top, right - left, bottom - top)
        if steps:
            # a flat to each jump and the dashed riser at it, then the last flat
            xs = tx(np.concatenate([[d.x0], walk.xs, [d.x1]]))
            ys = ty(np.concatenate([[0], walk.values]) * WALK_SCALE - WALK_SCALE)
            flat = LINE_ROW.format("walk", WALK, "")
            riser = LINE_ROW.format("walk", WALK, ' stroke-dasharray="2,2"')
            x, y = xs[1:-1], ys[:-1]  # each jump's x and the level before it
            yield from _rows(flat + riser, xs[:-2], y, x, y, x, y, x, ys[1:])
            yield flat % (xs[-2], ys[-1], xs[-1], ys[-1])
        if matching is not None:
            p, q = matching.endpoint_arrays()
            yield from _rows(LINE_ROW.format("edge", EDGE, ""),
                             tx(p[:, 0]), ty(p[:, 1]), tx(q[:, 0]), ty(q[:, 1]))
        if arcs is not None:
            xy = np.stack([tx(arcs.vertices[..., 0]), ty(arcs.vertices[..., 1])], axis=-1)
            yield from _rows(ARC_ROW, *xy.reshape(len(xy), 8).T)
        for cls, color, pts in (("red-point", RED, ps.reds), ("blue-point", BLUE, ps.blues)):
            yield from _rows(POINT_ROW.format(cls, POINT_RADIUS, color),
                             tx(pts[:, 0]), ty(pts[:, 1]))

    body = layers()
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">\n')
    yield next(body, "\n")  # an empty scene keeps the blank line of its empty body
    yield from body
    yield "</svg>\n"
