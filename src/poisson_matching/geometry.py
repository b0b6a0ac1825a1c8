"""Planar geometry primitives: points, segments, rectangles, intersection tests.

All predicates are tolerance-based (EPS_GEOM): inputs are random reals, so
exact degeneracies have probability zero and near-degeneracies are reported
rather than silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

EPS_GEOM = 1e-12


class DegenerateGeometryError(ValueError):
    """Raised when collinear segments with overlapping interiors are detected."""


class Point(NamedTuple):
    x: float
    y: float = 0.0


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"degenerate segment at {self.a}")


@dataclass(frozen=True)
class Rect:
    """Half-open axis-aligned rectangle [x0, x1) x [y0, y1)."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"empty rectangle {self}")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains(self, p) -> bool:
        return self.x0 <= p[0] < self.x1 and self.y0 <= p[1] < self.y1


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.cx, self.cy, self.radius))):
            raise ValueError("disk centre and radius must be finite")
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")


Region = Union[Rect, Disk]

LINE = "line"
STRIP = "strip"
PLANE = "plane"


@dataclass(frozen=True)
class Domain:
    """Sampling domain: a window on the line, the unit strip, or the plane.

    The line stores y0 == y1 == 0; the strip fixes y to [0, 1).
    """

    kind: str
    x0: float
    x1: float
    y0: float = 0.0
    y1: float = 0.0

    def __post_init__(self):
        if self.kind not in (LINE, STRIP, PLANE):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not self.x0 < self.x1:
            raise ValueError("empty window")
        if self.kind == PLANE and not self.y0 < self.y1:
            raise ValueError("empty window")

    @staticmethod
    def line(x0: float, x1: float) -> "Domain":
        return Domain(LINE, x0, x1, 0.0, 0.0)

    @staticmethod
    def strip(x0: float, x1: float) -> "Domain":
        return Domain(STRIP, x0, x1, 0.0, 1.0)

    @staticmethod
    def plane(x0: float, x1: float, y0: float, y1: float) -> "Domain":
        return Domain(PLANE, x0, x1, y0, y1)

    @property
    def measure(self) -> float:
        """Lebesgue measure of the window (length on the line)."""
        if self.kind == LINE:
            return self.x1 - self.x0
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def window_rect(self) -> Rect:
        if self.kind == LINE:
            raise ValueError("line domain has no planar window")
        return Rect(self.x0, self.x1, self.y0, self.y1)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "x0": self.x0,
            "x1": self.x1,
            "y0": self.y0,
            "y1": self.y1,
        }

    @staticmethod
    def from_json(d: dict) -> "Domain":
        return Domain(d["kind"], d["x0"], d["x1"], d["y0"], d["y1"])


def orientation(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a); 0 within EPS_GEOM."""
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if det > EPS_GEOM:
        return 1
    if det < -EPS_GEOM:
        return -1
    return 0


def _on_segment(a, b, p) -> bool:
    """Whether collinear point p lies on the closed segment ab."""
    return (
        min(a[0], b[0]) - EPS_GEOM <= p[0] <= max(a[0], b[0]) + EPS_GEOM
        and min(a[1], b[1]) - EPS_GEOM <= p[1] <= max(a[1], b[1]) + EPS_GEOM
    )


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Closed-segment intersection test via orientation signs.

    Raises DegenerateGeometryError for collinear segments with overlapping
    interiors (impossible for parallel-free input; signals corrupt data).
    """
    a, b = s1.a, s1.b
    c, d = s2.a, s2.b
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)

    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True

    if o1 == o2 == 0 and o3 == o4 == 0:
        # Collinear: compare projections along the shared line.
        lo1, hi1 = sorted((a, b))
        lo2, hi2 = sorted((c, d))
        if lo2 < lo1:
            lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
        if lo2 > hi1:
            return False
        if abs(lo2[0] - hi1[0]) <= EPS_GEOM and abs(lo2[1] - hi1[1]) <= EPS_GEOM:
            return True  # touch at a single shared endpoint
        raise DegenerateGeometryError(
            f"collinear segments with overlapping interiors: {s1} / {s2}"
        )

    # Mixed cases: one endpoint lies on the other (closed) segment.
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


def is_parallel_free(points: Sequence) -> bool:
    """Whether no two distinct unordered point pairs span parallel vectors.

    Quartic scan over pairs of pairs; intended for desk-scale inputs.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    n = len(pts)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k, (i, j) in enumerate(pairs):
        vx = pts[j][0] - pts[i][0]
        vy = pts[j][1] - pts[i][1]
        for (u, v) in pairs[k + 1:]:
            wx = pts[v][0] - pts[u][0]
            wy = pts[v][1] - pts[u][1]
            if abs(vx * wy - vy * wx) <= EPS_GEOM:
                return False
    return True


def _segment_point_distance(a, b, p) -> float:
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    px, py = p[0], p[1]
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    t = 0.0 if denom == 0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    return math.hypot(ax + t * dx - px, ay + t * dy - py)


def edge_crosses_region(s: Segment, region: Region) -> bool:
    """Whether the closed segment intersects the closed region."""
    if isinstance(region, Disk):
        return _segment_point_distance(s.a, s.b, (region.cx, region.cy)) <= region.radius
    r: Rect = region
    if (r.x0 <= s.a.x <= r.x1 and r.y0 <= s.a.y <= r.y1) or (
        r.x0 <= s.b.x <= r.x1 and r.y0 <= s.b.y <= r.y1
    ):
        return True
    corners = [
        Point(r.x0, r.y0),
        Point(r.x1, r.y0),
        Point(r.x1, r.y1),
        Point(r.x0, r.y1),
    ]
    for i in range(4):
        edge = Segment(corners[i], corners[(i + 1) % 4])
        try:
            if segments_intersect(s, edge):
                return True
        except DegenerateGeometryError:
            return True  # segment runs along a rectangle side: still touches
    return False
