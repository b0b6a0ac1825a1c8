"""Planar geometry primitives: rectangles, disks, domains, intersection tests.

All predicates are tolerance-based (an absolute EPS_GEOM) and go through one
orientation predicate on coordinate arrays: inputs are random reals, so exact
degeneracies have probability zero and near-degeneracies are reported rather
than silently resolved.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

EPS_GEOM = 1e-12


class DegenerateGeometryError(ValueError):
    """Raised when collinear segments with overlapping interiors are detected."""


class _Frozen:
    """An immutable value: its fields are the instance dict, in the order
    ``__init__`` fills it. Equal and hashed by the fields' values, and shown
    as a constructor call, as a frozen dataclass is, with no code generated
    at import."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class Rect(_Frozen):
    """Half-open axis-aligned rectangle [x0, x1) x [y0, y1)."""

    def __init__(self, x0: float, x1: float, y0: float, y1: float):
        vars(self).update(x0=x0, x1=x1, y0=y0, y1=y1)
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"empty rectangle {self}")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains(self, p):
        """Whether the point p = (x, y) lies in the rectangle, or for (2, k)
        columns p = (xs, ys), a mask of which of the k points do."""
        return (self.x0 <= p[0]) & (p[0] < self.x1) & (self.y0 <= p[1]) & (p[1] < self.y1)


class Disk(_Frozen):
    def __init__(self, cx: float, cy: float, radius: float):
        vars(self).update(cx=cx, cy=cy, radius=radius)
        if not all(map(math.isfinite, (cx, cy, radius))):
            raise ValueError("disk centre and radius must be finite")
        if radius <= 0:
            raise ValueError("disk radius must be positive")


Region = Union[Rect, Disk]


def _two_columns(values, what: str, dtype=None) -> np.ndarray:
    """``values`` as an (n, 2) array: [] is no rows, another shape a ValueError."""
    a = np.asarray(values, dtype=dtype)
    if a.shape != (0,) and (a.ndim != 2 or a.shape[1] != 2):
        raise ValueError(f"{what} must be rows of two, got an array of shape {a.shape}")
    return a.reshape(-1, 2)


def _same_points(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether row k of the (n, 2) arrays ``p`` and ``q`` is one point, column by column."""
    return (p[:, 0] == q[:, 0]) & (p[:, 1] == q[:, 1])


LINE = "line"
STRIP = "strip"
PLANE = "plane"


class Domain(_Frozen):
    """Sampling domain: a window on the line, the unit strip, or the plane.

    The line stores y0 == y1 == 0; the strip fixes y to [0, 1). Either
    with another y-range, or any bound that is not finite, is a ValueError.
    """

    def __init__(self, kind: str, x0: float, x1: float, y0: float = 0.0, y1: float = 0.0):
        vars(self).update(kind=kind, x0=x0, x1=x1, y0=y0, y1=y1)
        if kind not in (LINE, STRIP, PLANE):
            raise ValueError(f"unknown domain kind {kind!r}")
        if not x0 < x1:
            raise ValueError("empty window")
        if kind == PLANE and not y0 < y1:
            raise ValueError("empty window")
        fixed = {LINE: (0.0, 0.0), STRIP: (0.0, 1.0)}.get(kind)
        if fixed is not None and (y0, y1) != fixed:
            raise ValueError(f"a {kind} domain has y0, y1 = {fixed}, not {y0}, {y1}")
        # a comparison, not math.isfinite, so that a huge int is no OverflowError
        if not all(abs(v) < math.inf for v in (x0, x1, y0, y1)):
            raise ValueError(f"domain bounds must be finite, got {x0}, {x1}, {y0}, {y1}")

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
        """The domain ``d`` states; a bound that is not an int or a float (a
        string, a bool), or an int too large for a float, is a ValueError."""
        for key in ("x0", "x1", "y0", "y1"):
            if type(d[key]) not in (int, float):
                raise ValueError(f"domain bound {key} must be a number, got {d[key]!r}")
            try:
                float(d[key])
            except OverflowError:
                raise ValueError(f"domain bound {key} is too large for a float") from None
        return Domain(d["kind"], d["x0"], d["x1"], d["y0"], d["y1"])


def orientation(A, B, C) -> np.ndarray:
    """Sign of the cross product (B-A) x (C-A) as int8, 0 within EPS_GEOM,
    row by row for points or (..., 2) arrays broadcast against each other."""
    A, B, C = (np.asarray(X, dtype=float) for X in (A, B, C))
    U, V = B - A, C - A
    det = U[..., 0] * V[..., 1] - U[..., 1] * V[..., 0]
    return (det > EPS_GEOM).astype(np.int8) - (det < -EPS_GEOM).astype(np.int8)


def _on_segment(A, B, C) -> np.ndarray:
    """Whether each collinear point C[k] lies on the closed segment A[k]B[k]."""
    return ((np.minimum(A, B) - EPS_GEOM <= C)
            & (C <= np.maximum(A, B) + EPS_GEOM)).all(axis=-1)


def _lex_less(U, V) -> np.ndarray:
    """Whether U[k] < V[k] as (x, y) tuples compare."""
    return (U[..., 0] < V[..., 0]) | ((U[..., 0] == V[..., 0]) & (U[..., 1] < V[..., 1]))


def _sorted_ends(A, B) -> Tuple[np.ndarray, np.ndarray]:
    """Each pair of points (A[k], B[k]) as ``sorted`` orders the tuples."""
    swap = _lex_less(B, A)[:, None]
    return np.where(swap, B, A), np.where(swap, A, B)


def _intersections(P1, Q1, P2, Q2) -> Tuple[np.ndarray, np.ndarray]:
    """Whether the closed segments P1[k]Q1[k] and P2[k]Q2[k] ((..., 2)
    arrays, broadcast) intersect, as masks (hit, degenerate); degenerate
    rows, collinear with overlapping interiors, are not hits. In priority
    order: a proper crossing; collinear segments (four zero signs), which
    overlap from the larger low end to the smaller high end; an end with a
    zero sign on the other segment. Only rows with a zero sign reach the
    last two."""
    P1, Q1, P2, Q2 = np.broadcast_arrays(*(np.asarray(X, dtype=float)
                                           for X in (P1, Q1, P2, Q2)))
    o1, o2 = orientation(P1, Q1, P2), orientation(P1, Q1, Q2)
    o3, o4 = orientation(P2, Q2, P1), orientation(P2, Q2, Q1)
    hit = (o1 * o2 == -1) & (o3 * o4 == -1)
    degenerate = np.zeros_like(hit)
    zero = (o1 == 0) | (o2 == 0) | (o3 == 0) | (o4 == 0)
    if not zero.any():
        return hit, degenerate
    o1, o2, o3, o4 = o1[zero], o2[zero], o3[zero], o4[zero]
    a, b, c, d = P1[zero], Q1[zero], P2[zero], Q2[zero]
    collinear = (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)
    (lo1, hi1), (lo2, hi2) = _sorted_ends(a, b), _sorted_ends(c, d)
    late, high = _sorted_ends(lo1, lo2)[1], _sorted_ends(hi1, hi2)[0]
    overlap = collinear & ~_lex_less(high, late)
    touch = (np.abs(late - high) <= EPS_GEOM).all(axis=1)
    on_other = (((o1 == 0) & _on_segment(a, b, c)) | ((o2 == 0) & _on_segment(a, b, d))
                | ((o3 == 0) & _on_segment(c, d, a)) | ((o4 == 0) & _on_segment(c, d, b)))
    hit[zero] = (overlap & touch) | (~collinear & on_other)
    degenerate[zero] = overlap & ~touch
    return hit, degenerate


def _segment_point_distance(A, B, p) -> np.ndarray:
    """Distance from the point p to each closed segment A[k]B[k]. The last
    step is Python's ``math.hypot``, as ``np.hypot`` rounds otherwise."""
    (ax, ay), (dx, dy) = A.T, (B - A).T
    px, py = p
    denom = dx * dx + dy * dy
    t = np.clip(np.divide((px - ax) * dx + (py - ay) * dy, denom,
                          out=np.zeros_like(denom), where=denom != 0), 0.0, 1.0)
    X, Y = ax + t * dx - px, ay + t * dy - py
    return np.fromiter(map(math.hypot, X.tolist(), Y.tolist()), float, len(X))


def _crosses_region(P, Q, region: Region) -> np.ndarray:
    """Whether each closed segment P[k]Q[k] ((k, 2) arrays) meets the closed
    region; a segment running along a rectangle's side still touches it."""
    if isinstance(region, Disk):
        return _segment_point_distance(P, Q, (region.cx, region.cy)) <= region.radius
    r: Rect = region
    (px, py), (qx, qy) = P.T, Q.T
    inside = ((r.x0 <= px) & (px <= r.x1) & (r.y0 <= py) & (py <= r.y1)
              | (r.x0 <= qx) & (qx <= r.x1) & (r.y0 <= qy) & (qy <= r.y1))
    corners = np.array([(r.x0, r.y0), (r.x1, r.y0), (r.x1, r.y1), (r.x0, r.y1)])
    hit, degenerate = _intersections(P, Q, corners[:, None],  # (4, k): sides by segments
                                     np.roll(corners, -1, axis=0)[:, None])
    return inside | (hit | degenerate).any(axis=0)

