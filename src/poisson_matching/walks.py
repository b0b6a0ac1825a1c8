"""Line and strip constructions driven by the red-minus-blue counting walk.

The walk steps up at red x-coordinates and down at blue ones, anchored to 0
at the window's left edge. Zero sets, cut-times and excursions of this walk
drive the zero-block, cut-time and excursion matchings; nesting depths and
lowest intervening points give heights for non-crossing polygonal arcs.

Finite-window truncation policy: rules defined via inf/sup over the whole
real line are restricted to the window, and points they leave unresolved
(open excursions, points outside the outermost zeros or cut-times) stay
unmatched and are flagged, never force-matched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .assignment import EPS_TIE, RECTANGULAR, SQUARE, assign_in_groups, brute_force_min
from .geometry import LINE, STRIP, Domain, Point, Segment
from .matching import ONE_COLOR, Matching, partner_edges
from .sampling import ColoredPointSet, derived_rng
from .verify import VerificationReport


class WalkInvariantError(ValueError):
    """A block or an edge interval of the counting walk lacks a property the
    construction relies on, because the points are not what the walk assumes
    (a point left of the window, say)."""


@dataclass
class StepWalk:
    """Piecewise-constant right-continuous walk: sorted jump locations with
    +/-1 signs, value 0 at the window's left edge."""

    xs: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.signs = np.asarray(self.signs, dtype=int)
        if len(self.xs) > 1 and not (np.diff(self.xs) > 0).all():
            raise ValueError("jump locations must be strictly increasing")

    @property
    def values(self) -> np.ndarray:
        """Walk value immediately after each jump."""
        return np.cumsum(self.signs)


def build_walk(ps: ColoredPointSet) -> StepWalk:
    if ps.domain.kind not in (LINE, STRIP):
        raise ValueError("walk requires a line or strip domain")
    xs = np.concatenate([ps.reds[:, 0], ps.blues[:, 0]])
    signs = np.concatenate([np.ones(ps.n_red, int), -np.ones(ps.n_blue, int)])
    order = np.argsort(xs, kind="stable")
    xs, signs = xs[order], signs[order]
    if len(xs) > 1 and (np.diff(xs) == 0).any():
        raise ValueError("duplicate x-coordinates (probability-zero event)")
    return StepWalk(xs, signs)


def _interval_cuts(ps: ColoredPointSet, boundaries
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Red and blue index cuts (rc, bc) at the boundaries: the points of block
    k, with x in (boundaries[k], boundaries[k+1]] (the between-zeros
    convention), are reds[rc[k]:rc[k+1]] and blues[bc[k]:bc[k+1]], as both
    lists are sorted by x."""
    return (np.searchsorted(ps.reds[:, 0], boundaries, side="right"),
            np.searchsorted(ps.blues[:, 0], boundaries, side="right"))


def _block_matching(ps: ColoredPointSet, kind: str, rc: np.ndarray, bc: np.ndarray) -> Matching:
    """Solve every block of the cuts (rc, bc) (``_interval_cuts``) in one
    ``assign_in_groups`` call of ``kind``: the matching of their edges, by
    red. Points outside the blocks stay unmatched."""
    partner = assign_in_groups(kind, ps.reds, rc, ps.blues, bc)
    return Matching(ps.reds, ps.blues, partner_edges(partner))


def zero_block_matching(ps: ColoredPointSet) -> Matching:
    """Split the window at the walk's return-to-zero locations and take the
    min-length perfect matching inside each balanced block. Points to the
    right of the last zero are left unmatched."""
    walk = build_walk(ps)
    vals = walk.values
    zero_xs = walk.xs[vals == 0]  # steps are +/-1, so the prior value is nonzero
    rc, bc = _interval_cuts(ps, np.concatenate([[ps.domain.x0], zero_xs]))
    if (np.diff(rc) != np.diff(bc)).any():
        raise WalkInvariantError("zero block is not balanced")
    return _block_matching(ps, SQUARE, rc, bc)


def one_color_pairing(ps: ColoredPointSet, coin: int) -> Matching:
    """Pair x-consecutive red points; the coin selects one of the two phase
    classes. Leftover endpoint reds stay unmatched (window truncation)."""
    if coin not in (0, 1):
        raise ValueError("coin must be 0 or 1")
    edges = [(i, i + 1) for i in range(coin, ps.n_red - 1, 2)]
    return Matching(ps.reds, ps.blues, edges, color_mode=ONE_COLOR)


def cut_times(walk: StepWalk) -> np.ndarray:
    """Jump locations where the walk's past supremum equals its value just
    before the jump and its future infimum equals its value at the jump."""
    vals = walk.values
    if not len(vals):
        return np.empty(0)
    prev = np.concatenate([[0], vals[:-1]])
    past_sup = np.maximum.accumulate(np.concatenate([[0], vals]))[:-1]
    future_inf = np.minimum.accumulate(vals[::-1])[::-1]
    mask = (walk.signs == 1) & (past_sup == prev) & (future_inf == vals)
    return walk.xs[mask]


def cut_time_matching(ps: ColoredPointSet) -> Matching:
    """Between consecutive cut-times each block holds strictly more reds than
    blues; match all its blues at minimum length. Points outside the outermost
    cut-times stay unmatched. Every block's excess is checked; a block with
    no blue has nothing to solve."""
    walk = build_walk(ps)
    cuts = cut_times(walk)
    rc, bc = _interval_cuts(ps, cuts)
    if (np.diff(rc) <= np.diff(bc)).any():
        raise WalkInvariantError("cut block must have a strict red excess")
    return _block_matching(ps, RECTANGULAR, rc, bc)


def excursion_matching(ps: ColoredPointSet) -> Matching:
    """Match each red to the blue ending its upward excursion: the first
    point to the right where the walk returns to its pre-red level. Edge
    x-intervals are pairwise disjoint or nested (bracket matching)."""
    walk = build_walk(ps)
    red_at = {float(x): i for i, x in enumerate(ps.reds[:, 0])}
    blue_at = {float(x): j for j, x in enumerate(ps.blues[:, 0])}
    stack: List[int] = []
    edges: List[Tuple[int, int]] = []
    for x, s in zip(walk.xs, walk.signs):
        if s == 1:
            stack.append(red_at[float(x)])
        elif stack:
            edges.append((stack.pop(), blue_at[float(x)]))
    # Blues met with an empty stack close excursions opened left of the
    # window and reds left on the stack open ones it does not close: both
    # stay unmatched.
    return Matching(ps.reds, ps.blues, sorted(edges))


@dataclass
class ArcSpec:
    """Four-vertex polyline joining a matched pair below all intervening
    arcs: down from the red to height H, across, and up to the blue, where
    H = (lowest intervening point height) / (maximum nesting depth)."""

    edge: Tuple[int, int]
    height: float
    lowest: float
    depth: int
    vertices: List[Tuple[float, float]]

    def segments(self) -> List[Segment]:
        segs = []
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a != b:
                segs.append(Segment(Point(*a), Point(*b)))
        return segs

    def to_json(self) -> dict:
        return {
            "edge": [int(self.edge[0]), int(self.edge[1])],
            "height": self.height,
            "lowest": self.lowest,
            "depth": self.depth,
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
        }


def _range_reduce(values: np.ndarray, op, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``op`` (np.minimum or np.maximum) over values[lo[e]:hi[e]] for every
    e, where every hi > lo. Sparse table (Bender & Farach-Colton 2000): row k
    holds op over each run of 2**k values, and a range is op of the two runs
    of its largest power-of-two length that start at lo and end at hi.
    O(n log n) to build, O(1) per range; min and max are exact."""
    rows = [values]
    while 2 ** len(rows) <= len(values):
        w = 2 ** (len(rows) - 1)
        prev = rows[-1]
        # run starts past n - 2w are never read: pad with the row below
        rows.append(np.concatenate([op(prev[:-w], prev[w:]), prev[-w:]]))
    table = np.stack(rows)
    k = np.frexp(hi - lo)[1] - 1
    return op(table[k, lo], table[k, hi - 2 ** k])


def polygonal_arcs(m: Matching, ps: ColoredPointSet) -> List[ArcSpec]:
    """Arcs for an excursion matching on the strip; pairwise disjoint.

    The points with x in [red x, blue x] are a run of the walk order, so the
    lowest of them and the walk's highest value over them are range queries
    (``_range_reduce``); the depth counts from the walk's value just left of
    the red."""
    walk = build_walk(ps)
    if not m.edges:
        return []
    vals = walk.values
    allpts = np.concatenate([ps.reds, ps.blues])
    ys = allpts[np.argsort(allpts[:, 0], kind="stable"), 1]  # in walk order
    p, q = m.endpoint_arrays()
    x_lo, x_hi = p[:, 0], q[:, 0]
    backwards = np.flatnonzero(x_lo > x_hi)
    n_ok = int(backwards[0]) if len(backwards) else len(p)
    k_lo = np.searchsorted(walk.xs, x_lo[:n_ok], side="left")
    k_hi = np.searchsorted(walk.xs, x_hi[:n_ok], side="right")
    lowest = _range_reduce(ys, np.minimum, k_lo, k_hi)
    base_level = np.where(k_lo > 0, vals[k_lo - 1], 0)
    depth = _range_reduce(vals, np.maximum, k_lo, k_hi) - base_level
    if (depth < 1).any():
        raise WalkInvariantError("edge interval must contain the red's up-step")
    if n_ok < len(p):
        raise ValueError("excursion edges run left to right")
    arcs = []
    for (i, j), (rx, ry), (bx, by), low, d in zip(m.edges, p.tolist(), q.tolist(),
                                                  lowest.tolist(), depth.tolist()):
        h = low / d
        arcs.append(ArcSpec(edge=(i, j), height=h, lowest=low, depth=d,
                            vertices=[(rx, ry), (rx, h), (bx, h), (bx, by)]))
    return arcs


@dataclass
class CrossingProfile:
    """Piecewise-constant count of edges covering each location on the line."""

    breakpoints: np.ndarray
    values: np.ndarray  # len(breakpoints) - 1 interval values

    def integral(self) -> float:
        widths = np.diff(self.breakpoints)
        return float((widths * self.values).sum())


def crossing_profile(m: Matching) -> CrossingProfile:
    """h(t) = number of matched intervals covering t; its integral equals the
    total edge length of a line matching."""
    p, q = m.endpoint_arrays()
    if not len(p):
        return CrossingProfile(np.asarray([0.0, 0.0]), np.asarray([], dtype=int))
    lo, hi = np.minimum(p[:, 0], q[:, 0]), np.maximum(p[:, 0], q[:, 0])
    breaks = np.unique(np.concatenate([lo, hi]))
    mids = (breaks[:-1] + breaks[1:]) / 2
    # edges with lo <= mid, less those with hi < mid (each has lo <= hi)
    values = (np.searchsorted(np.sort(lo), mids, side="right")
              - np.searchsorted(np.sort(hi), mids, side="left"))
    return CrossingProfile(breaks, values.astype(int))


def minimality_certificate_d1(m: Matching, ps: ColoredPointSet, k: int,
                              trials: int, seed: int = 0) -> VerificationReport:
    """Check ``trials`` random k-subsets of the edges (all of them where
    there are fewer) against the brute-force rematch minimum; a violating
    subset witnesses non-minimality. The report's ``trials`` is the number
    of subsets checked, 0 for a matching without edges."""
    if not 1 <= k <= 8:
        raise ValueError("need 1 <= k <= 8 (factorial oracle)")
    rng = derived_rng(seed, 91)
    violations = []
    p, q = m.endpoint_arrays()
    lengths = [math.hypot(dx, dy) for dx, dy in (p - q).tolist()]  # np.hypot rounds otherwise
    size = min(k, len(p))
    checked = max(trials, 0) if size else 0
    for t in range(checked):
        idx = rng.choice(len(p), size=size, replace=False)
        own = sum(lengths[a] for a in idx)
        best = brute_force_min(p[idx], q[idx]).total_length
        if own > best + EPS_TIE:
            violations.append({
                "trial": t,
                "edges": sorted(int(a) for a in idx),
                "cost": own,
                "minimum": best,
            })
    return VerificationReport(
        property_name="minimality_d1",
        trials=checked,
        violations=violations,
    )


def laminate_strips(results: Sequence[Tuple[ColoredPointSet, Matching, Optional[List[ArcSpec]]]],
                    shift: float) -> Tuple[ColoredPointSet, Matching, List[ArcSpec]]:
    """Stack independent strip constructions into unit-height plane bands and
    apply a global vertical shift. Bands are disjoint, so per-band planarity
    and arc-disjointness carry over."""
    if not 0.0 <= shift < 1.0:
        raise ValueError("shift must lie in [0, 1)")
    if not results:
        raise ValueError("need at least one strip result")
    x0 = results[0][0].domain.x0
    x1 = results[0][0].domain.x1
    reds, blues, edges, arcs = [], [], [], []
    red_off = blue_off = 0
    for band, (ps, m, band_arcs) in enumerate(results):
        if ps.domain.kind != STRIP or (ps.domain.x0, ps.domain.x1) != (x0, x1):
            raise ValueError("all bands must share the same strip window")
        dy = band + shift
        reds.append(ps.reds + [0.0, dy])
        blues.append(ps.blues + [0.0, dy])
        edges.extend((i + red_off, j + blue_off) for i, j in m.edges)
        for arc in band_arcs or []:
            arcs.append(ArcSpec(
                edge=(arc.edge[0] + red_off, arc.edge[1] + blue_off),
                height=arc.height + dy, lowest=arc.lowest + dy, depth=arc.depth,
                vertices=[(x, y + dy) for x, y in arc.vertices],
            ))
        red_off += ps.n_red
        blue_off += ps.n_blue
    red_arr = np.concatenate(reds) if reds else np.empty((0, 2))
    blue_arr = np.concatenate(blues) if blues else np.empty((0, 2))
    # Re-sort into the canonical (x, y) order and remap indices.
    r_order = np.lexsort((red_arr[:, 1], red_arr[:, 0]))
    b_order = np.lexsort((blue_arr[:, 1], blue_arr[:, 0]))
    r_map = {int(old): new for new, old in enumerate(r_order)}
    b_map = {int(old): new for new, old in enumerate(b_order)}
    domain = Domain.plane(x0, x1, shift, len(results) + shift)
    combined = ColoredPointSet(domain, red_arr[r_order], blue_arr[b_order],
                               seed=results[0][0].seed)
    matching = Matching(combined.reds, combined.blues,
                        sorted((r_map[i], b_map[j]) for i, j in edges))
    for arc in arcs:
        arc.edge = (r_map[arc.edge[0]], b_map[arc.edge[1]])
    return combined, matching, arcs
