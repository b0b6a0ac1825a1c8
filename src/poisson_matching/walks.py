"""Line and strip constructions driven by the red-minus-blue counting walk.

The walk steps up at red x-coordinates and down at blue ones, anchored to 0
at the window's left edge. Zero sets, cut-times and excursions of this walk
drive the zero-block, cut-time and excursion matchings; nesting depths and
lowest intervening points give heights for non-crossing polygonal arcs.
The excursion matching is a bracket pairing found by sorting the walk's
steps by level, and the arcs come as one ``ArcTable`` (``arcs.py``), built
and laminated column by column with no per-arc Python. Both read each
step's point by one rule: the m-th up-step is reds[m], the m-th down-step
blues[m]. ``polygonal_arcs`` takes strips only. The reports that check
these matchings, the minimality certificate among them, are in ``verify``.

Finite-window truncation policy: rules defined via inf/sup over the whole
real line are restricted to the window, and points they leave unresolved
(open excursions, points outside the outermost zeros or cut-times) stay
unmatched and are flagged, never force-matched.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .assignment import _inverse, _stable_order, assign_in_groups
from .arcs import ArcTable
from .geometry import LINE, STRIP, Domain
from .matching import ONE_COLOR, Matching, partner_edges
from .sampling import ColoredPointSet, canonical_order


class WalkInvariantError(ValueError):
    """A block or an edge interval of the counting walk lacks a property the
    construction relies on, because the points are not what the walk assumes
    (a point left of the window, say)."""


class StepWalk:
    """Piecewise-constant right-continuous walk: sorted jump locations with
    +/-1 signs, value 0 at the window's left edge."""

    def __init__(self, xs: np.ndarray, signs: np.ndarray):
        self.xs = np.asarray(xs, dtype=float)
        self.signs = np.asarray(signs, dtype=int)
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
    return StepWalk(xs[order], signs[order])  # rejects a repeated x


def _interval_cuts(ps: ColoredPointSet, boundaries
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Red and blue index cuts (rc, bc) at the boundaries: the points of block
    k, with x in (boundaries[k], boundaries[k+1]] (the between-zeros
    convention), are reds[rc[k]:rc[k+1]] and blues[bc[k]:bc[k+1]], as both
    lists are sorted by x."""
    return (np.searchsorted(ps.reds[:, 0], boundaries, side="right"),
            np.searchsorted(ps.blues[:, 0], boundaries, side="right"))


def _block_matching(ps: ColoredPointSet, rc: np.ndarray, bc: np.ndarray) -> Matching:
    """Solve every block of the cuts (rc, bc) (``_interval_cuts``) in one
    ``assign_in_groups`` call: the matching of their edges, by red. Points
    outside the blocks stay unmatched."""
    partner = assign_in_groups(ps.reds, rc, ps.blues, bc)
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
    return _block_matching(ps, rc, bc)


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
    return _block_matching(ps, rc, bc)


def excursion_matching(ps: ColoredPointSet) -> Matching:
    """Match each red to the blue ending its upward excursion: the first
    point to the right where the walk returns to its pre-red level. Edge
    x-intervals are pairwise disjoint or nested (bracket matching).

    The pairing is a sort by level: the up-step to level h is matched with
    the next down-step from h, and between two up-steps to h the walk steps
    down from h, so each level's steps alternate. A down-step with no
    up-step before it at its level closes an excursion opened left of the
    window, and an up-step with no down-step after it opens one the window
    does not close: both stay unmatched."""
    walk = build_walk(ps)
    up = walk.signs == 1
    level = walk.values + ~up  # an up-step's level after it, a down-step's before
    k = _stable_order(level, int(np.abs(level).max(initial=0)) + 1)  # by level, then by x
    pair = up[k[:-1]] & ~up[k[1:]] & (level[k[:-1]] == level[k[1:]])
    # the m-th up-step of the walk is reds[m], the m-th down-step blues[m]
    red, blue = np.cumsum(up) - 1, np.cumsum(~up) - 1
    opens, closes = k[:-1][pair], k[1:][pair]
    by_red = np.argsort(opens)
    return Matching(ps.reds, ps.blues, np.column_stack([red[opens[by_red]],
                                                        blue[closes[by_red]]]))


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


def polygonal_arcs(m: Matching, ps: ColoredPointSet) -> ArcTable:
    """Arcs for an excursion matching on the strip; pairwise disjoint. One
    ``ArcTable`` row per edge, in edge order, built column by column.

    The points with x in [red x, blue x] are a run of the walk order, so the
    lowest of them and the walk's highest value over them are range queries
    (``_range_reduce``); the depth counts from the walk's value just left of
    the red. Each step's point is read by ``excursion_matching``'s rule."""
    ps.check_matching(m)
    if ps.domain.kind != STRIP:
        raise ValueError(f"polygonal arcs need a strip domain, not a {ps.domain.kind}")
    walk = build_walk(ps)
    vals = walk.values
    up = walk.signs == 1
    ys = np.empty(len(up))  # each step's point's y, in walk order
    ys[up], ys[~up] = ps.reds[:, 1], ps.blues[:, 1]
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
    height = lowest / depth
    # down from the red to the height, across, and up to the blue
    vertices = np.stack([p, p, q, q], axis=1)
    vertices[:, 1:3, 1] = height[:, None]
    return ArcTable(m._edge_array(), height, lowest, depth, vertices)


class CrossingProfile:
    """Piecewise-constant count of edges covering each location on the line."""

    def __init__(self, breakpoints: np.ndarray, values: np.ndarray):
        self.breakpoints = breakpoints
        self.values = values  # len(breakpoints) - 1 interval values

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
    ends = np.sort(np.concatenate([lo, hi]))  # np.unique's, without importing numpy.ma
    breaks = ends[np.concatenate([[True], ends[1:] != ends[:-1]])]
    # edges with lo <= each gap's left break, less those with hi <= it; not at
    # the gap's midpoint, which rounds onto a break between adjacent floats
    values = (np.searchsorted(np.sort(lo), breaks[:-1], side="right")
              - np.searchsorted(np.sort(hi), breaks[:-1], side="right"))
    return CrossingProfile(breaks, values.astype(int))


def laminate_strips(results: Sequence[Tuple[ColoredPointSet, Matching, ArcTable]],
                    shift: float) -> Tuple[ColoredPointSet, Matching, ArcTable]:
    """Stack independent strip constructions into unit-height plane bands and
    apply a global vertical shift. Bands are disjoint, so per-band planarity
    and arc-disjointness carry over.

    Each band brings its own ``ArcTable``, lifted column by column; every
    edge index, of the matching and of the arcs, is offset by the band and
    then mapped to the combined point lists' canonical order by the inverse
    of their sorting permutation. The arcs keep the bands' order, so they
    are not in the combined matching's edge order."""
    if not 0.0 <= shift < 1.0:
        raise ValueError("shift must lie in [0, 1)")
    if not results:
        raise ValueError("need at least one strip result")
    x0 = results[0][0].domain.x0
    x1 = results[0][0].domain.x1
    reds, blues, edges, arcs = [], [], [], []
    offset = np.zeros(2, dtype=np.int64)  # reds and blues of the bands so far
    for band, (ps, m, t) in enumerate(results):
        ps.check_matching(m)
        if ps.domain.kind != STRIP or (ps.domain.x0, ps.domain.x1) != (x0, x1):
            raise ValueError("all bands must share the same strip window")
        dy = band + shift
        reds.append(ps.reds + [0.0, dy])
        blues.append(ps.blues + [0.0, dy])
        edges.append(m._edge_array() + offset)
        vertices = t.vertices.copy()
        vertices[..., 1] += dy
        arcs.append((t.edges + offset, t.height + dy, t.lowest + dy, t.depth, vertices))
        offset += (ps.n_red, ps.n_blue)
    red_arr = np.concatenate(reds)
    blue_arr = np.concatenate(blues)
    # Re-sort into the canonical (x, y) order and remap indices.
    r_order = canonical_order(red_arr, kind="stable")  # the bands' sorted lists, merged
    b_order = canonical_order(blue_arr, kind="stable")
    r_new, b_new = _inverse(r_order), _inverse(b_order)
    domain = Domain.plane(x0, x1, shift, len(results) + shift)
    combined = ColoredPointSet(domain, red_arr[r_order], blue_arr[b_order],
                               seed=results[0][0].seed)

    def remap(e):
        return np.column_stack([r_new[e[:, 0]], b_new[e[:, 1]]])

    e = remap(np.concatenate(edges))
    matching = Matching(combined.reds, combined.blues, e[np.lexsort((e[:, 1], e[:, 0]))])
    arc_edges, height, lowest, depth, vertices = map(np.concatenate, zip(*arcs))
    return combined, matching, ArcTable(remap(arc_edges), height, lowest, depth, vertices)
