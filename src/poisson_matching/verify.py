"""Property verifiers and quantitative estimators.

Verification reports carry explicit violation witnesses; statistics reports
(average edge length, crossing counts) are diagnostics and never assert
infinite-volume claims. The arc verifiers flatten an ``ArcTable``'s vertex
column into segments (``_arc_arrays``) and share one segment-hit list per
table (``_arc_hits``). Edge lengths are totalled in order, never by the
builtin ``sum`` (``matching._in_order``).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .arcs import ArcTable
from .assignment import (EPS_TIE, RECTANGULAR, ROW_BLOCK, SPARE_ENTRIES, _pair_distances,
                         _runs, _spans, _stable_order, assign_in_groups)
from .geometry import (EPS_GEOM, DegenerateGeometryError, Rect, Region, _crosses_region,
                       _intersections, _same_points)
from .matching import FORMAT_VERSION, TWO_COLOR, Matching, _in_order, _lengths
from .sampling import ColoredPointSet
from .walks import crossing_profile


class VerificationReport:
    def __init__(self, property_name: str, trials: int, violations: Optional[List] = None):
        self.property_name = property_name
        self.trials = trials
        self.violations = [] if violations is None else violations

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "property": self.property_name,
            "trials": self.trials,
            "pass": self.passed,
            "violations": self.violations,
        }


class StatsReport:
    def __init__(self, name: str, payload: dict):
        self.name = name
        self.payload = payload

    def to_json(self) -> dict:
        return {"format": FORMAT_VERSION, "name": self.name, **self.payload}


def _arc_arrays(arcs: ArcTable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every polyline piece of the arcs as endpoint arrays (P, Q), arc-major
    and without the zero-length pieces, as ``ArcSpec.segments`` lists them,
    and the index of each piece's arc. The one flattening of arcs into
    segments."""
    V = arcs.vertices
    P, Q = V[:, :3].reshape(-1, 2), V[:, 1:].reshape(-1, 2)
    owner = np.repeat(np.arange(len(V)), 3)
    keep = ~_same_points(P, Q)
    return P[keep], Q[keep], owner[keep]


def _arc_hits(arcs: ArcTable) -> Tuple[int, List[Tuple[int, int]]]:
    """The number of polyline pieces of the arcs (``_arc_arrays``), and for
    each intersecting pair of pieces of different arcs, in the order of
    ``_pairwise_hits``, the indices of their two arcs. Found once per table
    and kept on it, as its columns are read-only."""
    if arcs._hits is None:
        P, Q, owner = _arc_arrays(arcs)
        raw = _pairwise_hits(P, Q, skip_same_group=owner)
        owner = owner.tolist()  # plain ints for the JSON witnesses
        arcs._hits = (len(P), [(owner[i], owner[j]) for i, j in raw])
    return arcs._hits


def _drawn_edges(m: Matching, arcs: ArcTable) -> np.ndarray:
    """The position in ``m``'s edge list of the edge each arc draws, found
    through the edge's red, which no two edges share in either color mode.
    The arcs must draw ``m``: one arc per edge, from the edge's red to its
    partner. Anything else is a ValueError."""
    e = m._edge_array()
    if len(arcs) != len(e):
        raise ValueError(f"{len(arcs)} arcs cannot draw a matching of {len(e)} edges")
    at = np.full(len(m.reds) + 1, len(e))  # len(e): no edge, as for any red beyond the last
    at[e[:, 0]] = np.arange(len(e))
    red, partner = arcs.edges.T
    k = at[np.minimum(red, len(m.reds))]
    if ((k == len(e)).any() or (e[k, 1] != partner).any()
            or np.bincount(k).max(initial=0) > 1):
        raise ValueError("every arc must draw an edge of the matching, and no two the same")
    ends = np.stack([m.reds.take(red, axis=0), m._partners.take(partner, axis=0)], axis=1)
    if (arcs.vertices[:, ::3] != ends).any():
        raise ValueError("every arc must run from its edge's red to its partner")
    return k


PAIR_CHUNK = 1 << 16  # box pairs the sweep expands at once (one segment's at least)


def _box_pairs(P: np.ndarray, Q: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Index arrays (a, b) of the segment pairs whose bounding boxes, padded
    by EPS_GEOM (the slack of ``_on_segment``), overlap; each pair once.

    Sort and sweep: with the boxes sorted by left edge, sorted segment p
    overlaps in x exactly the later q whose left edge is at most its right
    edge, a run found with one ``searchsorted``. Runs are expanded at most
    PAIR_CHUNK pairs at a time (``_runs``), kept where the y-ranges overlap.
    """
    lo = np.minimum(P, Q) - EPS_GEOM
    hi = np.maximum(P, Q) + EPS_GEOM
    order = np.argsort(lo[:, 0], kind="stable")
    left = lo[order, 0]
    count = np.searchsorted(left, hi[order, 0], side="right") - np.arange(1, len(order) + 1)
    for p0, p1 in _runs(count, PAIR_CHUNK):
        run = count[p0:p1]
        a = order[np.repeat(np.arange(p0, p1), run)]
        b = order[_spans(np.arange(p0 + 1, p1 + 1), run)[0]]
        keep = (lo[a, 1] <= hi[b, 1]) & (lo[b, 1] <= hi[a, 1])
        yield a[keep], b[keep]


def _pairwise_hits(P: np.ndarray, Q: np.ndarray, skip_same_group=None) -> List[Tuple[int, int]]:
    """Closed-segment intersections among the segments P[k] -> Q[k] ((n, 2)
    endpoint arrays), as (i, j) with i < j in lexicographic order; pairs with
    equal integer owners ``skip_same_group`` are exempt.

    Candidates are the pairs whose padded bounding boxes overlap
    (``_box_pairs``), decided by one ``_intersections`` call per sweep chunk.
    Pairs with disjoint padded boxes can neither cross, touch within
    EPS_GEOM nor overlap, so the hits, and the DegenerateGeometryError of
    the first degenerate pair in (i, j) order, are those of a dense all-pairs
    scan whenever the rounding error of the orientation determinants stays
    below EPS_GEOM. Memory is linear in the segments plus one chunk.
    """
    if _same_points(P, Q).any():
        raise ValueError("zero-length segment")
    group = None if skip_same_group is None else np.asarray(skip_same_group)
    kept = [np.empty((3, 0), dtype=np.intp)]
    for a, b in _box_pairs(P, Q):
        i, j = np.minimum(a, b), np.maximum(a, b)
        if group is not None:
            apart = group[i] != group[j]
            i, j = i[apart], j[apart]
        hit, degenerate = _intersections(P[i], Q[i], P[j], Q[j])
        found = hit | degenerate
        kept.append(np.stack([i[found], j[found], degenerate[found]]))
    found = np.concatenate(kept, axis=1)
    ii, jj, bad = found[:, np.lexsort(found[1::-1])]  # by i, then j
    if bad.any():
        k = int(np.argmax(bad))
        # the four endpoints as plain numbers
        a, b, c, d = (tuple(X[s].tolist()) for s in (ii[k], jj[k]) for X in (P, Q))
        raise DegenerateGeometryError(
            f"collinear segments with overlapping interiors: {a}-{b} / {c}-{d}")
    return list(zip(ii.tolist(), jj.tolist()))


def check_planarity(m: Matching, arcs: Optional[ArcTable] = None) -> VerificationReport:
    """Edge intersection check; witnesses are intersecting pairs of positions
    in ``m``'s edge list, in order, and ``trials`` counts all pairs.

    The chords' endpoint arrays go to ``_pairwise_hits``, which tests only
    the pairs a bounding-box sweep proposes. Given ``arcs``, which must draw
    ``m`` (``_drawn_edges``), the edges are taken with their polygonal-arc
    geometry (the planar drawing of nested strip matchings) instead: the
    witnesses are the edges of the arc pairs that ``check_arc_disjointness``
    reports (``_arc_hits``, shared by both for one table), each once.
    """
    n = len(m._edge_array())
    if arcs is None:
        hits = _pairwise_hits(*m.endpoint_arrays())
    else:
        at = _drawn_edges(m, arcs).tolist()
        hits = sorted({tuple(sorted((at[i], at[j]))) for i, j in _arc_hits(arcs)[1]})
    return VerificationReport(
        property_name="planarity",
        trials=n * (n - 1) // 2,
        violations=[{"edges": [i, j]} for i, j in hits],
    )


def check_arc_disjointness(arcs: ArcTable) -> VerificationReport:
    """Intersection check over all polyline segments of all arcs, as
    ``_arc_arrays`` flattens them; segments of the same arc are exempt (they
    share vertices). Only the segment pairs proposed by a bounding-box sweep
    are tested (``_pairwise_hits``, once per table: ``_arc_hits``);
    ``trials`` counts all segment pairs."""
    n_segments, hits = _arc_hits(arcs)
    return VerificationReport(
        property_name="arc_disjointness",
        trials=n_segments * (n_segments - 1) // 2,
        violations=[{"arcs": [i, j]} for i, j in hits],
    )


def minimality_certificate_d1(m: Matching) -> VerificationReport:
    """Exact test that a line matching is min-cost for its endpoints, each
    edge read as first end (red) against second end (partner). It costs the
    integral of its coverage (``walks.crossing_profile``), at least |S|
    everywhere, S being the first ends minus the second ends to the left,
    whose integral is the least cost (the 1-D transport identity, Vallender
    1973). So it is min-cost exactly when the two are equal on every gap
    between consecutive distinct endpoint x's, counted at the gap's left end
    in O(n log n); ``trials`` counts the gaps. The witness is the leftmost
    gap where the coverage exceeds |S| (its discrepancy), and the positions
    of the edges spanning it."""
    prof = crossing_profile(m)
    left = prof.breakpoints[:len(prof.values)]  # each gap's left end; none without edges
    a, b = (e[:, 0] for e in m.endpoint_arrays())
    s = np.abs(np.searchsorted(np.sort(a), left, side="right")
               - np.searchsorted(np.sort(b), left, side="right"))
    violations = []
    for k in np.flatnonzero(prof.values != s)[:1].tolist():
        x0, x1 = prof.breakpoints[k:k + 2].tolist()
        over = (np.minimum(a, b) <= x0) & (np.maximum(a, b) >= x1)
        violations.append({"gap": [x0, x1], "coverage": int(prof.values[k]),
                           "discrepancy": int(s[k]), "edges": np.flatnonzero(over).tolist()})
    return VerificationReport("minimality_d1", len(left), violations)


def minimality_certificate(m: Matching) -> VerificationReport:
    """Exact test, on any domain, that a matching is min-cost for its
    endpoints (first ends p against second ends q): it is when no
    alternating cycle shortens it (Klein 1967). Arc i -> k, red i taking
    edge k's partner, weighs c(p_i, q_k) - c(p_i, q_i) + EPS_TIE / n, so ties
    and rounding close no cycle and a pass means no rematch gains more than
    EPS_TIE. Bellman-Ford relaxes ROW_BLOCK rows of arcs at a time, with
    ``_pair_distances`` (no scipy), and looks for a cycle of predecessors
    after each block that moved a label. The blocks' distance rows are kept
    for the later rounds while they hold at most SPARE_ENTRIES floats in all
    (the whole matrix up to n = 2048); the rest are recomputed each round,
    so a large n makes no (n, n) array. ``trials`` counts arcs."""
    p, q = m.endpoint_arrays()
    n, own = len(p), _pair_distances(p, q)
    label, pred, moved = np.zeros(n), np.full(n, n), True  # n: no predecessor
    kept, entries = {}, 0  # block start -> its distance rows
    while moved:
        moved = False
        for r0 in range(0, n, ROW_BLOCK):
            rows = kept.get(r0)
            if rows is None:
                rows = _pair_distances(p[r0:r0 + ROW_BLOCK, None], q)
                if entries + rows.size <= SPARE_ENTRIES:
                    kept[r0], entries = rows, entries + rows.size
            reach = rows + (label - own + EPS_TIE / n)[r0:r0 + ROW_BLOCK, None]
            best = reach.argmin(axis=0)
            least = reach[best, np.arange(n)]
            k = np.flatnonzero(least < label)
            if len(k):
                moved, label[k], pred[k] = True, least[k], best[k] + r0
                if violations := _cycle(pred, p, q, own):
                    return VerificationReport("minimality_cycles", n * (n - 1), violations)
    return VerificationReport("minimality_cycles", n * (n - 1))


def _cycle(pred, p, q, own) -> List[dict]:
    """The witness, edges and change, of a cycle that ``pred`` (len(pred): none)
    closes: its edges from the least, each red taking the next edge's partner."""
    back = np.append(pred, len(pred))
    for _ in range(len(pred).bit_length()):  # 2**b > n steps back: a cycle or the root
        back = back[back]
    e = [int(back.min())]  # the least node on a cycle, if any
    if e[0] == len(pred):
        return []
    while (x := int(pred[e[-1]])) != e[0]:
        e.append(x)
    e = np.array(e[:1] + e[:0:-1])
    change = float((_pair_distances(p[e], q[np.roll(e, -1)]) - own[e]).sum())
    return [{"edges": e.tolist(), "change": change}]


def interior_window(ps: ColoredPointSet, fraction: float = 0.5) -> Rect:
    """Centered subwindow at the given linear fraction of the full window."""
    d = ps.domain
    cx = (d.x0 + d.x1) / 2
    hw = (d.x1 - d.x0) * fraction / 2
    if d.kind == "line":
        return Rect(cx - hw, cx + hw, -0.5, 0.5)
    cy = (d.y0 + d.y1) / 2
    hh = (d.y1 - d.y0) * fraction / 2
    return Rect(cx - hw, cx + hw, cy - hh, cy + hh)


def estimate_eta(pairs: Sequence[Tuple[ColoredPointSet, Matching]],
                 fraction: float = 0.5) -> StatsReport:
    """Average total edge length per unit area from red points in an interior
    subwindow (boundary truncation suppressed by the interior restriction).

    ``eta_per_matched_red`` is the ratio estimator total length / matched
    interior reds pooled over all windows; at red intensity lambda it
    estimates eta / lambda with much lower variance than the area-normalized
    ``eta_hat`` because Poisson count fluctuations cancel.
    """
    per_window = []
    skipped = 0
    pooled_total = 0.0
    pooled_matched = 0
    for ps, m in pairs:
        s = interior_window(ps, fraction)
        p, q = m.endpoint_arrays()
        inside = s.contains(p.T)
        # math.hypot: np.hypot rounds otherwise
        total = _in_order(math.hypot(*d) for d in (p - q)[inside].tolist())
        pooled_total += total
        pooled_matched += int(inside.sum())
        skipped += int(s.contains(ps.reds[m.unmatched_reds].T).sum())
        per_window.append(total / s.area)
    return StatsReport("eta", {
        "eta_hat": float(np.mean(per_window)) if per_window else 0.0,
        "eta_per_matched_red": pooled_total / max(pooled_matched, 1),
        "per_window": per_window,
        "unmatched_reds_in_interior": skipped,
        "fraction": fraction,
    })


def crossing_stats(m: Matching, regions: Sequence[Region]) -> StatsReport:
    """Edges crossing each query region, with a small tail summary."""
    p, q = m.endpoint_arrays()
    if _same_points(p, q).any():
        raise ValueError("zero-length segment")
    counts = [int(_crosses_region(p, q, region).sum()) for region in regions]
    arr = np.asarray(counts, dtype=float) if counts else np.zeros(0)
    return StatsReport("crossings", {
        "counts": counts,
        "mean": float(arr.mean()) if len(arr) else 0.0,
        "max": int(arr.max()) if len(arr) else 0,
        "tail_ge_10": int((arr >= 10).sum()),
    })


class BoxRematchResult:
    """The lengths before and after a box rematch, the number of cells
    rematched (those holding an edge), and the rematched matching."""

    def __init__(self, length_before: float, length_after: float, cells_rematched: int,
                 matching: Matching):
        self.length_before = length_before
        self.length_after = length_after
        self.cells_rematched = cells_rematched
        self.matching = matching

    @property
    def improvement(self) -> float:
        return self.length_before - self.length_after

    def report(self) -> StatsReport:
        return StatsReport("box_rematch", {
            "length_before": self.length_before,
            "length_after": self.length_after,
            "improvement": self.improvement,
            "cells_rematched": self.cells_rematched,
        })


def _cell_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.lexsort((y, x))`` for cells (x, y) of whole floats: one sort of the
    cell numbers x * rows + y, counted from the lowest x and y, which are
    exact below 2**53 cells; past that, the lexsort. A window under 2**53
    squares a side (``box_rematch_experiment``'s bound) has finite cells."""
    dx, dy = x - x.min(initial=np.inf), y - y.min(initial=np.inf)
    rows = dy.max(initial=0.0) + 1
    cells = (dx.max(initial=0.0) + 1) * rows
    if not cells < 2 ** 53:
        return np.lexsort((y, x))
    return _stable_order((dx * rows + dy).astype(np.int64), int(cells))


def box_rematch_experiment(ps: ColoredPointSet, m: Matching, t: float) -> BoxRematchResult:
    """Partition the window into side-t squares; inside each square, replace
    the edges lying entirely within it by the min-length matching of their
    endpoints. Edges crossing square boundaries are untouched. The matching
    must be two-color, of the points of ``ps``: a cell rematches reds with
    blues.

    The edges are read once, from the matching's edge array. The cells are
    ordered by one sort (``_cell_order``) and solved in one
    ``assign_in_groups`` call, each as ``min_cost_perfect`` solves it. Both
    totals are summed from the endpoint arrays as ``Matching.total_length``
    sums them (``_lengths``, the rematched edges' replaced for the total
    after), without building a matching per cell or reading the edges
    again. The matching returned is built from the rewritten edge array.

    A side that leaves the window 2**53 squares or more across, where cell
    numbers are no longer exact floats or overflow to inf, is a ValueError."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError("square side must be positive and finite")
    if m.color_mode != TWO_COLOR:
        raise ValueError("box rematch needs a two-color matching")
    d = ps.domain
    if not max(d.x1 - d.x0, d.y1 - d.y0) / t < 2 ** 53:
        raise ValueError(f"square side {t!r} leaves the window 2**53 squares or more across")
    e = m._edge_array().copy()  # rewritten below
    r, b = ps.reds.take(e[:, 0], axis=0), ps.blues.take(e[:, 1], axis=0)
    # each end's cell, column by column: the same floats as Python's //
    x, y = (r[:, 0] - d.x0) // t, (r[:, 1] - d.y0) // t
    ks = np.flatnonzero((x == (b[:, 0] - d.x0) // t) & (y == (b[:, 1] - d.y0) // t))
    ks = ks[_cell_order(x[ks], y[ks])]  # by cell, then by edge
    x, y = x[ks], y[ks]
    first = np.ones(len(ks), dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    bounds = np.append(np.flatnonzero(first), len(ks))
    R, B = r.take(ks, axis=0), b.take(ks, axis=0)
    # each rematched edge keeps its red and takes the blue at B[new]
    new = assign_in_groups(RECTANGULAR, R, bounds, B, bounds)
    lengths = _lengths(r, b)
    length_before = float(lengths.sum())
    lengths[ks] = _lengths(R, B.take(new, axis=0))
    e[ks, 1] = e[ks[new], 1]
    rematched = Matching(ps.reds, ps.blues, e)
    return BoxRematchResult(length_before, float(lengths.sum()), len(bounds) - 1, rematched)
