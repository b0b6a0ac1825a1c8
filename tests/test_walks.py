
import json
import math

import numpy as np
import pytest

from poisson_matching import assignment
from poisson_matching.assignment import SMALL_MAX, max_cardinality_min_cost, min_cost_perfect
from poisson_matching.geometry import Domain, Rect
from poisson_matching.matching import Matching
from poisson_matching.sampling import ColoredPointSet, SampleConfig, derived_rng, sample
from poisson_matching.verify import (check_arc_disjointness, check_planarity,
                                     minimality_certificate_d1)
from poisson_matching import walks
from poisson_matching.walks import (ArcSpec, ArcTable, StepWalk, WalkInvariantError,
                                    build_walk, crossing_profile,
                                    cut_time_matching, cut_times,
                                    excursion_matching, laminate_strips,
                                    one_color_pairing, polygonal_arcs,
                                    zero_block_matching)
from test_hierarchy import min_cost_pairs as kernel_pairs


def strip_ps(red_xs, blue_xs, length=10.0, heights=0.5):
    reds = [[x, heights if np.isscalar(heights) else heights[i]]
            for i, x in enumerate(red_xs)]
    blues = [[x, heights if np.isscalar(heights) else heights[i]]
             for i, x in enumerate(blue_xs)]
    return ColoredPointSet(Domain.strip(0, length), reds=reds, blues=blues, seed=0)


def line_ps(red_xs, blue_xs, x0=0.0, x1=10.0):
    return ColoredPointSet(Domain.line(x0, x1),
                           reds=[[x, 0.0] for x in red_xs],
                           blues=[[x, 0.0] for x in blue_xs], seed=0)


def walk_value(w, t):
    """F(t) of a StepWalk: right-continuous, so jumps at t are included."""
    k = int(np.searchsorted(w.xs, t, side="right"))
    return int(w.signs[:k].sum())


def walk_value_left(w, t):
    """F(t-) of a StepWalk: the limit from the left."""
    k = int(np.searchsorted(w.xs, t, side="left"))
    return int(w.signs[:k].sum())


def count_diff(ps, rect):
    """(#reds - #blues) inside the half-open rectangle, by direct count: the
    oracle for the walk's increments."""
    return sum(sum(1 for p in pts if rect.contains(p)) * sign
               for pts, sign in ((ps.reds, 1), (ps.blues, -1)))


def test_count_diff_basics():
    ps = ColoredPointSet(Domain.strip(0, 10), reds=[[1.0, 0.5]], blues=[[5.0, 0.5]],
                         seed=0)
    assert count_diff(ps, Rect(0, 2, 0, 1)) == 1
    assert count_diff(ps, Rect(4, 6, 0, 1)) == -1
    assert count_diff(ps, Rect(2, 4, 0, 1)) == 0


def test_count_diff_additive_over_partition():
    ps = sample(SampleConfig(1.0, 1.0, Domain.strip(0, 40), seed=11))
    cuts = np.linspace(0, 40, 9)
    parts = sum(count_diff(ps, Rect(a, b, 0, 1)) for a, b in zip(cuts, cuts[1:]))
    assert parts == ps.n_red - ps.n_blue


def profile_value_at(prof, t):
    """A CrossingProfile's value at t: 0 outside its breakpoints."""
    if t <= prof.breakpoints[0] or t >= prof.breakpoints[-1]:
        return 0
    k = int(np.searchsorted(prof.breakpoints, t, side="right")) - 1
    return int(prof.values[k])


class TestBuildWalk:
    def test_single_up_down(self):
        w = build_walk(strip_ps([1], [2]))
        assert walk_value(w, 0.5) == 0
        assert walk_value(w, 1.0) == 1
        assert walk_value(w, 1.5) == 1
        assert walk_value(w, 2.0) == 0
        assert walk_value_left(w, 1.0) == 0

    def test_empty(self):
        w = build_walk(strip_ps([], []))
        assert walk_value(w, 5.0) == 0

    def test_increments_match_direct_counts(self):
        ps = sample(SampleConfig(1, 1, Domain.strip(0, 50), seed=13))
        w = build_walk(ps)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = sorted(rng.uniform(0, 50, 2))
            if x == y:
                continue
            assert walk_value(w, y) - walk_value(w, x) == count_diff(ps, Rect(x, y, 0, 1))

    @pytest.mark.parametrize("xs", [[2.0, 1.0], [1.0, 1.0], [0.5, 3.0, 2.0]])
    def test_jumps_not_increasing_rejected(self, xs):
        with pytest.raises(ValueError, match="strictly increasing"):
            StepWalk(xs, [1] * len(xs))

    def test_duplicate_x_rejected(self):
        ps = strip_ps([1.0], [], heights=0.3)
        ps.blues = np.array([[1.0, 0.7]])
        with pytest.raises(ValueError, match="strictly increasing"):
            build_walk(ps)

    @pytest.mark.parametrize("domain", [Domain.strip(0, 60), Domain.line(0, 60)])
    def test_up_steps_are_the_reds_and_down_steps_the_blues(self, domain):
        # the m-th up-step is reds[m] and the m-th down-step blues[m]: the
        # rule by which excursion_matching and polygonal_arcs read the walk
        for seed in range(6):
            ps = sample(SampleConfig(1.0, 1.2, domain, seed))
            w = build_walk(ps)
            up = w.signs == 1
            assert np.array_equal(w.xs[up], ps.reds[:, 0])
            assert np.array_equal(w.xs[~up], ps.blues[:, 0])

    def test_plane_rejected(self):
        ps = ColoredPointSet(Domain.plane(0, 2, 0, 2), reds=[[1, 1]], blues=[], seed=0)
        with pytest.raises(ValueError):
            build_walk(ps)


class TestZeroBlockMatching:
    def test_red_first_hand_trace(self):
        # walk 0,1,0,1,0: zeros at 2 and 4 split blocks (0,2], (2,4]
        m = zero_block_matching(strip_ps([1, 3], [2, 4]))
        assert sorted(m.edges) == [(0, 0), (1, 1)]
        assert m.kind == "perfect"

    def test_blue_first_hand_trace(self):
        # walk dips to -1; zeros at 2 and 4
        m = zero_block_matching(strip_ps([2, 4], [1, 3]))
        assert sorted(m.edges) == [(0, 0), (1, 1)]

    def test_empty(self):
        assert zero_block_matching(strip_ps([], [])).edges == []

    def test_tail_points_unmatched(self):
        # nothing closes after x=2: the trailing red stays unmatched
        m = zero_block_matching(strip_ps([1, 3], [2]))
        assert m.edges == [(0, 0)]
        assert m.unmatched_reds == [1]

    def test_planar_on_random_samples(self):
        for seed in range(5):
            ps = sample(SampleConfig(1, 1, Domain.strip(0, 40), seed=seed))
            assert check_planarity(zero_block_matching(ps)).passed


class TestOneColorPairing:
    def test_coin_zero(self):
        m = one_color_pairing(strip_ps([1, 2, 3, 4], []), coin=0)
        assert m.edges == [(0, 1), (2, 3)]
        assert m.unmatched_reds == []

    def test_coin_one_shifts(self):
        m = one_color_pairing(strip_ps([1, 2, 3, 4], []), coin=1)
        assert m.edges == [(1, 2)]
        assert m.unmatched_reds == [0, 3]

    def test_single_red(self):
        m = one_color_pairing(strip_ps([1], []), coin=0)
        assert m.edges == []

    @pytest.mark.parametrize("coin", [2, -1])
    def test_coin_outside_zero_one_rejected(self, coin):
        with pytest.raises(ValueError, match="coin must be 0 or 1"):
            one_color_pairing(strip_ps([1, 2, 3, 4], []), coin)

    def test_planar(self):
        ps = sample(SampleConfig(1, 1, Domain.strip(0, 40), seed=2))
        for coin in (0, 1):
            assert check_planarity(one_color_pairing(ps, coin)).passed


class TestCutTimeMatching:
    def test_all_red_every_point_is_cut(self):
        ps = strip_ps([1, 2, 3], [])
        assert list(cut_times(build_walk(ps))) == [1, 2, 3]
        m = cut_time_matching(ps)
        assert m.edges == []
        assert m.unmatched_reds == [0, 1, 2]

    def test_all_blue_no_cuts(self):
        ps = strip_ps([], [1, 2, 3])
        assert len(cut_times(build_walk(ps))) == 0

    def test_empty_walk_no_cuts(self):
        cuts = cut_times(build_walk(strip_ps([], [])))
        assert cuts.shape == (0,) and cuts.dtype == float

    def test_red_excess_between_cuts(self):
        ps = sample(SampleConfig(2, 1, Domain.strip(0, 50), seed=21))
        w = build_walk(ps)
        cuts = cut_times(w)
        assert len(cuts) >= 2
        for lo, hi in zip(cuts, cuts[1:]):
            nr = int(((ps.reds[:, 0] > lo) & (ps.reds[:, 0] <= hi)).sum())
            nb = int(((ps.blues[:, 0] > lo) & (ps.blues[:, 0] <= hi)).sum())
            assert nr > nb

    def test_interior_blues_all_matched(self):
        for seed in range(5):
            ps = sample(SampleConfig(2, 1, Domain.strip(0, 50), seed=seed))
            cuts = cut_times(build_walk(ps))
            if len(cuts) < 2:
                continue
            m = cut_time_matching(ps)
            for j in m.unmatched_blues:
                x = ps.blues[j, 0]
                assert x <= cuts[0] or x > cuts[-1]


# The block constructions as they were when every block built a Matching
# (empty cut blocks included); the oracle for the partner-array path.


def _old_zero_block_matching(ps):
    walk = build_walk(ps)
    zero_xs = walk.xs[walk.values == 0]
    rc, bc = walks._interval_cuts(ps, np.concatenate([[ps.domain.x0], zero_xs]))
    edges = []
    for r0, r1, b0, b1 in zip(rc, rc[1:], bc, bc[1:]):
        sub = min_cost_perfect(ps.reds[r0:r1], ps.blues[b0:b1])
        edges.extend((int(r0 + i), int(b0 + j)) for i, j in sub.edges)
    return Matching(ps.reds, ps.blues, sorted(edges))


def _old_cut_time_matching(ps):
    rc, bc = walks._interval_cuts(ps, cut_times(build_walk(ps)))
    edges = []
    for r0, r1, b0, b1 in zip(rc, rc[1:], bc, bc[1:]):
        sub = max_cardinality_min_cost(ps.reds[r0:r1], ps.blues[b0:b1])
        edges.extend((int(r0 + i), int(b0 + j)) for i, j in sub.edges)
    return Matching(ps.reds, ps.blues, sorted(edges))


@pytest.mark.parametrize("construction, old, lam_red", [
    (zero_block_matching, _old_zero_block_matching, 1.0),
    (cut_time_matching, _old_cut_time_matching, 1.2)], ids=["zero_block", "cut_time"])
def test_block_edges_equal_per_block_matchings(construction, old, lam_red):
    empty = 0
    for seed in range(10):
        ps = sample(SampleConfig(lam_red, 1.0, Domain.strip(0, 300), seed=seed))
        got, want = construction(ps), old(ps)
        assert got.edges == want.edges and got.kind == want.kind
        assert got.unmatched_reds == want.unmatched_reds
        assert got.unmatched_blues == want.unmatched_blues
        if construction is cut_time_matching:
            rc, bc = walks._interval_cuts(ps, cut_times(build_walk(ps)))
            empty += int((np.diff(bc) == 0).sum())
    assert construction is zero_block_matching or empty >= 10  # blue-free blocks met


def test_cut_time_small_blocks_skip_the_kernel(monkeypatch):
    # the cut blocks with one to three blues are the small-problem pass's:
    # only the larger ones reach the assignment kernel, each with its blues
    # as the rows, and the edges are the per-block solves through the public
    # scipy functions
    rows, kernel = [], assignment._assign
    monkeypatch.setattr(assignment, "_assign", lambda cost: rows.append(len(cost)) or kernel(cost))
    small = []
    for seed in range(10):
        ps = sample(SampleConfig(1.2, 1.0, Domain.strip(0, 300), seed=seed))
        rows.clear()
        got = cut_time_matching(ps)
        rc, bc = walks._interval_cuts(ps, cut_times(build_walk(ps)))
        blues = np.diff(bc)
        assert sorted(rows) == sorted(blues[blues > SMALL_MAX].tolist())
        small += blues[(blues > 0) & (blues <= SMALL_MAX)].tolist()
        want = sorted((int(r0 + i), int(b0 + j))
                      for r0, r1, b0, b1 in zip(rc, rc[1:], bc, bc[1:])
                      for i, j in kernel_pairs(ps.reds[r0:r1], ps.blues[b0:b1]))
        assert got.edges == want
    assert len(small) >= 10 and set(small) == set(range(1, SMALL_MAX + 1))


class TestExcursionMatching:
    def test_nested_hand_trace(self):
        m = excursion_matching(strip_ps([1, 2], [3, 4]))
        assert sorted(m.edges) == [(0, 1), (1, 0)]  # red@1-blue@4, red@2-blue@3

    def test_single_pair(self):
        m = excursion_matching(strip_ps([1], [2]))
        assert m.edges == [(0, 0)]

    def test_disjoint_hand_trace(self):
        m = excursion_matching(strip_ps([1, 3], [2, 4]))
        assert sorted(m.edges) == [(0, 0), (1, 1)]

    def test_intervals_nested_or_disjoint(self):
        ps = sample(SampleConfig(1, 1, Domain.strip(0, 60), seed=5))
        m = excursion_matching(ps)
        spans = [(ps.reds[i, 0], ps.blues[j, 0]) for i, j in m.edges]
        for a in range(len(spans)):
            for b in range(a + 1, len(spans)):
                (l1, r1), (l2, r2) = spans[a], spans[b]
                disjoint = r1 < l2 or r2 < l1
                nested = (l1 < l2 and r2 < r1) or (l2 < l1 and r1 < r2)
                assert disjoint or nested

    def test_orphans_flagged(self):
        # blue first: its red partner lies left of the window
        m = excursion_matching(strip_ps([2], [1]))
        assert m.edges == []
        assert m.unmatched_blues == [0]
        assert m.unmatched_reds == [0]


def _stack_excursion(ps):
    """The Python stack loop the level sort replaced, kept verbatim as the
    oracle: reds are pushed at their up-steps and each blue pops the latest
    open red; a blue met with an empty stack stays unmatched."""
    walk = build_walk(ps)
    red_at = {float(x): i for i, x in enumerate(ps.reds[:, 0])}
    blue_at = {float(x): j for j, x in enumerate(ps.blues[:, 0])}
    stack = []
    edges = []
    for x, s in zip(walk.xs, walk.signs):
        if s == 1:
            stack.append(red_at[float(x)])
        elif stack:
            edges.append((stack.pop(), blue_at[float(x)]))
    return Matching(ps.reds, ps.blues, sorted(edges))


class TestExcursionAgainstStack:
    @staticmethod
    def _check(ps):
        got, want = excursion_matching(ps), _stack_excursion(ps)
        assert got.edges == want.edges
        assert all(type(i) is int and type(j) is int for i, j in got.edges)
        assert got.unmatched_reds == want.unmatched_reds
        assert got.unmatched_blues == want.unmatched_blues
        return want

    @pytest.mark.parametrize("lam_red", [1.0, 1.4, 0.7])
    def test_seeded_strips_and_lines(self, lam_red):
        open_reds = early_blues = 0
        for seed in range(6):
            for domain in (Domain.strip(0, 150), Domain.line(0, 150)):
                want = self._check(sample(SampleConfig(lam_red, 1.0, domain, seed)))
                assert want.edges
                open_reds += len(want.unmatched_reds)
                early_blues += len(want.unmatched_blues)
        assert open_reds and early_blues  # both kinds of unmatched point met

    def test_walks_of_2_15_steps_or_more(self):
        # the levels sort as int16 where they lie within +-2**15, as on a
        # sampled line of 2**15 steps, and as int64 on a walk that climbs to
        # level 2**16 + 1 and back, where int16 would put the steps at level
        # 2**16 + 1 between those at level 1
        ps = sample(SampleConfig(1.0, 1.0, Domain.line(0, 20000.0), 29))
        assert ps.n_red + ps.n_blue >= 2 ** 15 and self._check(ps).edges
        n = 2 ** 16 + 1
        xs = np.arange(2 * n) / (2 * n)
        assert len(self._check(line_ps(xs[:n], xs[n:], x1=1.0)).edges) == n

    def test_blues_before_any_red_and_reds_left_open(self):
        for reds, blues in (([5, 6], [1, 2, 3, 7]), ([1, 2, 3], [4]), ([2, 5], [1, 3, 4, 6]),
                            ([1, 4, 5], [2, 3, 6, 7, 8])):
            self._check(strip_ps(reds, blues))
            self._check(line_ps(reds, blues))

    def test_empty_colours(self):
        for reds, blues in (([], []), ([1, 2], []), ([], [1, 2])):
            m = self._check(strip_ps(reds, blues))
            assert m.edges == []


class TestPolygonalArcs:
    def test_single_edge_depth_one(self):
        ps = strip_ps([1], [2], heights=0.6)
        m = excursion_matching(ps)
        (arc,) = polygonal_arcs(m, ps)
        assert arc.depth == 1
        assert arc.height == pytest.approx(0.6)

    def test_nested_outer_runs_lower(self):
        ps = strip_ps([1, 2, 3, 4], [], heights=0.8)
        ps = ColoredPointSet(Domain.strip(0, 10),
                             reds=[[1, 0.8], [2, 0.8]],
                             blues=[[3, 0.8], [4, 0.8]], seed=0)
        m = excursion_matching(ps)
        arcs = {a.edge: a for a in polygonal_arcs(m, ps)}
        outer = arcs[(0, 1)]
        inner = arcs[(1, 0)]
        assert outer.depth == 2 and inner.depth == 1
        assert outer.height < inner.height

    def test_arcs_disjoint_on_random_strip(self):
        ps = sample(SampleConfig(1, 1, Domain.strip(0, 100), seed=3))
        m = excursion_matching(ps)
        arcs = polygonal_arcs(m, ps)
        assert check_arc_disjointness(arcs).passed

    @pytest.mark.parametrize("lam_red", [1.0, 1.3, 0.7])
    def test_lowest_and_height_read_the_walk_order(self, lam_red):
        # the points in walk order by a sort of all of them on x
        for seed in range(4):
            ps = sample(SampleConfig(lam_red, 1.0, Domain.strip(0, 200), seed))
            m = excursion_matching(ps)
            arcs = polygonal_arcs(m, ps)
            pts = np.concatenate([ps.reds, ps.blues])
            ys = pts[np.argsort(pts[:, 0], kind="stable"), 1]
            xs = np.sort(pts[:, 0])
            p, q = m.endpoint_arrays()
            lowest = [ys[np.searchsorted(xs, a):np.searchsorted(xs, b, side="right")].min()
                      for a, b in zip(p[:, 0], q[:, 0])]
            assert len(lowest) and arcs.lowest.tolist() == lowest
            assert arcs.height.tolist() == [lo / d for lo, d in zip(lowest, arcs.depth.tolist())]

    def test_domain_not_a_strip_rejected(self):
        # on a line every arc would lie on the line itself, at height 0
        ps = sample(SampleConfig(1, 1, Domain.line(0, 30), 3))
        with pytest.raises(ValueError, match="need a strip domain, not a line"):
            polygonal_arcs(excursion_matching(ps), ps)
        ps = ColoredPointSet(Domain.plane(0, 2, 0, 2), reds=[[1, 1]], blues=[[1.5, 1]], seed=0)
        with pytest.raises(ValueError, match="need a strip domain, not a plane"):
            polygonal_arcs(Matching(ps.reds, ps.blues, [(0, 0)]), ps)


def _reference_arcs(m, ps):
    """The per-edge loop the range queries replaced, kept verbatim: an O(n)
    mask over all points and a prefix sum per edge."""
    walk = build_walk(ps)
    vals = walk.values
    allpts = np.concatenate([ps.reds, ps.blues]) if ps.n_red + ps.n_blue else np.empty((0, 2))
    arcs = []
    for (i, j) in m.edges:
        r = ps.reds[i]
        b = ps.blues[j]
        x_lo, x_hi = r[0], b[0]
        if x_lo > x_hi:
            raise ValueError("excursion edges run left to right")
        between = allpts[(allpts[:, 0] >= x_lo) & (allpts[:, 0] <= x_hi)]
        lowest = float(between[:, 1].min())
        k_lo = int(np.searchsorted(walk.xs, x_lo, side="left"))
        k_hi = int(np.searchsorted(walk.xs, x_hi, side="right"))
        base_level = walk_value_left(walk, x_lo)
        depth = int(vals[k_lo:k_hi].max() - base_level)
        if depth < 1:
            raise AssertionError("edge interval must contain the red's up-step")
        h = lowest / depth
        arcs.append(ArcSpec(
            edge=(i, j), height=h, lowest=lowest, depth=depth,
            vertices=[(float(r[0]), float(r[1])), (float(r[0]), h),
                      (float(b[0]), h), (float(b[0]), float(b[1]))],
        ))
    return arcs


def replaced(row, **fields):
    """A copy of the frozen row ``row`` with ``fields`` changed."""
    return type(row)(**{**vars(row), **fields})


def table_of(rows):
    """The ``ArcTable`` of ``ArcSpec`` rows, built from their columns."""
    rows = list(rows)
    return ArcTable([a.edge for a in rows], [a.height for a in rows],
                    [a.lowest for a in rows], [a.depth for a in rows],
                    [a.vertices for a in rows])


def _left_to_right_matching(ps, rng, reach=6):
    """Each red, in x order, takes one of the next unused blues to its right:
    edges cross, nest and sit side by side, unlike an excursion matching."""
    edges, used = [], set()
    for i, x in enumerate(ps.reds[:, 0]):
        right = [j for j in np.flatnonzero(ps.blues[:, 0] > x).tolist() if j not in used]
        if right:
            j = right[int(rng.integers(0, min(len(right), reach)))]
            used.add(j)
            edges.append((i, j))
    return Matching(ps.reds, ps.blues, sorted(edges))


def _same_arcs(got, want):
    assert [a.to_json() for a in got] == [a.to_json() for a in want]
    assert all(type(a.lowest) is float and type(a.depth) is int for a in got)


class TestArcsAgainstLoop:
    @pytest.mark.parametrize("lam_red", [1.0, 1.3, 0.7])
    def test_seeded_strips(self, lam_red):
        for seed in range(4):
            ps = sample(SampleConfig(lam_red, 1.0, Domain.strip(0, 200), seed))
            m = excursion_matching(ps)
            assert m.edges
            _same_arcs(polygonal_arcs(m, ps), _reference_arcs(m, ps))

    def test_non_excursion_matchings(self):
        rng = derived_rng(41)
        depths = set()
        for seed in range(12):
            ps = sample(SampleConfig(1, 1, Domain.strip(0, 60), seed))
            m = _left_to_right_matching(ps, rng)
            want = _reference_arcs(m, ps)
            _same_arcs(polygonal_arcs(m, ps), want)
            depths.update(a.depth for a in want)
        assert len(depths) > 3

    def test_hand_built(self):
        # crossing intervals, an edge over an empty gap, and a walk that dips
        # below zero before the first red
        ps = ColoredPointSet(Domain.strip(0, 10),
                             reds=[[1, 0.9], [2, 0.4], [6, 0.7]],
                             blues=[[0.5, 0.2], [3, 0.8], [4, 0.6], [8, 0.3]], seed=0)
        for edges in ([(0, 1), (1, 2)], [(1, 1), (0, 2), (2, 3)], [(2, 3)], []):
            m = Matching(ps.reds, ps.blues, sorted(edges))
            _same_arcs(polygonal_arcs(m, ps), _reference_arcs(m, ps))

    def test_right_to_left_rejected(self):
        ps = ColoredPointSet(Domain.strip(0, 10), reds=[[1, 0.5], [5, 0.5]],
                             blues=[[2, 0.5], [3, 0.5]], seed=0)
        for edges in ([(1, 0)], [(0, 0), (1, 1)]):
            m = Matching(ps.reds, ps.blues, sorted(edges))
            with pytest.raises(ValueError):
                _reference_arcs(m, ps)
            with pytest.raises(ValueError):
                polygonal_arcs(m, ps)


class TestArcTable:
    @staticmethod
    def _arcs(seed, length=120.0):
        ps = sample(SampleConfig(1, 1, Domain.strip(0, length), seed))
        m = excursion_matching(ps)
        return ps, m, polygonal_arcs(m, ps)

    def test_columns_are_read_only(self):
        _, m, t = self._arcs(0)
        n = len(m.edges)
        assert isinstance(t, ArcTable) and len(t) == n > 0
        shapes = {"edges": ((n, 2), np.int64), "height": ((n,), np.float64),
                  "lowest": ((n,), np.float64), "depth": ((n,), np.int64),
                  "vertices": ((n, 4, 2), np.float64)}
        for name, (shape, dtype) in shapes.items():
            col = getattr(t, name)
            assert col.shape == shape and col.dtype == dtype
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 0

    def test_rows_equal_the_reference_loop(self):
        for seed in range(3):
            ps, m, t = self._arcs(seed)
            want = _reference_arcs(m, ps)
            assert list(t) == want  # tuple edges and vertices, plain numbers

    def test_rows_and_json_build_the_same_table(self):
        _, _, t = self._arcs(4)
        rows = [a.to_json() for a in t]
        for again in (table_of(t), ArcTable.from_json(rows),
                      ArcTable.from_json(json.loads(json.dumps(rows)))):
            for name in ("edges", "height", "lowest", "depth", "vertices"):
                a, b = getattr(again, name), getattr(t, name)
                assert np.array_equal(a, b) and a.dtype == b.dtype
        # a row of numpy scalars writes plain numbers in every field
        vertices = np.array([(0.0, 1.0), (0.0, 0.5), (1.0, 0.5), (1.0, 1.0)])
        row = ArcSpec(edge=(np.int64(0), np.int64(0)), height=np.float64(0.5),
                      lowest=np.float64(1.0), depth=np.int64(1),
                      vertices=[tuple(v) for v in vertices])
        plain = row.to_json()
        assert json.loads(json.dumps(plain)) == plain
        assert [type(plain[k]) for k in ("height", "lowest", "depth")] == [float, float, int]

    def test_empty_table(self):
        ps = strip_ps([], [])
        t = polygonal_arcs(excursion_matching(ps), ps)
        assert len(t) == 0 and list(t) == []
        assert t.vertices.shape == (0, 4, 2) and t.edges.shape == (0, 2)
        assert ArcTable.from_json([]).vertices.shape == (0, 4, 2)

    @pytest.mark.parametrize("field,value", [
        ("edges", [(0,)]), ("edges", [(0, -1)]), ("edges", [(0.5, 1)]), ("edges", [None]),
        ("edges", [(0, 0), (1, 1)]), ("height", [math.nan]), ("lowest", [math.inf]),
        ("lowest", ["low"]), ("depth", [1.5]), ("depth", [None]),
        ("vertices", [[(0.0, 1.0), (0.0, 0.5), (1.0, 1.0)]]),
        ("vertices", [[(0.0, 1.0), ({"y": 0}, 0.5), (1.0, 0.5), (1.0, 1.0)]]),
    ])
    def test_malformed_column_rejected(self, field, value):
        good = dict(edges=[(0, 0)], height=[0.25], lowest=[0.5], depth=[1],
                    vertices=[[(0.0, 1.0), (0.0, 0.25), (1.0, 0.25), (1.0, 1.0)]])
        assert len(ArcTable(**good)) == 1
        with pytest.raises(ValueError, match="every arc needs"):
            ArcTable(**{**good, field: value})


def _reference_profile_values(m):
    """The (gaps x edges) matrix count of the edges spanning each gap between
    consecutive breakpoints."""
    bs = m.blues if m.color_mode == "two_color" else m.reds
    lo = np.minimum(m.reds[[i for i, _ in m.edges], 0], bs[[j for _, j in m.edges], 0])
    hi = np.maximum(m.reds[[i for i, _ in m.edges], 0], bs[[j for _, j in m.edges], 0])
    breaks = np.unique(np.concatenate([lo, hi]))
    values = ((lo[None, :] <= breaks[:-1, None]) & (breaks[1:, None] <= hi[None, :])).sum(axis=1)
    return breaks, values.astype(int)


class TestProfileAgainstMatrix:
    def _check(self, m):
        prof = crossing_profile(m)
        breaks, values = _reference_profile_values(m)
        assert np.array_equal(prof.breakpoints, breaks)
        assert np.array_equal(prof.values, values) and prof.values.dtype == values.dtype
        return values

    def test_random_nested_and_one_color(self):
        rng = derived_rng(42)
        peak = 0
        for seed in range(6):
            ps = sample(SampleConfig(1, 1, Domain.line(0, 80), seed))
            n = min(ps.n_red, ps.n_blue)
            perm = rng.permutation(n)
            for m in (Matching(ps.reds, ps.blues, [(i, int(perm[i])) for i in range(n)]),
                      excursion_matching(ps),
                      min_cost_perfect(ps.reds[:n], ps.blues[:n]),
                      one_color_pairing(ps, seed % 2)):
                peak = max(peak, self._check(m).max())
        assert peak > 2

    def test_shared_breakpoints(self):
        # intervals [1, 5], [3, 7] and [3, 5]: red 1 sits at blue 0's x,
        # and each inner breakpoint ends one interval and starts another
        m = Matching([[1, 0], [3, 0], [5, 0]], [[3, 0.5], [5, 0.5], [7, 0.5]],
                     [(0, 1), (1, 2), (2, 0)])
        assert self._check(m).tolist() == [1, 3, 1]
        # breakpoints 1 and the next float: their midpoint rounds to 1, where
        # [0.5, 1] ends and [1, 4] starts; only [1, 4] spans the gap
        adjacent = np.nextafter(1.0, 2.0)
        assert (1.0 + adjacent) / 2 == 1.0
        m = Matching([[0.5, 0], [1.0, 0], [adjacent, 0]],
                     [[1.0, 0.5], [4.0, 0.5], [3.0, 0.5]], [(0, 0), (1, 1), (2, 2)])
        assert self._check(m).tolist() == [1, 1, 2, 1]

    def test_without_edges(self):
        ps = line_ps([1, 2], [3, 4])
        m = Matching(ps.reds, ps.blues, [])
        assert m.unmatched_reds == [0, 1] and m.unmatched_blues == [0, 1]
        prof = crossing_profile(m)
        assert prof.breakpoints.tolist() == [0.0, 0.0] and prof.values.tolist() == []
        assert prof.integral() == 0.0


class TestCrossingProfile:
    def test_single_edge(self):
        m = excursion_matching(line_ps([0.0001], [1]))
        prof = crossing_profile(m)
        assert prof.integral() == pytest.approx(m.total_length)

    def test_nested_hand_sum(self):
        ps = line_ps([1, 2], [3, 4])
        m = Matching(ps.reds, ps.blues, [(0, 1), (1, 0)])
        prof = crossing_profile(m)
        assert profile_value_at(prof, 1.5) == 1
        assert profile_value_at(prof, 2.5) == 2
        assert profile_value_at(prof, 3.5) == 1
        assert prof.integral() == pytest.approx(4.0)

    def test_identity_for_any_matching(self):
        ps = sample(SampleConfig(1, 1, Domain.line(0, 60), seed=9))
        n = min(ps.n_red, ps.n_blue)
        rng = np.random.default_rng(1)
        perm = rng.permutation(n)
        m = Matching(ps.reds, ps.blues, [(i, int(perm[i])) for i in range(n)])
        prof = crossing_profile(m)
        assert abs(prof.integral() - m.total_length) < 1e-9

    def test_profile_equals_walk_increment_on_closed_block(self):
        # on an excursion matching, the profile equals F(t) - F(block start)
        ps = line_ps([1, 2, 4], [3, 5, 6])
        m = excursion_matching(ps)
        assert m.kind == "perfect"
        w = build_walk(ps)
        prof = crossing_profile(m)
        for t in [1.5, 2.5, 3.5, 4.5, 5.5]:
            assert profile_value_at(prof, t) == walk_value(w, t) - walk_value(w, 0.5)

    def test_profile_lower_bounds_alternatives(self):
        # the excursion profile is the pointwise minimum over all matchings
        ps = line_ps([1.1, 2.3, 4.2], [3.7, 5.1, 6.4])
        m = excursion_matching(ps)
        base = crossing_profile(m)
        import itertools
        for perm in itertools.permutations(range(3)):
            alt = Matching(ps.reds, ps.blues, [(i, perm[i]) for i in range(3)])
            prof = crossing_profile(alt)
            for t in np.linspace(1.2, 6.3, 40):
                assert profile_value_at(base, t) <= profile_value_at(prof, t)


def least_line_cost(m):
    """The integral of |S| over the line, S being the edges' first ends minus
    their second ends to the left: the least cost of matching those ends."""
    p, q = m.endpoint_arrays()
    xs = np.concatenate([p[:, 0], q[:, 0]])
    order = np.argsort(xs, kind="stable")
    s = np.cumsum(np.repeat([1, -1], len(p))[order])
    return float(np.sum(np.abs(s[:-1]) * np.diff(xs[order])))


def _rematched(m, positions, partners):
    """``m`` with the edges at ``positions`` given the partners of the edges
    at ``partners``."""
    e = m._edge_array().copy()
    e[positions, 1] = e[partners, 1]
    return Matching(m.reds, m.blues, e)


class TestMinimalityCertificate:
    def _assert_witness(self, rep, m, changed=()):
        """One witness: a gap the certificate counts, where more edges than
        |S| span it, listed in full, among them an edge of ``changed``."""
        assert not rep.passed and len(rep.violations) == 1
        v = rep.violations[0]
        x0, x1 = v["gap"]
        p, q = m.endpoint_arrays()
        lo, hi = np.minimum(p[:, 0], q[:, 0]), np.maximum(p[:, 0], q[:, 0])
        assert v["edges"] == np.flatnonzero((lo <= x0) & (x1 <= hi)).tolist()
        s = int((p[:, 0] <= x0).sum() - (q[:, 0] <= x0).sum())
        assert v["coverage"] == len(v["edges"]) > v["discrepancy"] == abs(s)
        assert not changed or set(changed) & set(v["edges"])
        return v

    def test_single_edge_never_violates(self):
        ps = line_ps([1], [2])
        rep = minimality_certificate_d1(excursion_matching(ps))
        assert rep.passed and rep.trials == 1

    def test_excursion_matching_minimal(self):
        for seed in range(31, 36):
            ps = sample(SampleConfig(1, 1, Domain.line(0, 80), seed=seed))
            m = excursion_matching(ps)
            assert minimality_certificate_d1(m).passed
            assert m.total_length == pytest.approx(least_line_cost(m), abs=1e-9)

    def test_zero_block_matching_minimal(self):
        # zero blocks below the axis start with a blue, so their edges run in
        # both directions and S is negative over them: coverage equals |S|,
        # not S
        for seed in range(1, 6):
            ps = sample(SampleConfig(1, 1, Domain.line(0, 400), seed=seed))
            m = zero_block_matching(ps)
            p, q = m.endpoint_arrays()
            assert (p[:, 0] < q[:, 0]).any() and (p[:, 0] > q[:, 0]).any()
            assert minimality_certificate_d1(m).passed

    def test_gap_between_adjacent_floats(self):
        # the gap from 1 to the next float has its midpoint round to 1, where
        # the first edge ends: no edge spans it, and S is 0 there
        ps = line_ps([0.0, np.nextafter(1.0, 2.0)], [1.0, 2.0])
        rep = minimality_certificate_d1(excursion_matching(ps))
        assert rep.passed and rep.trials == 3

    def test_corrupted_matching_caught(self):
        ps = line_ps([1, 4], [2, 3])
        bad = Matching(ps.reds, ps.blues, [(0, 1), (1, 0)])
        # cost 2+2=4; the rematch (1,2),(4,3) costs 2. Both edges span
        # [2, 3], where one red and one blue lie to the left
        v = self._assert_witness(minimality_certificate_d1(bad), bad)
        assert v == {"gap": [2.0, 3.0], "coverage": 2, "discrepancy": 0, "edges": [0, 1]}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_swapped_pair_caught(self, seed):
        ps = sample(SampleConfig(1, 1, Domain.line(0, 1e4), seed=seed))
        m = excursion_matching(ps)
        assert minimality_certificate_d1(m).passed
        bad = _rematched(m, [10, 500], [500, 10])
        self._assert_witness(minimality_certificate_d1(bad), bad, changed=(10, 500))

    def test_three_cycle_caught(self):
        ps = sample(SampleConfig(1, 1, Domain.line(0, 200), seed=7))
        m = excursion_matching(ps)
        bad = _rematched(m, [3, 20, 40], [20, 40, 3])
        self._assert_witness(minimality_certificate_d1(bad), bad, changed=(3, 20, 40))

    def test_reports_gaps_checked(self):
        # the gaps between the four distinct x's, and none without edges
        ps = line_ps([1, 4], [2, 3])
        m = Matching(ps.reds, ps.blues, [(0, 0), (1, 1)])
        assert minimality_certificate_d1(m).trials == 3
        empty = Matching(ps.reds, ps.blues, [])
        assert minimality_certificate_d1(empty).trials == 0


class TestLaminateStrips:
    def _band(self, seed):
        ps = sample(SampleConfig(1, 1, Domain.strip(0, 30), seed=seed))
        m = excursion_matching(ps)
        return ps, m, polygonal_arcs(m, ps)

    def test_single_band_identity_embedding(self):
        ps, m, arcs = self._band(1)
        comb_ps, comb_m, comb_arcs = laminate_strips([(ps, m, arcs)], shift=0.0)
        assert np.array_equal(comb_ps.reds, ps.reds)
        assert sorted(comb_m.edges) == sorted(m.edges)

    def test_two_bands_no_crossings(self):
        results = [self._band(1), self._band(2)]
        _, comb_m, comb_arcs = laminate_strips(results, shift=0.25)
        assert len(comb_m.edges) == sum(len(m.edges) for _, m, _ in results)
        # planarity of the drawn matching: arcs, not straight chords, which
        # keep the bands' order and so are not in the edges' order
        assert check_planarity(comb_m, arcs=comb_arcs).passed
        assert sorted(a.edge for a in comb_arcs) == comb_m.edges != [a.edge for a in comb_arcs]

    def test_five_bands_arcs_disjoint(self):
        results = [self._band(s) for s in range(5)]
        _, _, arcs = laminate_strips(results, shift=0.7321)
        assert check_arc_disjointness(arcs).passed

    def test_bad_shift_rejected(self):
        with pytest.raises(ValueError):
            laminate_strips([self._band(0)], shift=1.5)

    def test_bands_on_different_windows_rejected(self):
        ps = sample(SampleConfig(1, 1, Domain.strip(0, 20), seed=0))
        m = excursion_matching(ps)
        with pytest.raises(ValueError, match="same strip window"):
            laminate_strips([self._band(1), (ps, m, polygonal_arcs(m, ps))], shift=0.0)

    def test_columns_equal_the_per_arc_loop(self):
        for seeds, shift in (((1,), 0.0), ((1, 2), 0.25), ((0, 3, 5, 6), 0.7321)):
            results = [self._band(s) for s in seeds]
            ps, m, arcs = laminate_strips(results, shift)
            want_ps, want_m, want_arcs = _reference_laminate(results, shift)
            assert np.array_equal(ps.reds, want_ps.reds)
            assert np.array_equal(ps.blues, want_ps.blues)
            assert m.edges == want_m.edges
            assert list(arcs) == want_arcs


def _reference_laminate(results, shift):
    """The per-arc rebuild with dict remaps that the column concatenation
    replaced, kept as the oracle."""
    x0, x1 = results[0][0].domain.x0, results[0][0].domain.x1
    reds, blues, edges, arcs = [], [], [], []
    red_off = blue_off = 0
    for band, (ps, m, band_arcs) in enumerate(results):
        dy = band + shift
        reds.append(ps.reds + [0.0, dy])
        blues.append(ps.blues + [0.0, dy])
        edges.extend((i + red_off, j + blue_off) for i, j in m.edges)
        for arc in band_arcs:
            arcs.append(ArcSpec(
                edge=(arc.edge[0] + red_off, arc.edge[1] + blue_off),
                height=arc.height + dy, lowest=arc.lowest + dy, depth=arc.depth,
                vertices=[(x, y + dy) for x, y in arc.vertices],
            ))
        red_off += ps.n_red
        blue_off += ps.n_blue
    red_arr, blue_arr = np.concatenate(reds), np.concatenate(blues)
    r_order = np.lexsort((red_arr[:, 1], red_arr[:, 0]))
    b_order = np.lexsort((blue_arr[:, 1], blue_arr[:, 0]))
    r_map = {int(old): new for new, old in enumerate(r_order)}
    b_map = {int(old): new for new, old in enumerate(b_order)}
    combined = ColoredPointSet(Domain.plane(x0, x1, shift, len(results) + shift),
                               red_arr[r_order], blue_arr[b_order], seed=results[0][0].seed)
    matching = Matching(combined.reds, combined.blues,
                        sorted((r_map[i], b_map[j]) for i, j in edges))
    arcs = [replaced(arc, edge=(r_map[arc.edge[0]], b_map[arc.edge[1]])) for arc in arcs]
    return combined, matching, arcs


class TestWalkInvariantErrors:
    """The walk constructions' internal checks raise one ValueError subclass,
    so the CLI reports them as input errors."""

    def test_point_left_of_window_unbalances_a_zero_block(self):
        # the walk counts the red at x = -1, the zero blocks start at x0 = 0
        ps = strip_ps([-1.0], [0.5])
        with pytest.raises(WalkInvariantError, match="zero block is not balanced"):
            zero_block_matching(ps)

    def test_cut_block_without_red_excess(self, monkeypatch):
        # no input reaches it: the block between two cut-times always ends
        # with the red step that makes the second one
        ps = strip_ps([1.0, 3.0], [2.0])
        monkeypatch.setattr(walks, "cut_times", lambda walk: np.array([0.5, 2.5]))
        with pytest.raises(WalkInvariantError, match="strict red excess"):
            cut_time_matching(ps)

    def test_empty_cut_block_is_checked(self, monkeypatch):
        # a block with no blue is not solved, but its excess is still checked
        ps = strip_ps([1.0, 3.0], [])
        monkeypatch.setattr(walks, "cut_times", lambda walk: np.array([0.5, 1.5, 1.6]))
        with pytest.raises(WalkInvariantError, match="strict red excess"):
            cut_time_matching(ps)

    def test_edge_interval_without_up_step(self, monkeypatch):
        # no input reaches it either: the walk steps up at every red
        ps = strip_ps([1.0], [2.0])
        m = excursion_matching(ps)
        monkeypatch.setattr(walks, "build_walk",
                            lambda ps: StepWalk([1.0, 2.0], [-1, 1]))
        with pytest.raises(WalkInvariantError, match="up-step"):
            polygonal_arcs(m, ps)

    def test_is_a_value_error(self):
        assert issubclass(WalkInvariantError, ValueError)
