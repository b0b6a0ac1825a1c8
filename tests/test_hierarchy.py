import dataclasses
import hashlib
import json
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import poisson, skellam

from poisson_matching import assignment, hierarchy
from poisson_matching.assignment import (BIG, RECTANGULAR, SATURATING, SMALL_MAX, _stable_order,
                                         assign_in_groups, min_cost_perfect)
from poisson_matching.geometry import Domain, Rect
from poisson_matching.hierarchy import (BlockRecord, BlockSystem, aligned_window,
                                        bad_block_bound, build_block_system,
                                        init_state,
                                        run_hierarchical, run_stage, stage1)
from poisson_matching.sampling import ColoredPointSet, SampleConfig, derived_rng, sample
from cases import check_solve, hierarchical_case
from oracles import cost_matrix, min_cost_pairs, tied


def zero_offset_system(N=4):
    a = [math.factorial(n) for n in range(N + 1)]
    return BlockSystem(N=N, a=a, r=[0] * (N + 1), t=[0] * (N + 1))


# Blocks as objects, the oracle for the package's integer (ix, iy) rows: a
# block's rectangle from the grid's dims and offsets, and the block holding
# a point by exact rational floors.

@dataclasses.dataclass(frozen=True)
class Block:
    level: int
    ix: int
    iy: int
    rect: Rect

    @property
    def key(self):
        return (self.level, self.ix, self.iy)


def block_at(system, n, ix, iy):
    w, h = system.dims(n)
    xo, yo = system.offsets(n)
    return Block(n, ix, iy, Rect(xo + ix * w, xo + (ix + 1) * w,
                                 yo + iy * h, yo + (iy + 1) * h))


def exact_cell(system, n, x, y):
    w, h = system.dims(n)
    xo, yo = system.offsets(n)
    return math.floor((Fraction(x) - xo) / w), math.floor((Fraction(y) - yo) / h)


def block_holding(system, n, x, y):
    return block_at(system, n, *exact_cell(system, n, x, y))


def _grids_by_rows(system, n, ix, iy):
    """``BlockSystem.grids`` as it was built on (k, 2) rows, kept verbatim as
    the oracle for the column version and as the tests' own tiling of a
    block: each level's first children are the blocks ``locate`` finds at
    the parents' lower-left corners (``rects``)."""
    cells = {n: np.array([[ix, iy]], dtype=np.int64)}
    for m in range(n, 1, -1):
        count = system.a[m] // system.a[m - 2]
        first = system.locate(m - 1, system.rects(m, cells[m])[:, ::2])
        step = np.zeros((count, 2), dtype=np.int64)
        step[:, m % 2] = np.arange(count)
        cells[m - 1] = (first[:, None, :] + step).reshape(-1, 2)
    return cells


def children(system, block):
    """The n(n-1) level-(n-1) blocks tiling a level-n block, ordered
    left-to-right (even level) or bottom-to-top (odd level)."""
    n = block.level
    if n < 2:
        raise ValueError("level-1 blocks have no children")
    return [block_at(system, n - 1, ix, iy)
            for ix, iy in _grids_by_rows(system, n, block.ix, block.iy)[n - 1].tolist()]


def heir_of(system, block):
    """Left-most child for even levels, bottom-most for odd levels."""
    return children(system, block)[0]


class TestBlockSystem:
    def test_factorial_sizes(self):
        s = build_block_system(seed=0, N=4)
        assert s.a == [1, 1, 2, 6, 24]

    def test_child_counts(self):
        s = zero_offset_system(4)
        b3 = block_at(s, 3, 0, 0)
        assert len(children(s, b3)) == 6  # a3/a1
        b4 = block_at(s, 4, 0, 0)
        assert len(children(s, b4)) == 12  # a4/a2

    def test_children_partition_parent(self):
        s = build_block_system(seed=5, N=4)
        for n in (2, 3, 4):
            parent = block_holding(s, n, 0.5, 0.5)
            kids = children(s, parent)
            assert sum(k.rect.area for k in kids) == parent.rect.area
            for k in kids:
                assert k.rect.x0 >= parent.rect.x0 and k.rect.x1 <= parent.rect.x1
                assert k.rect.y0 >= parent.rect.y0 and k.rect.y1 <= parent.rect.y1

    def test_zero_offsets_anchor_origin(self):
        s = zero_offset_system(4)
        assert block_at(s, 4, 0, 0).rect == Rect(0, 24, 0, 6)
        assert block_at(s, 3, 0, 0).rect == Rect(0, 2, 0, 6)

    def test_offset_ranges(self):
        for seed in range(20):
            s = build_block_system(seed, 5)
            for n in range(2, 6):
                assert 0 <= s.r[n] < s.a[n] // s.a[n - 2]
                assert 0 <= s.t[n] < s.a[n]

    @pytest.mark.parametrize("N", [1, 0, -3])
    def test_fewer_than_two_levels_rejected(self, N):
        with pytest.raises(ValueError, match="need N >= 2"):
            build_block_system(0, N)

    def test_heir_even_level_leftmost(self):
        s = zero_offset_system(2)
        heir = heir_of(s, block_at(s, 2, 0, 0))
        assert heir.rect == Rect(0, 1, 0, 1)

    def test_heir_odd_level_bottommost(self):
        s = zero_offset_system(3)
        heir = heir_of(s, block_at(s, 3, 0, 0))
        assert heir.rect == Rect(0, 2, 0, 1)

    def test_level_one_has_no_heir(self):
        s = zero_offset_system(2)
        with pytest.raises(ValueError):
            heir_of(s, block_at(s, 1, 0, 0))


def below_edges(edges, ulps=3):
    """Each value of ``edges`` and the 1 to ``ulps`` floats just below it."""
    out = []
    for v in map(float, edges):
        out.append(v)
        for _ in range(ulps):
            v = math.nextafter(v, -math.inf)
            out.append(v)
    return out


class TestBlockLookup:
    """``BlockSystem.locate``, the one point-in-block lookup, against exact
    rational floors; ``rects`` against the block rectangles."""

    @staticmethod
    def _check(system, n, pts) -> int:
        """locate's cells equal the exact ones; returns how many of the points
        the float quotient floor((x - offset) / side) misplaces."""
        pts = np.asarray(pts, dtype=float)
        got = system.locate(n, np.floor(pts).astype(np.int64)).tolist()
        want = [list(exact_cell(system, n, x, y)) for x, y in pts.tolist()]
        assert got == want
        (w, h), (xo, yo) = system.dims(n), system.offsets(n)
        floats = [[math.floor((x - xo) / w), math.floor((y - yo) / h)] for x, y in pts.tolist()]
        return sum(f != e for f, e in zip(floats, want))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_points(self, seed):
        system = build_block_system(seed, 6)
        rng = derived_rng(seed, 41)
        for n in range(1, 7):
            self._check(system, n, rng.uniform(-40, 40, (300, 2)) * system.dims(n))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_points_just_below_block_edges(self, seed):
        # 1 to 3 ulps below an edge the float quotient can round up onto it
        system = build_block_system(seed, 6)
        misplaced = 0
        for n in range(1, 7):
            (w, h), (xo, yo) = system.dims(n), system.offsets(n)
            xs = below_edges(xo + w * np.arange(-40, 41))
            ys = below_edges(yo + h * np.arange(-40, 41))
            misplaced += self._check(system, n, list(zip(xs, ys)))
            misplaced += self._check(system, n, list(zip(xs, ys[::-1])))
        assert misplaced > 0  # the float lookup fails here; locate must not

    def test_float_quotient_failing_case(self):
        # x = 4319.999999999999 lies in the block [-720, 4320) of side 5040
        # and offset 14400, index -3; the float quotient rounds it onto the
        # edge, index -2
        system = BlockSystem(N=2, a=[1, 1, 5040], r=[0, 0, 0], t=[0, 0, 14400])
        x = 4319.999999999999
        assert math.floor((x - 14400) / 5040) == -2
        assert system.locate(2, [[math.floor(x), 0]]).tolist() == [[-3, 0]]
        assert self._check(system, 2, [[x, 0.5]]) == 1

    @pytest.mark.parametrize("seed", [0, 3])
    def test_rects_equal_the_block_rectangles(self, seed):
        system = build_block_system(seed, 5)
        cells = _grids_by_rows(system, 5, 0, 0)
        rng = derived_rng(seed, 43)
        for n in range(1, 6):
            rows = np.concatenate([cells[n], rng.integers(-60, 60, (50, 2))])
            want = [[b.rect.x0, b.rect.x1, b.rect.y0, b.rect.y1]
                    for b in (block_at(system, n, ix, iy) for ix, iy in rows.tolist())]
            assert system.rects(n, rows).tolist() == want

    def test_aligned_window_is_the_top_block(self):
        for seed in range(3):
            system = build_block_system(seed, 5)
            assert aligned_window(system).window_rect() == block_at(system, 5, 0, 0).rect


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_grids_equal_the_row_construction(N):
    # every level of the grids of blocks at and around the origin, on
    # seeded systems and on those with the least and the greatest offsets
    rng = derived_rng(N, 47)
    systems = [build_block_system(seed, N) for seed in range(40 if N < 6 else 6)]
    systems += [BlockSystem.from_offsets([0, 0] + [k * (k - 1) - 1 for k in range(2, N + 1)]),
                zero_offset_system(N)]
    for system in systems:
        for n in range(1, N + 1):
            for ix, iy in [(0, 0)] + rng.integers(-40, 40, (2, 2)).tolist():
                got, want = system.grids(n, ix, iy), _grids_by_rows(system, n, ix, iy)
                assert list(got) == list(want)
                for m in want:
                    assert got[m].dtype == want[m].dtype and np.array_equal(got[m], want[m])


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_level_tables_equal_the_modulo_digits(N):
    # every level's rows and heir flags, from the digits of one divmod chain
    # per axis, against the former formula's digits (unit - t[m]) % a[m] //
    # a[m - 2], for points in the window and unit cells out to +-10**6
    rng = derived_rng(N, 53)
    systems = [build_block_system(seed, N) for seed in range(20)]
    systems += [BlockSystem.from_offsets([0, 0] + [k * (k - 1) - 1 for k in range(2, N + 1)]),
                zero_offset_system(N)]
    for system in systems:
        a, domain = system.a, aligned_window(system)
        w = domain.window_rect()
        pts = np.concatenate([rng.uniform([w.x0, w.y0], [w.x1, w.y1], (60, 2)),
                              rng.uniform(-1e6, 1e6, (60, 2))])
        ps = ColoredPointSet(domain, pts[::2], pts[1::2])
        levels = hierarchy.init_state(ps, system).levels
        for color, pts in (("red", ps.reds), ("blue", ps.blues)):
            unit = np.floor(pts).astype(np.int64)
            digit = {m: (unit[:, m % 2] - system.t[m]) % a[m] // a[m - 2]
                     for m in range(2, N + 1)}
            row1 = sum(digit[m] * (a[m - 1] * a[m - 2]) for m in range(2, N + 1))
            row1[~w.contains(pts.T)] = -1
            for n in range(1, N + 1):
                table = getattr(levels[n], color)
                assert np.array_equal(table.row, row1 // (a[n] * a[n - 1]))
                assert np.array_equal(table.in_heir, digit[n] == 0 if n >= 2 else
                                      np.zeros(len(pts), bool))


class TestStages:
    def test_stage1_matches_within_unit_squares(self):
        system, ps, (m, diag, state) = hierarchical_case(seed=3)
        for i, j in state.levels[1].new_edges.tolist():
            r, b = ps.reds[i], ps.blues[j]
            assert math.floor(r[0]) == math.floor(b[0])
            assert math.floor(r[1]) == math.floor(b[1])

    def test_stage_edges_stay_in_their_block(self):
        system, ps, (m, diag, state) = hierarchical_case(seed=11)
        for n in range(1, 5):
            lv = state.levels[n]
            for (ix, iy), s0, s1 in zip(lv.cells.tolist(), lv.new_start, lv.new_start[1:]):
                rect = block_at(system, n, ix, iy).rect
                for i, j in lv.new_edges[s0:s1].tolist():
                    assert rect.contains(ps.reds[i])
                    assert rect.contains(ps.blues[j])

    def test_unmatched_color_balance(self):
        # edges pair one red with one blue, so the unmatched surplus always
        # equals the window color excess
        for seed in range(8):
            _, ps, (m, _, _) = hierarchical_case(seed, lam=2.0)
            assert (len(m.unmatched_reds) - len(m.unmatched_blues)
                    == ps.n_red - ps.n_blue)

    def test_bad_free_window_leaves_only_excess(self):
        # deterministic bad-free configuration: every unit square of the
        # level-2 window holds one red and one blue, plus one extra red
        system = zero_offset_system(2)
        reds = [[0.5, 0.5], [1.5, 0.5], [1.25, 0.75]]
        blues = [[0.5, 0.25], [1.5, 0.25]]
        ps = ColoredPointSet(aligned_window(system), reds, blues, seed=0)
        m, diag, state = run_hierarchical(ps, seed=0, N=2, system=system)
        assert diag["levels"][2]["bad_count"] == 0
        assert len(m.unmatched_reds) + len(m.unmatched_blues) == 1

    def test_unmatch_events_bounded_by_covering_heirs(self):
        system, ps, (m, diag, state) = hierarchical_case(seed=17)
        for color, pts, events in (("red", ps.reds, state.red_unmatch_events),
                                   ("blue", ps.blues, state.blue_unmatch_events)):
            for idx in range(len(pts)):
                x, y = pts[idx]
                heirs = 0
                for n in range(2, 5):
                    block = block_holding(system, n, x, y)
                    if heir_of(system, block).rect.contains((x, y)):
                        heirs += 1
                assert events[idx] <= heirs

    def test_misaligned_window_rejected(self):
        system = build_block_system(seed=1, N=4)
        rect = block_at(system, 4, 0, 0).rect
        from poisson_matching.geometry import Domain
        bad_dom = Domain.plane(rect.x0 + 1, rect.x1 + 1, rect.y0, rect.y1)
        ps = sample(SampleConfig(1, 1, bad_dom, seed=1))
        with pytest.raises(ValueError):
            init_state(ps, system)

    def test_stage_order_enforced(self):
        system = build_block_system(seed=2, N=4)
        ps = sample(SampleConfig(1, 1, aligned_window(system), seed=2))
        state = init_state(ps, system)
        with pytest.raises(ValueError):
            run_stage(state, 2)  # stage 1 must run first
        stage1(state)
        with pytest.raises(ValueError, match="stage 1 must run first"):
            stage1(state)  # and only once


class TestBadBlocks:
    def test_handcrafted_bad_block(self):
        # level-2 block [0,2)x[0,1): non-heir square holds an unmatchable red
        system = zero_offset_system(2)
        ps = ColoredPointSet(aligned_window(system),
                             reds=[[1.5, 0.5]], blues=[], seed=0)
        state = init_state(ps, system)
        stage1(state)
        run_stage(state, 2)
        assert state.levels[2].bad.tolist() == [True]

    def test_absorbable_excess_is_ok(self):
        # same excess red, but the heir has a blue to absorb it
        system = zero_offset_system(2)
        ps = ColoredPointSet(aligned_window(system),
                             reds=[[1.5, 0.5]], blues=[[0.5, 0.5]], seed=0)
        state = init_state(ps, system)
        stage1(state)
        run_stage(state, 2)
        assert state.levels[2].bad.tolist() == [False]
        assert state.levels[2].unmatched.tolist() == [0]

    def test_dodgy_means_bad_child(self):
        for seed in range(6):
            system, ps, (_, _, state) = hierarchical_case(seed)
            bad_keys = {(n, ix, iy) for n, lv in state.levels.items()
                        for ix, iy in lv.cells[lv.bad].tolist()}
            for n in (3, 4):
                lv = state.levels[n]
                for (ix, iy), dodgy in zip(lv.cells.tolist(), lv.dodgy.tolist()):
                    block = block_at(system, n, ix, iy)
                    has_bad_child = any(c.key in bad_keys
                                        for c in children(system, block))
                    assert dodgy == has_bad_child

    def test_bad_frequency_within_analytic_bound(self):
        # the desk-scale bound is weak (close to 2) so this is a sanity check
        system = build_block_system(0, 4)
        bound = bad_block_bound(system, 4)
        hits = 0
        trials = 20
        for seed in range(trials):
            _, _, (_, diag, _) = hierarchical_case(seed)
            hits += diag["levels"][4]["bad_count"] > 0
        assert hits / trials <= bound

    @pytest.mark.parametrize("n", [1, 2, 5, 6],
                             ids=["level_1", "level_2", "above_N", "far_above_N"])
    def test_bound_rejects_levels_out_of_range(self, n):
        # n = 2 read a[-1] = N! and returned 0.0 against an observed level-2
        # rate of about 0.37; n = 1 overflowed, and n > N ran off the table
        with pytest.raises(ValueError):
            bad_block_bound(build_block_system(0, 4), n)

    def test_bound_defined_from_level_3_to_N(self):
        system = build_block_system(0, 4)
        for n in (3, 4):
            assert 0.0 < bad_block_bound(system, n) <= 2.0

    def test_bound_pinned(self):
        # recorded when the bound had an exponential of its own; it is now
        # twice chernoff_bound, with the same floats
        system = build_block_system(0, 6)
        assert [bad_block_bound(system, n) for n in range(3, 7)] == [
            1.966942907643235, 1.9899244546123305, 1.9825328626057548, 1.9189302517383269]


def test_run_hierarchical_diagnostics_shape():
    _, _, (m, diag, state) = hierarchical_case(seed=23)
    assert set(diag["levels"]) == {1, 2, 3, 4}
    for n in diag["levels"]:
        for key in ("blocks", "bad_count", "dodgy_count", "unmatched"):
            assert key in diag["levels"][n]
    # counted from the partner arrays; the matching's own lists agree
    assert diag["unmatched_red"] == len(m.unmatched_reds)
    assert diag["unmatched_blue"] == len(m.unmatched_blues)
    assert type(diag["unmatched_red"]) is int and type(diag["unmatched_blue"]) is int


def block_rows(state, n):
    """Level n's blocks after stage n, read from its columns, each as the
    per-block oracle gives it: (key, n_red, n_blue, unmatched, bad, dodgy,
    new_edges, unmatched_in_heir, new_edges_in_heirs), the two heir flags
    None at level 1."""
    lv = state.levels[n]
    blocks = len(lv.cells)
    keys = [(n, ix, iy) for ix, iy in lv.cells.tolist()]
    counts = [np.bincount(t.row[t.row >= 0], minlength=blocks).tolist() for t in (lv.red, lv.blue)]
    pairs, start = list(map(tuple, lv.new_edges.tolist())), lv.new_start.tolist()
    new_edges = [pairs[s0:s1] for s0, s1 in zip(start, start[1:])]
    flags = [[None] * blocks if col is None else col.tolist()
             for col in (lv.unmatched_in_heir, lv.new_edges_in_heirs)]
    return list(zip(keys, *counts, lv.unmatched.tolist(), lv.bad.tolist(), lv.dodgy.tolist(),
                    new_edges, *flags))


def records_digest(state):
    """SHA-256 over every block's nine columns (``block_rows``) and both
    unmatch-event counters."""
    payload = {
        "records": [block_rows(state, n) for n in range(1, state.stage + 1)],
        "red_unmatch_events": state.red_unmatch_events.tolist(),
        "blue_unmatch_events": state.blue_unmatch_events.tolist(),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


# Every block column and event count, so that a change in which points a block
# holds shows here even where the matching and the per-level sums stay the same.
RECORD_DIGESTS = {
    (0, 4): "146295641342d3336f55c57ae843644586b3413fa243315d9147038b1c36e33d",
    (1, 4): "2889eec7717e897b23cd530f0794b2f74780b375ef10450cc1f03c04ed498344",
    (2, 4): "c9b2a2bb66e70b2ebccc7b1333cd4ed1947346a108a27baa341981cb08619dea",
    (0, 5): "711a96fd6e3dfb4d14bd43b971d99bc8bef45386b37679085b49ad4d41d3d37b",
}


@pytest.mark.parametrize("seed,N", sorted(RECORD_DIGESTS))
def test_block_records_pinned(seed, N):
    _, _, (_, _, state) = hierarchical_case(seed, N)
    assert records_digest(state) == RECORD_DIGESTS[seed, N]


def check_against_rect_scan(system, ps):
    """Run the stages one at a time and recompute each new level's block
    counts and heir flags by plain ``Rect.contains`` scans over the block and
    heir rectangles. Returns the number of blocks checked."""
    state = init_state(ps, system)
    stage1(state)
    checked = 0
    for n in range(1, system.N + 1):
        if n > 1:
            run_stage(state, n)
        for key, n_red, n_blue, n_unmatched, _, _, new_edges, in_heir, confined \
                in block_rows(state, n):
            block = block_at(system, *key)
            reds = [i for i, p in enumerate(ps.reds) if block.rect.contains(p)]
            blues = [j for j, p in enumerate(ps.blues) if block.rect.contains(p)]
            assert (n_red, n_blue) == (len(reds), len(blues)), key
            unmatched = ([ps.reds[i] for i in reds if state.red_partner[i] < 0]
                         + [ps.blues[j] for j in blues if state.blue_partner[j] < 0])
            assert n_unmatched == len(unmatched), key
            checked += 1
            if n == 1:
                continue
            heir = heir_of(system, block).rect
            heirs = [heir] + [heir_of(system, c).rect for c in children(system, block)
                              if c.level >= 2]
            assert in_heir == all(heir.contains(p) for p in unmatched), key
            ends = [p for i, j in new_edges for p in (ps.reds[i], ps.blues[j])]
            assert confined == all(any(h.contains(p) for h in heirs) for p in ends), key
    return checked


def lattice_case(system, seed):
    """Points at integer coordinates, so every one lies on block edges: the
    window's lattice points including its lower-left corner (always red), its
    far edges (outside the window) and one row and column just outside."""
    w = aligned_window(system).window_rect()
    rng = np.random.default_rng(seed)
    reds, blues = [], []
    for x in range(int(w.x0) - 1, int(w.x1) + 1):
        for y in range(int(w.y0) - 1, int(w.y1) + 1):
            u = 0.0 if (x, y) == (w.x0, w.y0) else rng.random()
            if u < 0.45:
                reds.append([x, y])
            elif u < 0.9:
                blues.append([x, y])
    return ColoredPointSet(aligned_window(system), reds, blues, seed=seed)


class TestMembershipOnBlockEdges:
    @pytest.mark.parametrize("system", [zero_offset_system(4), build_block_system(0, 4)],
                             ids=["zero_offsets", "seeded_offsets"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lattice_points_half_open(self, system, seed):
        ps = lattice_case(system, seed)
        w = ps.domain.window_rect()
        assert any(w.contains(p) for p in ps.reds) and any(w.contains(p) for p in ps.blues)
        assert not all(w.contains(p) for p in np.concatenate([ps.reds, ps.blues]))
        assert check_against_rect_scan(system, ps) == 144 + 72 + 12 + 1

    @pytest.mark.parametrize("N,seed", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)])
    def test_random_windows(self, N, seed):
        system = build_block_system(seed, N)
        ps = sample(SampleConfig(1.0, 1.0, aligned_window(system), seed))
        assert check_against_rect_scan(system, ps) > 0


def exact_bad_rate(system, n):
    """P(a level-n block is bad) from counts alone: after stage n-1 the points
    left unmatched in A \\ B are its color excess X - X', and the rematch step
    absorbs it iff the heir-of-heir C (C = B at n = 2) holds at least that many
    points of the other color; so P(bad) = 2 P(X - X' > Y) with X, X' Poisson
    of area(A \\ B) and Y Poisson of area(C)."""
    a = system.a
    area_a, area_b = a[n] * a[n - 1], a[n - 1] * a[n - 2]
    area_c = area_b if n == 2 else a[n - 2] * a[n - 3]
    mu = area_a - area_b
    y = np.arange(int(poisson.isf(1e-15, area_c)) + 1)
    return 2.0 * float(np.sum(poisson.pmf(y, area_c) * skellam.sf(y, mu, mu)))


class TestExactBadRate:
    def test_exact_values(self):
        system = zero_offset_system(4)
        assert exact_bad_rate(system, 2) == pytest.approx(0.3652, abs=1e-4)
        assert exact_bad_rate(system, 3) == pytest.approx(0.7427, abs=1e-4)

    def test_observed_rates_match_exact(self):
        # at level 4, unlike bad_block_bound (about 1.99 there), the exact
        # rate (0.878) can fail
        bad = {2: 0, 3: 0, 4: 0}
        blocks = {2: 0, 3: 0, 4: 0}
        for seed in range(40):
            system, _, (_, _, state) = hierarchical_case(seed)
            for n in bad:
                bad[n] += int(np.count_nonzero(state.levels[n].bad))
                blocks[n] += len(state.levels[n].bad)
        assert blocks == {2: 2880, 3: 480, 4: 40}
        for n in bad:
            p = exact_bad_rate(system, n)
            sigma = math.sqrt(p * (1 - p) / blocks[n])
            assert abs(bad[n] / blocks[n] - p) <= 4 * sigma, (n, bad[n], blocks[n])


# --- Per-block oracle ------------------------------------------------------
# The stages as they ran before the level tables: one block at a time, in
# children order, from dict buckets of each block's points, each block's
# problem solved by ``oracles.min_cost_pairs``, each block's record a tuple
# of ``block_rows``' nine columns. The oracle for the table-driven stages,
# which must give every block column, partner and unmatch-event count
# exactly on untied windows.

@dataclasses.dataclass
class OracleState:
    ps: ColoredPointSet
    system: BlockSystem
    red_partner: np.ndarray
    blue_partner: np.ndarray
    red_unmatch_events: np.ndarray
    blue_unmatch_events: np.ndarray
    levels: dict
    stage: int = 0
    status: dict = dataclasses.field(default_factory=dict)
    rows: list = dataclasses.field(default_factory=list)  # per stage, its blocks' tuples


def _bucket(pts, system, n):
    cell = np.floor(pts).astype(np.int64) - system.offsets(n)
    block = cell // system.dims(n)
    order = np.lexsort(block.T[::-1])  # stable, so each block's indices ascend
    keys, counts = np.unique(block[order], axis=0, return_counts=True)
    members = dict(zip(map(tuple, keys.tolist()), np.split(order, np.cumsum(counts)[:-1])))
    along = cell[:, n % 2]
    in_heir = along % system.a[n] < system.a[n - 2] if n >= 2 else np.zeros(len(pts), bool)
    return members, in_heir


def oracle_init_state(ps, system):
    return OracleState(
        ps=ps, system=system,
        red_partner=np.full(ps.n_red, -1, dtype=int),
        blue_partner=np.full(ps.n_blue, -1, dtype=int),
        red_unmatch_events=np.zeros(ps.n_red, dtype=int),
        blue_unmatch_events=np.zeros(ps.n_blue, dtype=int),
        levels={n: (_bucket(ps.reds, system, n), _bucket(ps.blues, system, n))
                for n in range(1, system.N + 1)},
    )


def _link(state, ridx, bidx, pairs):
    new = []
    for i, j in pairs:
        ri, bj = int(ridx[i]), int(bidx[j])
        state.red_partner[ri] = bj
        state.blue_partner[bj] = ri
        new.append((ri, bj))
    return sorted(new)


def _match_max_cardinality(state, ridx, bidx):
    if len(ridx) == 0 or len(bidx) == 0:  # true in most unit squares: skip set-up
        return []
    return _link(state, ridx, bidx, min_cost_pairs(state.ps.reds[ridx], state.ps.blues[bidx]))


def _window_block(ps, system):
    window = ps.domain.window_rect()
    return block_holding(system, system.N, window.x0, window.y0)


_NO_POINTS = np.empty(0, dtype=np.int64)


def _members(state, block):
    return tuple(members.get((block.ix, block.iy), _NO_POINTS)
                 for members, _ in state.levels[block.level])


def _blocks_at_level(system, top, n):
    blocks = [top]
    for _ in range(top.level, n, -1):
        blocks = [c for b in blocks for c in children(system, b)]
    return blocks


def oracle_stage1(state):
    rows = []
    top = _window_block(state.ps, state.system)
    for block in _blocks_at_level(state.system, top, 1):
        ridx, bidx = _members(state, block)
        new = _match_max_cardinality(state, ridx, bidx)
        state.status[block.key] = "ok"
        rows.append((block.key, len(ridx), len(bidx), len(ridx) + len(bidx) - 2 * len(new),
                     False, False, new, None, None))
    state.stage = 1
    state.rows.append(rows)
    return state


def classify_dodgy(state, block):
    if block.level < 2:
        return False
    return any(state.status.get(c.key) == "bad" for c in children(state.system, block))


def _saturating_match(state, r1, b1, r2, b2):
    ridx, bidx = np.concatenate([r1, r2]).astype(int), np.concatenate([b1, b2]).astype(int)
    pairs = min_cost_pairs(state.ps.reds[ridx], state.ps.blues[bidx], (len(r1), len(b1)))
    return _link(state, ridx, bidx, pairs)


def stage_n(state, block):
    n = block.level
    (_, r_heir), (_, b_heir) = state.levels[n]
    (_, r_below), (_, b_below) = state.levels[n - 1]
    ridx, bidx = _members(state, block)
    r_in_B, b_in_B = r_heir[ridx], b_heir[bidx]
    # C is the heir's heir, or the heir B itself at n = 2
    r_in_C = r_in_B & r_below[ridx] if n > 2 else r_in_B
    b_in_C = b_in_B & b_below[bidx] if n > 2 else b_in_B

    # (i) unmatch all points in the heir
    heir_reds = ridx[r_in_B & (state.red_partner[ridx] >= 0)]
    partners = state.red_partner[heir_reds]
    state.red_partner[heir_reds] = -1
    state.blue_partner[partners] = -1
    state.red_unmatch_events[heir_reds] += 1
    state.blue_unmatch_events[partners] += 1

    # (ii) match everything unmatched in A \ B into (A \ B) u C
    r1 = ridx[(state.red_partner[ridx] < 0) & ~r_in_B]
    b1 = bidx[(state.blue_partner[bidx] < 0) & ~b_in_B]
    r2, b2 = ridx[r_in_C], bidx[b_in_C]
    excess = len(r1) - len(b1)
    feasible = excess <= len(b2) if excess >= 0 else -excess <= len(r2)
    state.status[block.key] = "ok" if feasible else "bad"
    new_edges = _saturating_match(state, r1, b1, r2, b2) if feasible else []

    # (iii) match as many of the remaining unmatched points in A as possible
    un_r, un_b = state.red_partner[ridx] < 0, state.blue_partner[bidx] < 0
    new_edges.extend(_match_max_cardinality(state, ridx[un_r], bidx[un_b]))

    # bookkeeping for verification: a new edge's ends lie in B or in the heir
    # of their own child of A (none at n = 2, whose children are level 1)
    un_r, un_b = state.red_partner[ridx] < 0, state.blue_partner[bidx] < 0
    ri, bj = np.array(new_edges, dtype=int).reshape(-1, 2).T
    confined = (r_heir[ri] | r_below[ri]).all() and (b_heir[bj] | b_below[bj]).all()
    return (block.key, len(ridx), len(bidx), int(un_r.sum() + un_b.sum()), not feasible,
            classify_dodgy(state, block), sorted(new_edges),
            bool(r_in_B[un_r].all() and b_in_B[un_b].all()), bool(confined))


def oracle_run_stage(state, n):
    top = _window_block(state.ps, state.system)
    rows = [stage_n(state, block) for block in _blocks_at_level(state.system, top, n)]
    state.stage = n
    state.rows.append(rows)
    return state


# a block's count columns: key, n_red, n_blue, unmatched, bad and dodgy,
# which the blocks' counts decide, whichever least matching a stage takes
COUNT_COLUMNS = 6


def compare_with_oracle(system, ps, tied=False):
    """Run the table-driven stages and the per-block oracle side by side and
    require identical block columns (``block_rows``), partners and
    unmatch-event counts after every stage. On ``tied`` points (lattice
    windows, where least matchings tie) only the count columns are
    compared. Returns the oracle's (bad, dodgy) block counts."""
    state, oracle = init_state(ps, system), oracle_init_state(ps, system)
    width = COUNT_COLUMNS if tied else None
    for n in range(1, system.N + 1):
        if n == 1:
            stage1(state)
            oracle_stage1(oracle)
        else:
            run_stage(state, n)
            oracle_run_stage(oracle, n)
        got = [row[:width] for row in block_rows(state, n)]
        want = [row[:width] for row in oracle.rows[n - 1]]
        assert got == want, n
        for name in () if tied else ("red_partner", "blue_partner",
                                     "red_unmatch_events", "blue_unmatch_events"):
            assert (getattr(state, name) == getattr(oracle, name)).all(), (n, name)
    rows = [row for level in oracle.rows for row in level]
    return sum(row[4] for row in rows), sum(row[5] for row in rows)  # bad, dodgy


class TestAgainstPerBlockOracle:
    def test_seeded_windows(self):
        bad = dodgy = 0
        for N, seeds in ((2, range(4)), (3, range(4)), (4, range(4)), (5, range(2))):
            for seed in seeds:
                system = build_block_system(seed, N)
                ps = sample(SampleConfig(1.0, 1.0, aligned_window(system), seed))
                b, d = compare_with_oracle(system, ps)
                bad, dodgy = bad + b, dodgy + d
        assert bad > 0 and dodgy > 0, (bad, dodgy)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_offset_system(self, seed):
        system = zero_offset_system(4)
        ps = sample(SampleConfig(1.0, 1.0, aligned_window(system), seed))
        bad, dodgy = compare_with_oracle(system, ps)
        assert bad > 0 and dodgy > 0

    @pytest.mark.parametrize("system", [zero_offset_system(4), build_block_system(0, 4)],
                             ids=["zero_offsets", "seeded_offsets"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lattice_points_on_block_edges(self, system, seed):
        compare_with_oracle(system, lattice_case(system, seed), tied=True)

    @pytest.mark.parametrize("blues,bad", [([], True), ([[0.5, 0.5]], False)],
                             ids=["bad", "absorbable"])
    def test_handcrafted_blocks(self, blues, bad):
        system = zero_offset_system(2)
        ps = ColoredPointSet(aligned_window(system), reds=[[1.5, 0.5]], blues=blues, seed=0)
        assert compare_with_oracle(system, ps) == (int(bad), 0)


def test_hierarchy_solves_saturating_only_with_mandatory_points(monkeypatch):
    sizes = []

    def recording(kind, reds, red_start, blues, blue_start, *must):
        if kind == SATURATING:
            sizes.extend(zip(*(np.asarray(m).tolist() for m in must)))
        return assign_in_groups(kind, reds, red_start, blues, blue_start, *must)

    monkeypatch.setattr(hierarchy, "assign_in_groups", recording)
    for seed in range(3):
        hierarchical_case(seed)
    assert sizes and all(nr + nb > 0 for nr, nb in sizes)


def _record_small_solves(monkeypatch):
    """Watch the assignment layer while the hierarchy runs. Returns two
    lists: per problem that reaches the assignment kernel
    (``assignment._assign``), (solver name, points on the small side), where
    the small side of a saturating problem is its mandatory points when they
    are all of one color and None otherwise; and per problem the
    small-problem pass settles, recorded at its batches
    (``assignment._settle_batch``), (points on the small side, whether that
    problem is tied). A saturating problem is known by its padded matrix
    (``assignment._pad``)."""
    calls, settled, padded = [], [], []
    kernel, pad, settle = assignment._assign, assignment._pad, assignment._settle_batch

    def padding(cost, reds, blues, must_r, must_b, sc):
        pad(cost, reds, blues, must_r, must_b, sc)
        padded.append((cost, must_r, must_b))

    def solving(cost):
        if padded and padded[-1][0] is cost:
            _, mr, mb = padded.pop()
            calls.append(("saturating", None if mr and mb else mr or mb))
        else:
            calls.append(("pairs", len(cost)))
        return kernel(cost)

    def settling(pts, small, small_start, large, large_start, groups, n_reds, partner):
        settle(pts, small, small_start, large, large_start, groups, n_reds, partner)
        for g in groups.tolist():
            S = pts[small[small_start[g]:small_start[g + 1]]]
            L = pts[large[large_start[g]:large_start[g + 1]]]
            settled.append((len(S), tied(S, L)))

    monkeypatch.setattr(assignment, "_assign", solving)
    monkeypatch.setattr(assignment, "_pad", padding)
    monkeypatch.setattr(assignment, "_settle_batch", settling)
    return calls, settled


def test_one_point_blocks_are_settled_by_the_pass(monkeypatch):
    # the grouped pass settles one-point blocks at their least total, tied
    # or not, so none reaches the kernel; the solvers still get every block
    # with a larger assignment problem
    calls, settled = _record_small_solves(monkeypatch)
    for seed in range(4):
        hierarchical_case(seed)
    assert 1 in {size for size, _ in settled}
    assert all(size != 1 for _, size in calls), calls
    assert {name for name, size in calls
            if size is None or size > SMALL_MAX} == {"pairs", "saturating"}


def test_small_blocks_are_settled_by_the_pass(monkeypatch):
    # two and three points on the small side, in both steps: the grouped
    # pass settles them too, and no block of up to SMALL_MAX points reaches
    # the kernel
    calls, settled = _record_small_solves(monkeypatch)
    for seed in range(4):
        hierarchical_case(seed)
    assert {size for size, _ in settled} == set(range(1, SMALL_MAX + 1))
    assert all(size is None or size > SMALL_MAX for _, size in calls), calls


@pytest.mark.parametrize("system", [zero_offset_system(4), build_block_system(0, 4)],
                         ids=["zero_offsets", "seeded_offsets"])
@pytest.mark.parametrize("seed", [1, 2])  # lattice seeds with tied one-point blocks
def test_tied_one_point_blocks_are_settled_by_the_pass(monkeypatch, system, seed):
    # a tied one-point block is settled by the pass, not the kernel, and
    # every stage still gives the per-block oracle's count columns
    calls, settled = _record_small_solves(monkeypatch)
    compare_with_oracle(system, lattice_case(system, seed), tied=True)
    assert (1, True) in settled
    assert all(size != 1 for _, size in calls), calls


@pytest.mark.parametrize("system", [zero_offset_system(4), build_block_system(0, 4)],
                         ids=["zero_offsets", "seeded_offsets"])
def test_tied_small_blocks_are_settled_by_the_pass(monkeypatch, system):
    # lattice points make tied totals in blocks of one, two and three
    # points; the pass settles them, they reach no kernel, and every stage
    # still gives the per-block oracle's count columns
    calls, settled = _record_small_solves(monkeypatch)
    for seed in (2, 7):  # between them, tied blocks of one, two and three points
        compare_with_oracle(system, lattice_case(system, seed), tied=True)
    assert {size for size, tied in settled if tied} == set(range(1, SMALL_MAX + 1))
    assert all(size is None or size > SMALL_MAX for _, size in calls), calls


# --- The grouped exact solves against the oracle's one-problem solves -------
# assign_in_groups must give every untied problem the oracle's partners, and
# a tied one a least matching.

def _batch(rng, sizes, lattice):
    """Groups of the given (reds, blues) sizes laid end to end: points of the
    4x4 integer lattice where ``lattice[g]`` holds, where tied totals are
    common, and uniform reals elsewhere. Returns (reds, red_start, blues,
    blue_start)."""
    reds, blues = [], []
    for (nr, nb), lat in zip(sizes, lattice):
        for n, out in ((nr, reds), (nb, blues)):
            out.append(rng.integers(0, 4, (n, 2)).astype(float) if lat
                       else rng.uniform(0, 4, (n, 2)))
    nr, nb = np.array(sizes, dtype=np.int64).reshape(-1, 2).T
    return (np.concatenate(reds), np.concatenate([[0], np.cumsum(nr)]),
            np.concatenate(blues), np.concatenate([[0], np.cumsum(nb)]))


def _must(rng, red_start, blue_start):
    """Mandatory counts of a feasible saturating problem for every group,
    some with none, some with points of one color, some of both."""
    nr, nb = np.diff(red_start), np.diff(blue_start)
    mr = rng.integers(0, np.minimum(nr, nb) + 1)
    mb = np.where(rng.random(len(nr)) < 0.5, 0, rng.integers(0, np.minimum(nb, nr - mr) + 1))
    return mr, mb


def _small_problems(kind, reds, red_start, blues, blue_start, must=()):
    """The problems the small-problem pass may settle, ascending, and per
    problem its small side's points and the other side's: a rectangular
    problem's smaller side (its reds where the sides are equal) against the
    other, or a saturating problem's mandatory points, all of one color,
    against every point of the other color."""
    problems, small, large = [], [], []
    for g in range(len(red_start) - 1):
        r, b = reds[red_start[g]:red_start[g + 1]], blues[blue_start[g]:blue_start[g + 1]]
        if kind == RECTANGULAR:
            sides = (r, b) if len(r) <= len(b) else (b, r)
        elif kind == SATURATING and not (must[0][g] and must[1][g]):
            mr, mb = must[0][g], must[1][g]
            sides = (r[:mr], b) if mr else (b[:mb], r)
        else:
            continue
        if 0 < len(sides[0]) <= SMALL_MAX:
            problems.append(g)
            small.append(sides[0])
            large.append(sides[1])
    return problems, small, large


def _check_grouped(monkeypatch, kind, reds, red_start, blues, blue_start, must=()):
    """Partners of assign_in_groups against the oracle's one-problem solves:
    the same for every problem that is not tied, and a least matching for a
    tied one (``cases.check_solve``). The pass, recorded at its batches
    (``assignment._settle_batch``), must be offered exactly the small
    problems, in one pass: one set of point lists, its batches taking the
    problems in order. Every other problem with
    a pair to make reaches the kernel, with its cost matrix in the solver's
    row order (``assignment._scattered``): the smaller side's rows, the reds
    where the sides are equal, or the padded matrix, BIG in its forbidden
    cells. Returns the kernel inputs, the problems the pass settled (all it
    was offered), and the tied problems."""
    batches, settle, inputs, solve = [], assignment._settle_batch, [], assignment._assign

    def settling(pts, small, small_start, large, large_start, groups, n_reds, partner):
        settle(pts, small, small_start, large, large_start, groups, n_reds, partner)
        batches.append((pts[small], small_start, pts[large], large_start, groups))

    monkeypatch.setattr(assignment, "_assign", lambda cost: inputs.append(np.array(cost))
                        or solve(cost))
    monkeypatch.setattr(assignment, "_settle_batch", settling)
    got = assign_in_groups(kind, reds, red_start, blues, blue_start, *must)
    monkeypatch.undo()
    settled, small, large = _small_problems(kind, reds, red_start, blues, blue_start, must)
    assert bool(batches) == (len(settled) > 0)
    if batches:
        small_pts, small_start, large_pts, large_start, _ = batches[0]
        assert all(b[1] is small_start for b in batches)  # one pass
        assert np.concatenate([b[4] for b in batches]).tolist() == list(range(len(settled)))
        assert np.array_equal(small_pts, np.concatenate(small))
        assert np.array_equal(large_pts, np.concatenate(large))
        assert np.diff(small_start).tolist() == [len(x) for x in small]
        assert np.diff(large_start).tolist() == [len(x) for x in large]
    tied_problems, want_inputs = [], []
    for g in range(len(red_start) - 1):
        a, a1, b0 = red_start[g], red_start[g + 1], blue_start[g]
        r, b = reds[a:a1], blues[b0:blue_start[g + 1]]
        m = (int(must[0][g]), int(must[1][g])) if kind == SATURATING else None  # as oracles take it
        pairs = [(i, j - b0) for i, j in enumerate(got[a:a1].tolist()) if j >= 0]
        if check_solve(r, b, pairs, m):
            tied_problems.append(g)
        if (sum(m) if m else len(r) * len(b)) and g not in settled:  # a pair for the kernel
            cost = cost_matrix(r, b, m) if m or len(r) <= len(b) else cost_matrix(b, r)
            want_inputs.append(np.where(np.isinf(cost), BIG, cost)[assignment._scattered(len(cost))])
    assert len(inputs) == len(want_inputs)
    for a, b in zip(inputs, want_inputs):
        assert a.shape == b.shape and np.array_equal(a, b)
    return inputs, settled, tied_problems


def _sizes(rng, groups, square=False, largest=12):
    """(reds, blues) sizes of ``groups`` problems; ``square`` ones have equal
    sides, of at least one point."""
    nr = rng.integers(1 if square else 0, largest + 1, groups)
    nb = nr if square else rng.integers(0, largest + 1, groups)
    return list(zip(nr.tolist(), nb.tolist()))


class TestAssignInGroups:
    # square problems (equal sides, as zero blocks and box-rematch cells are)
    # are rectangular ones: the small-problem pass is offered them too
    @pytest.mark.parametrize("shape", ["square", "rectangular", "saturating"])
    @pytest.mark.parametrize("points", ["random", "lattice", "mixed"])
    def test_batches(self, monkeypatch, shape, points):
        shapes = ["square", "rectangular", "saturating"]
        rng = derived_rng(151, shapes.index(shape), len(points))
        kind = SATURATING if shape == "saturating" else RECTANGULAR
        sizes = _sizes(rng, 80, square=shape == "square")
        lattice = {"random": [False] * 80, "lattice": [True] * 80,
                   "mixed": (rng.random(80) < 0.5).tolist()}[points]
        reds, rs, blues, bs = _batch(rng, sizes, lattice)
        must = _must(rng, rs, bs) if kind == SATURATING else ()
        inputs, settled, tied = _check_grouped(monkeypatch, kind, reds, rs, blues, bs, must)
        assert len(inputs) + len(settled) > 40
        # the pass settles every small problem, the lattice's tied ones too
        assert len(settled) > 10
        assert bool(tied) == (points != "random")

    def test_tied_group_between_untied_ones(self, monkeypatch):
        # the middle group's two matchings both have length 2: the
        # small-problem pass settles it with one of them, as on its own, and
        # the groups around it reach the kernel and are solved as on their own
        rng = derived_rng(157)
        tied_reds, tied_blues = [[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]
        reds = np.concatenate([rng.uniform(0, 4, (9, 2)), tied_reds, rng.uniform(0, 4, (7, 2))])
        blues = np.concatenate([rng.uniform(0, 4, (9, 2)), tied_blues, rng.uniform(0, 4, (7, 2))])
        start = np.array([0, 9, 11, 18])
        inputs, settled, tied = _check_grouped(monkeypatch, RECTANGULAR, reds, start, blues,
                                               start)
        assert settled == tied == [1] and [c.shape for c in inputs] == [(9, 9), (7, 7)]
        got = assign_in_groups(RECTANGULAR, reds, start, blues, start)
        assert sorted(got[9:11].tolist()) == [9, 10]
        tied = min_cost_perfect(tied_reds, tied_blues)
        assert tied.edges == [(i, j - 9) for i, j in enumerate(got[9:11].tolist())]
        assert tied.total_length == 2.0

    def test_groups_with_an_empty_side(self, monkeypatch):
        rng = derived_rng(163)
        sizes = [(3, 0), (4, 5), (0, 2), (0, 0), (2, 2)]
        reds, rs, blues, bs = _batch(rng, sizes, [False] * 5)
        # the two-point problem is the pass's, the other reaches the kernel
        inputs, settled, _ = _check_grouped(monkeypatch, RECTANGULAR, reds, rs, blues, bs)
        assert len(inputs) == 1 and settled == [4]
        # square problems with no points have no pairs and reach no kernel;
        # the three-point one is the pass's
        square = [(0, 0), (3, 3), (0, 0)]
        reds, rs, blues, bs = _batch(rng, square, [False] * 3)
        inputs, settled, _ = _check_grouped(monkeypatch, RECTANGULAR, reds, rs, blues, bs)
        assert inputs == [] and settled == [1]
        # saturating problems with no mandatory point: no pairs and no kernel call
        reds, rs, blues, bs = _batch(rng, sizes, [False] * 5)
        must = (np.array([0, 2, 0, 0, 0]), np.array([0, 1, 0, 0, 0]))
        inputs, settled, _ = _check_grouped(monkeypatch, SATURATING, reds, rs, blues, bs, must)
        assert len(inputs) == 1 and settled == []
        got = assign_in_groups(SATURATING, reds, rs, blues, bs, *must)
        assert (got[:3] == -1).all() and (got[7:] == -1).all()

    def test_mandatory_points_of_both_colors(self, monkeypatch):
        rng = derived_rng(167)
        for lattice in (False, True):
            sizes = _sizes(rng, 40)
            sizes = [(max(nr, 2), max(nb, 2)) for nr, nb in sizes]
            reds, rs, blues, bs = _batch(rng, sizes, [lattice] * 40)
            nr, nb = np.diff(rs), np.diff(bs)
            must = (rng.integers(1, np.minimum(nr, nb)), rng.integers(1, np.minimum(nr, nb)))
            assert ((must[0] > 0) & (must[1] > 0)).all()
            _check_grouped(monkeypatch, SATURATING, reds, rs, blues, bs, must)

    @pytest.mark.parametrize("spare", [1 << 16, 1], ids=["default", "tiny"])
    def test_group_larger_than_the_buffer(self, monkeypatch, spare):
        # every matrix of a call is a prefix of one reused buffer, so a
        # problem must write every entry it reads: the buffer starts as NaN,
        # large enough for every problem ("default") or grown by the call
        # ("tiny"), and the problems grow, shrink and switch sides, so each
        # finds the entries of a different shape before it
        rng = derived_rng(173)
        sizes = [(5, 7), (40, 25), (9, 4), (60, 90), (6, 6), (30, 12), (4, 5), (70, 66)]
        for kind in (RECTANGULAR, SATURATING):
            reds, rs, blues, bs = _batch(rng, sizes, (np.arange(8) % 3 == 0).tolist())
            must = _must(rng, rs, bs) if kind == SATURATING else ()
            monkeypatch.setattr(assignment, "_spare", [np.full(spare, np.nan)])
            # partners and kernel inputs against the oracle's one-problem solves
            inputs, *_ = _check_grouped(monkeypatch, kind, reds, rs, blues, bs, must)
            assert len(inputs) >= 6

    def test_one_spare_kept_up_to_the_cap(self, monkeypatch):
        rng = derived_rng(179)
        monkeypatch.setattr(assignment, "_spare", [])
        monkeypatch.setattr(assignment, "SPARE_ENTRIES", 30 * 30)
        kept = []
        for n in (5, 20, 12, 31, 8):
            reds, blues = rng.uniform(0, 9, (n, 2)), rng.uniform(0, 9, (n, 2))
            assign_in_groups(RECTANGULAR, reds, [0, n], blues, [0, n])
            assert len(assignment._spare) <= 1
            kept.append(assignment._spare[0] if assignment._spare else None)
        assert [None if k is None else len(k) for k in kept] == [25, 400, 400, None, 64]
        assert kept[2] is kept[1]  # the smaller problem reused the buffer

    def test_concurrent_calls_share_no_buffer(self, monkeypatch):
        # threads switching every microsecond between the spare's pop and
        # its return: each call's partners must be its own problems'
        rng = derived_rng(181)
        problems = [(rng.uniform(0, 9, (n, 2)), rng.uniform(0, 9, (n, 2)))
                    for n in (8, 30, 17, 45, 12, 26)]
        want = [assign_in_groups(RECTANGULAR, r, [0, len(r)], b, [0, len(b)])
                for r, b in problems]
        wrong = []

        def solve(k):
            for _ in range(15):
                r, b = problems[k]
                got = assign_in_groups(RECTANGULAR, r, [0, len(r)], b, [0, len(b)])
                if not np.array_equal(got, want[k]):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(problems))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []
        assert len(assignment._spare) <= 1

    def test_rejects_what_the_single_solves_reject(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="size mismatch: 2 reds vs 1 blues"):
            min_cost_perfect(pts[:2], pts[:1])
        with pytest.raises(ValueError, match="reserve pools too small"):
            assign_in_groups(SATURATING, pts, [0, 3], pts[:1], [0, 1], [2], [0])
        for must in ([[4], [0]], [[0], [4]]):  # more mandatory points than points
            with pytest.raises(ValueError, match="more mandatory points"):
                assign_in_groups(SATURATING, pts, [0, 3], pts, [0, 3], *must)
        with pytest.raises(ValueError, match="unknown kind"):
            assign_in_groups("triangular", pts, [0, 3], pts, [0, 3])
        with pytest.raises(ValueError, match="need as many groups of blues as of reds"):
            assign_in_groups(RECTANGULAR, pts, [0, 1, 3], pts, [0, 3])


# --- Windows and block systems ------------------------------------------------

@pytest.mark.parametrize("N", [3, 5])
def test_run_hierarchical_needs_the_systems_level(N):
    # a level-4 system: N=5 has no level-5 table, and N=3 would run three
    # stages on a window that is one level-4 block
    system = build_block_system(0, 4)
    ps = sample(SampleConfig(1.0, 1.0, aligned_window(system), 0))
    with pytest.raises(ValueError, match=f"N={N} but the block system has N=4"):
        run_hierarchical(ps, 0, N, system=system)


def test_run_hierarchical_builds_the_seeds_system():
    system = build_block_system(3, 3)
    ps = sample(SampleConfig(1.0, 1.0, aligned_window(system), 3))
    assert run_hierarchical(ps, 3, 3)[1] == run_hierarchical(ps, 3, 3, system=system)[1]


def with_points_around(ps, system):
    """``ps`` plus five points of each color just outside the aligned
    window, on all four sides and at a corner: on the far edges, which a
    half-open window leaves out, or half a unit beyond them, and a hair or
    half a unit below the near edges."""
    w = aligned_window(system).window_rect()
    xm, ym = (w.x0 + w.x1) / 2 + 0.25, (w.y0 + w.y1) / 2 + 0.25
    around = [[w.x0 - 1e-9, ym], [w.x0 - 0.5, w.y0 + 0.5], [w.x1, ym], [w.x1 + 0.5, w.y1 - 0.5],
              [xm, w.y0 - 1e-9], [w.x0 + 0.5, w.y0 - 0.5], [xm, w.y1], [w.x1 - 0.5, w.y1 + 0.5],
              [w.x0 - 0.5, w.y0 - 0.5], [w.x1, w.y1]]
    return ColoredPointSet(ps.domain, np.concatenate([ps.reds, around[::2]]),
                           np.concatenate([ps.blues, around[1::2]]), seed=ps.seed)


def color_table_cases():
    """Per N = 4 and 6, its system and a sparse window with points around it."""
    for N in (4, 6):
        system = build_block_system(7, N)
        yield system, with_points_around(sample(SampleConfig(0.05, 0.05, aligned_window(system), 7)),
                                         system)


def select_oracle(table, masks):
    """``ColorTable.select`` by ``np.lexsort``: the window's points in the
    disjoint ``masks`` by (block row, mask, index), and each mask's
    per-block counts."""
    row, part = table.row, np.full(len(table.row), -1)
    for p, mask in enumerate(masks):
        part[mask] = p
    idx = np.flatnonzero((part >= 0) & (row >= 0))
    counts = [np.bincount(row[mask & (row >= 0)], minlength=table.blocks) for mask in masks]
    return idx[np.lexsort((idx, part[idx], row[idx]))], counts


def same_selection(table, masks):
    """``table.select(*masks)`` is the oracle's; returns its indices."""
    idx, *counts = table.select(*masks)
    want, want_counts = select_oracle(table, masks)
    assert np.array_equal(idx, want)
    assert len(counts) == len(masks)
    for count, want_count, mask in zip(counts, want_counts, masks):
        assert np.array_equal(count, want_count)
        assert np.array_equal(table.count(mask), count)
    return idx


def test_color_tables_sort_rows_of_either_width(monkeypatch):
    # level 1 at N=6 has 86,400 blocks, too many for int16 keys; the other
    # levels, and every level at N=4, sort their keys as int16
    bounds = []
    monkeypatch.setattr(hierarchy, "_stable_order",
                        lambda key, bound: bounds.append(bound) or _stable_order(key, bound))
    for system, ps in color_table_cases():
        window = aligned_window(system).window_rect()
        state = init_state(ps, system)
        for n, lv in state.levels.items():
            for table, pts in ((lv.red, ps.reds), (lv.blue, ps.blues)):
                # the oracle: each point's block by its own coordinates
                w, h = system.dims(n)
                xo, yo = system.offsets(n)
                ij = np.floor((pts - [xo, yo]) / [w, h]).astype(np.int64)
                rows = {tuple(c): k for k, c in enumerate(lv.cells.tolist())}
                row = np.array([rows.get(tuple(c), -1) for c in ij.tolist()], dtype=np.int64)
                # the five points around the window read -1 at every level
                # and are never selected
                outside = ~window.contains(pts.T)
                assert np.count_nonzero(outside) == 5 and (table.row[outside] == -1).all()
                assert np.array_equal(table.row, row)
                assert table.blocks == len(lv.cells)
                assert not outside[same_selection(table, [np.ones(len(pts), bool)])].any()
    assert min(bounds) <= 2 ** 15 < max(bounds)


def test_color_table_counts_are_the_selections_sizes():
    # select(*masks) against the lexsort oracle, and count(mask) is the
    # per-block size of mask's part, on one and two random disjoint masks at
    # every level: the points around the window left out, and at N=6 level 1
    # (86,400 blocks, int64 keys) most blocks empty
    rng = np.random.default_rng(31)
    empty = False
    for system, ps in color_table_cases():
        for lv in init_state(ps, system).levels.values():
            for table in (lv.red, lv.blue):
                for p in (0.0, 0.3, 0.9, 1.0):
                    mask = rng.random(len(table.row)) < p
                    same_selection(table, [mask])
                    part = rng.integers(0, 3, len(table.row))
                    same_selection(table, [(part == 0) & mask, (part == 1) & mask])
                    empty |= (table.count(mask) == 0).any() and mask.any()
    assert empty


# --- The records -------------------------------------------------------------
# state.records[n - 1] is a tuple of level n's rows, the six columns the
# benchmark reads, built at each read; they must be the oracle's count
# columns. Every other test reads the columns.


def row_values(rec):
    """A frozen row's field values, in field order."""
    return tuple(vars(rec).values())


class TestBlockRecordsView:
    def test_len_indexing_and_iteration(self):
        _, _, (_, _, state) = hierarchical_case(seed=5)
        assert len(state.records) == 4
        for n, recs in zip(range(1, 5), state.records):
            rows = list(recs)
            assert len(recs) == len(rows) == len(state.levels[n].cells) > 0
            assert all(isinstance(rec, BlockRecord) for rec in rows)
            for k in {0, len(rows) // 2, len(rows) - 1}:
                assert recs[k] == rows[k]
                assert recs[k - len(rows)] == rows[k]
            assert recs[-1] == rows[-1] and recs[-len(rows)] == rows[0]
            for k in (len(rows), -len(rows) - 1):
                with pytest.raises(IndexError):
                    recs[k]
            with pytest.raises(TypeError):
                recs[1.0]
            assert [rec.key[0] for rec in recs] == [n] * len(rows)

    def test_rows_read_only(self):
        _, _, (_, _, state) = hierarchical_case(seed=5)
        with pytest.raises(TypeError):
            state.records[0][0] = state.records[0][1]
        # each read builds equal rows anew
        first = state.records
        assert state.records == first and state.records[0][0] is not first[0][0]

    def test_indexed_rows_equal_the_oracle(self):
        for N, seed in ((2, 0), (3, 1), (4, 2), (5, 0)):
            system = build_block_system(seed, N)
            ps = sample(SampleConfig(1.0, 1.0, aligned_window(system), seed))
            state, oracle = init_state(ps, system), oracle_init_state(ps, system)
            stage1(state)
            oracle_stage1(oracle)
            for n in range(2, N + 1):
                run_stage(state, n)
                oracle_run_stage(oracle, n)
            for recs, want in zip(state.records, oracle.rows):
                want = [row[:COUNT_COLUMNS] for row in want]
                assert [row_values(recs[k]) for k in range(len(recs))] == want
                assert [row_values(recs[k - len(recs)])
                        for k in range(len(recs))] == want

    def test_rows_unchanged_by_later_stages(self):
        # a later stage's heir unmatch rewrites red_partner for some of an
        # earlier stage's new edges; the rows, and the new_edges column, keep
        # what they had
        system = build_block_system(3, 4)
        ps = sample(SampleConfig(1.0, 1.0, aligned_window(system), 3))
        state = init_state(ps, system)
        stage1(state)
        taken = {}
        for n in range(1, 5):
            if n > 1:
                run_stage(state, n)
            taken[n] = state.records[n - 1], state.levels[n].new_edges.copy()
        undone = 0
        for n in range(1, 5):
            rows, new_edges = taken[n]
            assert state.records[n - 1] == rows
            assert np.array_equal(state.levels[n].new_edges, new_edges)
            undone += np.count_nonzero(state.red_partner[new_edges[:, 0]] != new_edges[:, 1])
        assert undone > 0

    def test_diagnostics_equal_row_sums(self):
        for N, seeds in ((2, range(3)), (3, range(3)), (4, range(2)), (5, range(1))):
            for seed in seeds:
                _, _, (_, diag, state) = hierarchical_case(seed, N)
                want = {n: {"blocks": len(recs),
                            "bad_count": sum(rec.bad for rec in recs),
                            "dodgy_count": sum(rec.dodgy for rec in recs),
                            "unmatched": sum(rec.unmatched for rec in recs)}
                        for n, recs in zip(range(1, N + 1), state.records)}
                assert diag["levels"] == want
                assert json.dumps(diag["levels"]) == json.dumps(want)
                assert all(type(v) is int for level in diag["levels"].values()
                           for v in level.values())
