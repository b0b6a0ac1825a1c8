"""Factorial block hierarchy and the staged unmatch/rematch construction.

Level-n blocks are n!-by-(n-1)! rectangles (sides swapped for odd n) on a
randomly offset grid; each block splits exactly into n(n-1) children, whose
left-most (even level) or bottom-most (odd level) member is its heir. Stages
1..N build a partial matching whose edges never leave their level-n block,
with unmatched points funneled into heirs; a block is bad when the rematch
step cannot absorb its excess, and dodgy when one of its children is bad.

Blocks are half-open, [x0, x1) x [y0, y1), and all their edges are integers.
A block is its level and its (ix, iy) cell on that level's grid: the
rectangle is ``BlockSystem.rects``'s, and the block holding a point is
found by ``BlockSystem.locate``, integer division of the point's unit cell
(the floor of its coordinates), which is exact at every block edge.
``init_state`` builds one integer table per level, once: the window's
level-n blocks in children order (the children of a block are consecutive
rows), and for each color each point's block row and heir flag. Each
point's block is found once, at level 1; a level-n block's unit cells are
consecutive level-1 rows, so its row is a division. A stage then works on
the whole level at once: counts, masks, excesses and the records' flags are
grouped numpy over block rows. Each step solves its blocks in one
``assign_in_groups`` call, each block's points gathered by index arrays, so
no Python loop visits a block. ``ColorTable.select`` is the one grouping:
one stable sort of block row and part, per color and call, for the rematch
step's two parts (A's open points outside B, then C's), the leftover step's
open points and the stage's new edges. Blocks of one level are disjoint, so
solving every block's rematch step and then every block's leftover step
gives the same partners as going block by block. A stage's new edges are
read back from the partner arrays: the reds unmatched after the heir
unmatch that are matched at the end.

A stage keeps its records as per-block columns on its level table, with its
new edges' partners read when it runs (a later heir unmatch overwrites the
partner arrays). No row object is kept: each read of ``StageState.records``
builds, per stage run, a tuple of ``BlockRecord`` rows from the columns in
one pass. Most blocks of the lower levels hold a point or two, so one object
per block made up much of a run's time.

``bad_block_bound`` is twice ``chernoff_bound``, defined here beside
``chernoff_tail``, the exact tail that the bound bounds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .assignment import RECTANGULAR, SATURATING, _offsets, _stable_order, assign_in_groups
from .geometry import Domain, Rect, _Frozen
from .matching import Matching, partner_edges
from .sampling import ColoredPointSet, derived_rng


class BlockSystem:
    """Factorial grids: a[n] = n!, random offsets r[n], accumulated shifts
    t[n] = r[n]*a[n-2] + t[n-2]."""

    def __init__(self, N: int, a: List[int], r: List[int], t: List[int]):
        self.N = N
        self.a = a
        self.r = r
        self.t = t

    def dims(self, n: int) -> Tuple[int, int]:
        """(width, height) of a level-n block."""
        if n % 2 == 0:
            return self.a[n], self.a[n - 1]
        return self.a[n - 1], self.a[n]

    def offsets(self, n: int) -> Tuple[int, int]:
        if n % 2 == 0:
            return self.t[n], self.t[n - 1]
        return self.t[n - 1], self.t[n]

    def locate(self, n: int, unit) -> np.ndarray:
        """The (ix, iy) rows of the level-n blocks holding the unit cells
        ``unit``, (k, 2) integers: the floors of the points' coordinates.
        Integer division, so exact at every block edge."""
        return (np.asarray(unit, dtype=np.int64) - self.offsets(n)) // self.dims(n)

    def rects(self, n: int, cells: np.ndarray) -> np.ndarray:
        """The (x0, x1, y0, y1) rows of the level-n blocks whose (ix, iy)
        rows are ``cells``."""
        lo = np.array(self.offsets(n)) + cells * self.dims(n)
        hi = lo + self.dims(n)
        return np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]])

    def grids(self, n: int, ix: int, iy: int) -> Dict[int, np.ndarray]:
        """For each level m from n down to 1, the (ix, iy) rows of the
        level-m blocks tiling the level-n block (ix, iy), in children order:
        a block's children are consecutive rows, ordered left-to-right (even
        level) or bottom-to-top (odd level). Built on the ix and iy columns:
        across that axis a child has its parent's side and offset, so its
        index; along it the children align flush with the parent (t[m] =
        t[m-2] mod a[m-2]), the first at the parent's index times their
        count, plus (t[m] - t[m-2]) / a[m-2], which is r[m]."""
        x, y = np.array([ix], dtype=np.int64), np.array([iy], dtype=np.int64)
        cells = {n: np.column_stack([x, y])}
        for m in range(n, 1, -1):
            count = self.a[m] // self.a[m - 2]
            shift = (self.t[m] - self.t[m - 2]) // self.a[m - 2]
            along, across = (x, y) if m % 2 == 0 else (y, x)
            along = ((along * count + shift)[:, None] + np.arange(count)).ravel()
            across = np.repeat(across, count)
            x, y = (along, across) if m % 2 == 0 else (across, along)
            cells[m - 1] = np.column_stack([x, y])
        return cells

    @classmethod
    def from_offsets(cls, r) -> "BlockSystem":
        """The system of the offsets ``r``, with N = len(r) - 1 >= 2 levels:
        r[0] = r[1] = 0, and from n = 2 on an integer 0 <= r[n] < n(n-1).
        Any other ``r`` is a ValueError."""
        N = len(r) - 1
        a = [math.factorial(n) for n in range(N + 1)]
        if (N < 2 or not all(type(rn) is int for rn in r) or r[0] != 0 or r[1] != 0
                or not all(0 <= r[n] < a[n] // a[n - 2] for n in range(2, N + 1))):
            raise ValueError(f"malformed block offsets r={r!r}: need r[0] = r[1] = 0 "
                             "and 0 <= r[n] < n(n-1) for n = 2..N, N >= 2")
        t = [0, 0]
        for n in range(2, N + 1):
            t.append(r[n] * a[n - 2] + t[n - 2])
        return cls(N=N, a=a, r=list(r), t=t)


def build_block_system(seed: int, N: int) -> BlockSystem:
    if N < 2:
        raise ValueError("need N >= 2")
    rng = derived_rng(seed, 3)
    return BlockSystem.from_offsets(
        [0, 0] + [int(rng.integers(0, n * (n - 1))) for n in range(2, N + 1)])


def aligned_window(system: BlockSystem) -> Domain:
    """Plane domain equal to the level-N block (0, 0) (the truncation
    policy)."""
    return Domain.plane(*system.rects(system.N, np.zeros((1, 2), dtype=np.int64))[0].tolist())


def window_grids(system: BlockSystem, n: int, window: Rect) -> Dict[int, np.ndarray]:
    """``BlockSystem.grids`` of the level-n block holding the lower-left
    corner of ``window``. A corner at 2**53 or beyond, where floats are
    more than a unit apart and int64 block arithmetic may overflow, is a
    ValueError."""
    if not max(abs(window.x0), abs(window.y0)) < 2.0 ** 53:
        raise ValueError("window corner lies beyond the block grid (|coordinate| >= 2**53)")
    corner = [[math.floor(window.x0), math.floor(window.y0)]]
    return system.grids(n, *system.locate(n, corner)[0].tolist())


class ChernoffParams(_Frozen):
    def __init__(self, lam: float, mu: float):
        vars(self).update(lam=lam, mu=mu)
        if not (0 < mu <= lam):
            raise ValueError("need 0 < mu <= lam")


def chernoff_bound(p: ChernoffParams) -> float:
    """exp(-mu^2 / (6 lam)), the tail bound for P(X - X' >= Y)."""
    return math.exp(-p.mu ** 2 / (6.0 * p.lam))


MAX_TAIL_COUNTS = 1 << 22  # the most counts a window of chernoff_tail may hold


def chernoff_tail(p: ChernoffParams) -> float:
    """P(X - X' >= Y) for independent X, X' ~ Poisson(lam) and Y ~ Poisson(mu),
    exact to rounding: X' + Y is Z ~ Poisson(lam + mu), so the tail is the sum
    over z of P(Z = z) P(X >= z). Each pmf is one cumulative sum of
    log(mean / k), normalized, on the counts within 12 standard deviations
    and 30 counts of its mean (all but about 1e-30 of its mass), so the work
    is O(sqrt(lam)). A mean that is not finite, or whose window would hold
    over MAX_TAIL_COUNTS counts, is a ValueError."""
    windows = []
    for mean in (p.lam + p.mu, p.lam):
        half = 12.0 * math.sqrt(mean) + 30.0
        if not 2.0 * half <= MAX_TAIL_COUNTS:
            raise ValueError(f"no exact tail about a Poisson mean of {mean!r}: its window "
                             f"would hold over {MAX_TAIL_COUNTS} counts")
        k0 = max(0, math.floor(mean - half))
        k = np.arange(k0 + 1, math.ceil(mean + half) + 1)
        logs = np.append(0.0, np.cumsum(np.log(mean / k)))  # log P(k) - log P(k0)
        pmf = np.exp(logs - logs.max())
        windows.append((k0, pmf / pmf.sum()))
    (z0, pz), (x0, px) = windows
    # P(X >= k) from x0 on, and 0 past the window; every z below x0 reads 1
    at_least = np.append(np.cumsum(px[::-1])[::-1], 0.0)
    return float(pz @ at_least[np.clip(np.arange(z0, z0 + len(pz)) - x0, 0, len(px))])


def bad_block_bound(system: BlockSystem, n: int) -> float:
    """Analytic tail bound on the probability that a fixed unit square lies
    in a bad level-n block, for 3 <= n <= N (it reads a[n - 3]): twice
    ``chernoff_bound``, with lam the area of A outside its heir B and mu
    the area of C, the heir's heir."""
    if not 3 <= n <= system.N:
        raise ValueError(f"the bound needs 3 <= n <= {system.N}, got n={n}")
    a = system.a
    return 2.0 * chernoff_bound(ChernoffParams(a[n] * a[n - 1] - a[n - 1] * a[n - 2],
                                               a[n - 2] * a[n - 3]))


class BlockRecord(_Frozen):
    """One block after its stage: a row of ``StageState.records``."""

    def __init__(self, key: Tuple[int, int, int], n_red: int, n_blue: int, unmatched: int,
                 bad: bool, dodgy: bool, new_edges: List[Tuple[int, int]],
                 unmatched_in_heir: Optional[bool], new_edges_in_heirs: Optional[bool]):
        vars(self).update(key=key, n_red=n_red, n_blue=n_blue, unmatched=unmatched, bad=bad,
                          dodgy=dodgy, new_edges=new_edges, unmatched_in_heir=unmatched_in_heir,
                          new_edges_in_heirs=new_edges_in_heirs)


class ColorTable:
    """One color's points and the blocks of a level they lie in."""

    def __init__(self, row: np.ndarray, blocks: int, in_heir: np.ndarray):
        self.row = row          # block row of each point; -1 outside the window
        self.blocks = blocks    # the level's blocks, rows 0..blocks-1
        self.in_heir = in_heir  # per point: lies in its block's heir (never at level 1)

    def select(self, *masks: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The window's points in the disjoint per-point ``masks``, grouped
        by block row, each block's points of the first mask, then of the
        next, each mask's ascending: one stable sort of row * k + part for k
        masks. Returns their indices and each mask's per-block counts."""
        k = len(masks)
        idx = np.flatnonzero(np.logical_or.reduce(masks))
        # row * k + part: -k..-1 outside the window, which sort first
        key = self.row[idx] * k + sum(p * mask[idx] for p, mask in enumerate(masks))
        count = np.bincount(key + k, minlength=k * (self.blocks + 1))[k:]
        order = idx[_stable_order(key, k * self.blocks)][len(idx) - count.sum():]
        return (order, *(count[p::k] for p in range(k)))

    def count(self, mask: np.ndarray) -> np.ndarray:
        """Per block, how many of its points the per-point ``mask`` holds:
        a count of the rows where it holds, the outside points' -1 in bin 0."""
        return np.bincount(self.row[mask] + 1, minlength=self.blocks + 1)[1:]


class LevelTable:
    """The window's level-n blocks in children order, each color's points'
    rows among them, and its per-block columns, None until stage n runs
    (``_keep_columns``), which ``_block_records`` reads. ``new_edges`` holds
    the (red, blue) pairs the stage made, grouped by block with offsets
    ``new_start``, as they were when the stage ran (a later stage may
    unmatch them); the two heir flags are None at level 1."""

    def __init__(self, n: int, cells: np.ndarray, red: ColorTable, blue: ColorTable):
        self.n = n
        self.cells = cells  # (blocks, 2) ix, iy
        self.red = red
        self.blue = blue
        self.unmatched = self.bad = self.dodgy = self.new_edges = self.new_start = None
        self.unmatched_in_heir = self.new_edges_in_heirs = None


def _block_records(lv: LevelTable) -> Tuple[BlockRecord, ...]:
    """Level ``lv``'s stage columns as ``BlockRecord`` rows, one per block
    in children order, built in one pass."""
    pairs = list(zip(*lv.new_edges.T.tolist()))
    bounds = lv.new_start.tolist()
    none = [None] * len(lv.cells)
    heir_flags = [none if col is None else col.tolist()
                  for col in (lv.unmatched_in_heir, lv.new_edges_in_heirs)]
    columns = zip(lv.cells.tolist(), lv.red.count(lv.red.row >= 0).tolist(),
                  lv.blue.count(lv.blue.row >= 0).tolist(), lv.unmatched.tolist(), lv.bad.tolist(),
                  lv.dodgy.tolist(), bounds[:-1], bounds[1:], *heir_flags)
    return tuple(BlockRecord(key=(lv.n, ix, iy), n_red=nr, n_blue=nb, unmatched=u,
                             bad=is_bad, dodgy=is_dodgy, new_edges=pairs[s0:s1],
                             unmatched_in_heir=in_heir, new_edges_in_heirs=confined)
                 for (ix, iy), nr, nb, u, is_bad, is_dodgy, s0, s1, in_heir, confined
                 in columns)


def _level_tables(ps: ColoredPointSet, system: BlockSystem, cells: Dict[int, np.ndarray],
                  window: Rect) -> Dict[int, LevelTable]:
    """Every level's table. Each point's level-1 row is found once, from its
    unit cell: in children order it is a mixed-radix number whose level-m
    digit (m >= 2) is its level-(m-1) block's place among its parent's
    children, worth a[m-1]a[m-2] rows; -1 outside the window. A level-n
    block's a[n]a[n-1] unit cells being consecutive level-1 rows, its row is
    the level-1 row divided by that, -1 staying -1. A point lies in its
    level-n block's heir when its level-n digit is 0.

    The digits come from one divmod chain per axis: a point's level-m block
    index along level m's axis (x for even m) is q[m], with q[0] and q[1]
    its unit cell, and q[m], digit[m] = divmod(q[m-2] - r[m], a[m] / a[m-2])."""
    N, a = system.N, system.a
    colors = {n: [] for n in range(1, N + 1)}
    for pts in (ps.reds, ps.blues):
        q = [np.floor(pts[:, k]).astype(np.int64) for k in (0, 1)]  # q[m] replaces q[m - 2]
        digit = {}
        for m in range(2, N + 1):
            q[m % 2], digit[m] = np.divmod(q[m % 2] - system.r[m], a[m] // a[m - 2])
        row1 = sum(digit[m] * (a[m - 1] * a[m - 2]) for m in range(2, N + 1))
        row1[~window.contains(pts.T)] = -1
        for n, tables in colors.items():
            in_heir = digit[n] == 0 if n >= 2 else np.zeros(len(pts), bool)
            tables.append(ColorTable(row1 // (a[n] * a[n - 1]), len(cells[n]), in_heir))
    return {n: LevelTable(n, cells[n], *tables) for n, tables in colors.items()}


class StageState:
    """Mutable matching state across stages: partner index arrays (-1 for
    unmatched) plus per-point unmatch-event counters. ``levels[n]`` is the
    table of level n."""

    def __init__(self, ps: ColoredPointSet, system: BlockSystem, red_partner: np.ndarray,
                 blue_partner: np.ndarray, red_unmatch_events: np.ndarray,
                 blue_unmatch_events: np.ndarray, levels: Dict[int, LevelTable],
                 stage: int = 0):
        self.ps = ps
        self.system = system
        self.red_partner = red_partner
        self.blue_partner = blue_partner
        self.red_unmatch_events = red_unmatch_events
        self.blue_unmatch_events = blue_unmatch_events
        self.levels = levels
        self.stage = stage

    @property
    def records(self) -> List[Tuple[BlockRecord, ...]]:
        """Per stage run so far, its level's block records, built anew at
        each read (``_block_records``)."""
        return [_block_records(self.levels[n]) for n in range(1, self.stage + 1)]

    def to_matching(self) -> Matching:
        return Matching(self.ps.reds, self.ps.blues, partner_edges(self.red_partner))


def _kept(idx: np.ndarray, count: np.ndarray, keep: np.ndarray
          ) -> Tuple[np.ndarray, np.ndarray]:
    """Of the points ``idx``, grouped by block with per-block counts
    ``count``, those of the blocks where ``keep`` holds, and their counts."""
    return idx[np.repeat(keep, count)], count[keep]


def _solve_blocks(state: StageState, kind: str, red, blue, *must: np.ndarray) -> None:
    """Solve the blocks of ``red`` and ``blue`` in one ``assign_in_groups``
    call and link the partners. They hold each color's points grouped by
    block, (indices, per-block counts), each block's in the order its
    problem takes them; ``must`` are the SATURATING kind's per-block counts
    of mandatory reds and blues, which a block lists first."""
    (ri, rc), (bi, bc) = red, blue
    partner = assign_in_groups(kind, state.ps.reds.take(ri, axis=0), _offsets(rc),
                               state.ps.blues.take(bi, axis=0), _offsets(bc), *must)
    k = np.flatnonzero(partner >= 0)
    ri, bj = ri[k], bi[partner[k]]
    state.red_partner[ri], state.blue_partner[bj] = bj, ri


def init_state(ps: ColoredPointSet, system: BlockSystem) -> StageState:
    window = ps.domain.window_rect()
    cells = window_grids(system, system.N, window)
    if Rect(*system.rects(system.N, cells[system.N])[0].tolist()) != window:
        raise ValueError("window must coincide with a single level-N block")
    return StageState(
        ps=ps, system=system,
        red_partner=np.full(ps.n_red, -1, dtype=int),
        blue_partner=np.full(ps.n_blue, -1, dtype=int),
        red_unmatch_events=np.zeros(ps.n_red, dtype=int),
        blue_unmatch_events=np.zeros(ps.n_blue, dtype=int),
        levels=_level_tables(ps, system, cells, window),
    )


def _match_leftovers(state: StageState, lv: LevelTable) -> None:
    """In every block of the level, min-length matching of maximum cardinality
    among its unmatched points: one problem per block, of which those with
    an empty side have no pairs."""
    _solve_blocks(state, RECTANGULAR, lv.red.select(state.red_partner < 0),
                  lv.blue.select(state.blue_partner < 0))


def _keep_columns(state: StageState, lv: LevelTable, bad: np.ndarray,
                  dodgy: np.ndarray, new: Tuple[np.ndarray, np.ndarray],
                  unmatched_in_heir=None, new_edges_in_heirs=None) -> None:
    """Store the stage's per-block columns on the level. ``new`` holds the
    reds matched in this stage, grouped by block and ascending within it,
    with per-block counts; their partners are read now, before a later
    stage's heir unmatch can overwrite them."""
    ri, count = new
    lv.new_start = _offsets(count)
    lv.new_edges = np.column_stack([ri, state.red_partner[ri]])
    lv.unmatched = (lv.red.count(state.red_partner < 0)
                    + lv.blue.count(state.blue_partner < 0))
    lv.bad, lv.dodgy = bad, dodgy
    lv.unmatched_in_heir, lv.new_edges_in_heirs = unmatched_in_heir, new_edges_in_heirs


def stage1(state: StageState) -> StageState:
    """Within each unit square, match as many red-blue pairs as possible,
    minimum length among maximum-cardinality matchings."""
    if state.stage != 0:
        raise ValueError("stage 1 must run first")
    lv = state.levels[1]
    _match_leftovers(state, lv)
    clear = np.zeros(len(lv.cells), dtype=bool)  # no block is bad or dodgy
    _keep_columns(state, lv, clear, clear, lv.red.select(state.red_partner >= 0))
    state.stage = 1
    return state


def run_stage(state: StageState, n: int) -> StageState:
    """Stage n on every level-n block A at once: unmatch the heir B, absorb
    the rest of A's unmatched points using the heir's heir C as reserve
    (C = B at n = 2), then match as many leftovers as possible."""
    if n != state.stage + 1:
        raise ValueError("stages must run in order")
    lv, below = state.levels[n], state.levels[n - 1]
    r_heir, b_heir = lv.red.in_heir, lv.blue.in_heir
    r_below, b_below = below.red.in_heir, below.blue.in_heir

    # (i) unmatch all points in the heirs; an edge never leaves its child of
    # A, so the partners of the heirs' reds are all the heirs' matched blues
    # (a matched point lies in the window)
    heir_reds = np.flatnonzero(r_heir & (state.red_partner >= 0))
    partners = state.red_partner[heir_reds]
    state.red_partner[heir_reds] = -1
    state.blue_partner[partners] = -1
    state.red_unmatch_events[heir_reds] += 1
    state.blue_unmatch_events[partners] += 1

    open_reds = state.red_partner < 0

    # (ii) match everything unmatched in A \ B into (A \ B) u C: a block's
    # problem lists the unmatched points of A \ B, then those of C
    ri, n_r1, n_r2 = lv.red.select(open_reds & ~r_heir, r_heir & r_below if n > 2 else r_heir)
    bi, n_b1, n_b2 = lv.blue.select((state.blue_partner < 0) & ~b_heir,
                                    b_heir & b_below if n > 2 else b_heir)
    excess = n_r1 - n_b1
    feasible = np.where(excess >= 0, excess <= n_b2, -excess <= n_r2)
    solve = feasible & (n_r1 + n_b1 > 0)
    _solve_blocks(state, SATURATING, _kept(ri, n_r1 + n_r2, solve), _kept(bi, n_b1 + n_b2, solve),
                  n_r1[solve], n_b1[solve])

    # (iii) match as many of the remaining unmatched points in A as possible
    _match_leftovers(state, lv)

    # bookkeeping for verification: a new edge's ends lie in B or in the heir
    # of their own child of A (none at n = 2, whose children are level 1)
    outside = (lv.red.count((state.red_partner < 0) & ~r_heir)
               + lv.blue.count((state.blue_partner < 0) & ~b_heir))
    new = lv.red.select(open_reds & (state.red_partner >= 0))
    ri = new[0]  # the reds of this stage's new edges
    stray = ~((r_heir | r_below)[ri] & (b_heir | b_below)[state.red_partner[ri]])
    strays = np.bincount(lv.red.row[ri[stray]], minlength=len(lv.cells))
    dodgy = below.bad.reshape(len(lv.cells), -1).any(axis=1)
    _keep_columns(state, lv, ~feasible, dodgy, new,
                  unmatched_in_heir=outside == 0, new_edges_in_heirs=strays == 0)
    state.stage = n
    return state


def run_hierarchical(ps: ColoredPointSet, seed: int, N: int,
                     system: Optional[BlockSystem] = None
                     ) -> Tuple[Matching, dict, StageState]:
    """Run stages 1..N on a window equal to one level-N block. Returns the
    final partial matching, JSON-ready diagnostics, and the full state."""
    if system is None:
        system = build_block_system(seed, N)
    elif system.N != N:
        raise ValueError(f"N={N} but the block system has N={system.N}")
    state = init_state(ps, system)
    stage1(state)
    for n in range(2, N + 1):
        run_stage(state, n)
    diagnostics = {"levels": {}, "offsets": {"r": system.r, "t": system.t}}
    for n in range(1, N + 1):
        lv = state.levels[n]
        diagnostics["levels"][n] = {
            "blocks": len(lv.cells),
            "bad_count": int(np.count_nonzero(lv.bad)),
            "dodgy_count": int(np.count_nonzero(lv.dodgy)),
            "unmatched": int(lv.unmatched.sum()),
        }
    m = state.to_matching()
    diagnostics["unmatched_red"] = int(np.count_nonzero(state.red_partner < 0))
    diagnostics["unmatched_blue"] = int(np.count_nonzero(state.blue_partner < 0))
    diagnostics["total_length"] = m.total_length
    return m, diagnostics, state
