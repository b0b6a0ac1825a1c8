"""Factorial block hierarchy and the staged unmatch/rematch construction.

Level-n blocks are n!-by-(n-1)! rectangles (sides swapped for odd n) on a
randomly offset grid; each block splits exactly into n(n-1) children, whose
left-most (even level) or bottom-most (odd level) member is its heir. Stages
1..N build a partial matching whose edges never leave their level-n block,
with unmatched points funneled into heirs; a block is bad when the rematch
step cannot absorb its excess, and dodgy when one of its children is bad.

Blocks are half-open, [x0, x1) x [y0, y1), and all their edges are integers,
so ``init_state`` finds each point's block at each level once, by integer
division of its unit cell, and the stages do no rectangle test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .assignment import Matching, min_cost_pairs, min_cost_saturating
from .geometry import Domain, Rect
from .sampling import ColoredPointSet, derived_rng


@dataclass(frozen=True)
class Block:
    level: int
    ix: int
    iy: int
    rect: Rect

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.level, self.ix, self.iy)


@dataclass
class BlockSystem:
    """Factorial grids: a[n] = n!, random offsets r[n], accumulated shifts
    t[n] = r[n]*a[n-2] + t[n-2]."""

    N: int
    a: List[int]
    r: List[int]
    t: List[int]

    def dims(self, n: int) -> Tuple[int, int]:
        """(width, height) of a level-n block."""
        if n % 2 == 0:
            return self.a[n], self.a[n - 1]
        return self.a[n - 1], self.a[n]

    def offsets(self, n: int) -> Tuple[int, int]:
        if n % 2 == 0:
            return self.t[n], self.t[n - 1]
        return self.t[n - 1], self.t[n]

    def block(self, n: int, ix: int, iy: int) -> Block:
        w, h = self.dims(n)
        xo, yo = self.offsets(n)
        return Block(n, ix, iy, Rect(xo + ix * w, xo + (ix + 1) * w,
                                     yo + iy * h, yo + (iy + 1) * h))

    def block_containing(self, n: int, x: float, y: float) -> Block:
        w, h = self.dims(n)
        xo, yo = self.offsets(n)
        return self.block(n, int(math.floor((x - xo) / w)),
                          int(math.floor((y - yo) / h)))

    def children(self, block: Block) -> List[Block]:
        """The n(n-1) level-(n-1) blocks tiling a level-n block, ordered
        left-to-right (even level) or bottom-to-top (odd level)."""
        n = block.level
        if n < 2:
            raise ValueError("level-1 blocks have no children")
        count = self.a[n] // self.a[n - 2]
        w, h = self.dims(n - 1)
        xo, yo = self.offsets(n - 1)
        # Children align flush with the parent (t[n] = t[n-2] mod a[n-2]).
        ix0 = round((block.rect.x0 - xo) / w)
        iy0 = round((block.rect.y0 - yo) / h)
        if n % 2 == 0:
            return [self.block(n - 1, ix0 + k, iy0) for k in range(count)]
        return [self.block(n - 1, ix0, iy0 + k) for k in range(count)]

    def heir_of(self, block: Block) -> Block:
        """Left-most child for even levels, bottom-most for odd levels."""
        return self.children(block)[0]


def build_block_system(seed: int, N: int) -> BlockSystem:
    if N < 2:
        raise ValueError("need N >= 2")
    a = [math.factorial(n) for n in range(N + 1)]
    rng = derived_rng(seed, 3)
    r = [0, 0]
    t = [0, 0]
    for n in range(2, N + 1):
        rn = int(rng.integers(0, a[n] // a[n - 2]))
        r.append(rn)
        t.append(rn * a[n - 2] + t[n - 2])
    return BlockSystem(N=N, a=a, r=r, t=t)


def aligned_window(system: BlockSystem, ix: int = 0, iy: int = 0) -> Domain:
    """Plane domain equal to one level-N block (the truncation policy)."""
    rect = system.block(system.N, ix, iy).rect
    return Domain.plane(rect.x0, rect.x1, rect.y0, rect.y1)


def _grid_start(t: np.ndarray, period: int) -> np.ndarray:
    """Left/bottom coordinate of the grid cell containing 0."""
    s = t % period
    return np.where(s > 0, s - period, 0)


def heir_frequency(n: int, trials: int, seed: int = 0) -> float:
    """Monte Carlo frequency of the unit square [0,1)^2 lying in the heir of
    its (n+1)-block, i.e. its n-block being the heir; equals 1/(n(n+1))."""
    rng = derived_rng(seed, 11, n)
    a = [math.factorial(k) for k in range(n + 2)]
    t = [np.zeros(trials, dtype=np.int64), np.zeros(trials, dtype=np.int64)]
    for m in range(2, n + 2):
        rm = rng.integers(0, a[m] // a[m - 2], size=trials)
        t.append(rm * a[m - 2] + t[m - 2])
    lo_child = _grid_start(t[n - 1], a[n - 1])
    lo_parent = _grid_start(t[n + 1], a[n + 1])
    return float(np.mean(lo_child == lo_parent))


def bad_block_bound(system: BlockSystem, n: int) -> float:
    """Analytic tail bound on the probability that a fixed unit square lies
    in a bad level-n block."""
    a = system.a
    num = (a[n - 2] * a[n - 3]) ** 2
    den = 6.0 * (a[n] * a[n - 1] - a[n - 1] * a[n - 2])
    return 2.0 * math.exp(-num / den)


@dataclass
class BlockRecord:
    key: Tuple[int, int, int]
    n_red: int
    n_blue: int
    unmatched: int
    bad: bool
    dodgy: bool
    new_edges: List[Tuple[int, int]]
    unmatched_in_heir: Optional[bool]
    new_edges_in_heirs: Optional[bool]


_Buckets = Tuple[Dict[Tuple[int, int], np.ndarray], np.ndarray]


def _bucket(pts: np.ndarray, system: BlockSystem, n: int) -> _Buckets:
    """Find each point's level-n block once. Returns every occupied block
    (ix, iy) with its points' indices, ascending, and per point whether it
    lies in its block's heir: the first child along the split axis (x at
    even levels, y at odd ones), flush with the parent. Level 1 has no heirs."""
    cell = np.floor(pts).astype(np.int64) - system.offsets(n)
    block = cell // system.dims(n)
    order = np.lexsort(block.T[::-1])  # stable, so each block's indices ascend
    keys, counts = np.unique(block[order], axis=0, return_counts=True)
    members = dict(zip(map(tuple, keys.tolist()), np.split(order, np.cumsum(counts)[:-1])))
    along = cell[:, n % 2]
    in_heir = along % system.a[n] < system.a[n - 2] if n >= 2 else np.zeros(len(pts), bool)
    return members, in_heir


@dataclass
class StageState:
    """Mutable matching state across stages: partner index arrays (-1 for
    unmatched) plus per-point unmatch-event counters and block statuses.
    ``levels[n]`` holds the red and the blue buckets of level n."""

    ps: ColoredPointSet
    system: BlockSystem
    red_partner: np.ndarray
    blue_partner: np.ndarray
    red_unmatch_events: np.ndarray
    blue_unmatch_events: np.ndarray
    levels: Dict[int, Tuple[_Buckets, _Buckets]]
    stage: int = 0
    status: Dict[Tuple[int, int, int], str] = field(default_factory=dict)
    records: List[List[BlockRecord]] = field(default_factory=list)

    def to_matching(self) -> Matching:
        edges = [(i, j) for i, j in enumerate(self.red_partner) if j >= 0]
        return Matching.from_edges(self.ps.reds, self.ps.blues, edges)


def _link(state: StageState, ridx: np.ndarray, bidx: np.ndarray,
          pairs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Record the solver's local pairs as partners in the state and return
    them as sorted global (red, blue) edges."""
    new = []
    for i, j in pairs:
        ri, bj = int(ridx[i]), int(bidx[j])
        state.red_partner[ri] = bj
        state.blue_partner[bj] = ri
        new.append((ri, bj))
    return sorted(new)


def _match_max_cardinality(state: StageState, ridx: np.ndarray, bidx: np.ndarray
                           ) -> List[Tuple[int, int]]:
    """Min-length matching of maximum cardinality between the given unmatched
    index sets; applies it to the state and returns the new edges."""
    if len(ridx) == 0 or len(bidx) == 0:  # true in most unit squares: skip set-up
        return []
    pairs = min_cost_pairs(state.ps.reds[ridx], state.ps.blues[bidx])
    return _link(state, ridx, bidx, pairs)


def _window_block(ps: ColoredPointSet, system: BlockSystem) -> Block:
    """The level-N block containing the window's lower-left corner."""
    window = ps.domain.window_rect()
    return system.block_containing(system.N, window.x0, window.y0)


def init_state(ps: ColoredPointSet, system: BlockSystem) -> StageState:
    if _window_block(ps, system).rect != ps.domain.window_rect():
        raise ValueError("window must coincide with a single level-N block")
    return StageState(
        ps=ps, system=system,
        red_partner=np.full(ps.n_red, -1, dtype=int),
        blue_partner=np.full(ps.n_blue, -1, dtype=int),
        red_unmatch_events=np.zeros(ps.n_red, dtype=int),
        blue_unmatch_events=np.zeros(ps.n_blue, dtype=int),
        levels={n: (_bucket(ps.reds, system, n), _bucket(ps.blues, system, n))
                for n in range(1, system.N + 1)},
    )


_NO_POINTS = np.empty(0, dtype=np.int64)


def _members(state: StageState, block: Block) -> Tuple[np.ndarray, np.ndarray]:
    """(red, blue) indices of the points in ``block``, ascending."""
    return tuple(members.get((block.ix, block.iy), _NO_POINTS)
                 for members, _ in state.levels[block.level])


def _blocks_at_level(system: BlockSystem, top: Block, n: int) -> List[Block]:
    """The level-n blocks tiling ``top``, in children order."""
    blocks = [top]
    for _ in range(top.level, n, -1):
        blocks = [c for b in blocks for c in system.children(b)]
    return blocks


def stage1(state: StageState) -> StageState:
    """Within each unit square, match as many red-blue pairs as possible,
    minimum length among maximum-cardinality matchings."""
    if state.stage != 0:
        raise ValueError("stage 1 must run first")
    records = []
    top = _window_block(state.ps, state.system)
    for block in _blocks_at_level(state.system, top, 1):
        ridx, bidx = _members(state, block)
        new = _match_max_cardinality(state, ridx, bidx)
        state.status[block.key] = "ok"
        records.append(BlockRecord(
            key=block.key, n_red=len(ridx), n_blue=len(bidx),
            unmatched=len(ridx) + len(bidx) - 2 * len(new),
            bad=False, dodgy=False, new_edges=new,
            unmatched_in_heir=None, new_edges_in_heirs=None,
        ))
    state.stage = 1
    state.records.append(records)
    return state


def classify_dodgy(state: StageState, block: Block) -> bool:
    """A block is dodgy when at least one of its children is bad."""
    if block.level < 2:
        return False
    return any(state.status.get(c.key) == "bad" for c in state.system.children(block))


def _saturating_match(state: StageState, r1, b1, r2, b2) -> List[Tuple[int, int]]:
    """Min-length matching covering every point of (r1, b1), with partners
    drawn from (r1, b1) themselves or from the reserve pools (r2, b2)."""
    pairs = min_cost_saturating(state.ps.reds[r1], state.ps.blues[b1],
                                state.ps.reds[r2], state.ps.blues[b2])
    return _link(state, np.concatenate([r1, r2]).astype(int),
                 np.concatenate([b1, b2]).astype(int), pairs)


def stage_n(state: StageState, block: Block) -> BlockRecord:
    """One level-n block of stage n: unmatch the heir, absorb the rest of the
    block's unmatched points using the heir's heir as reserve, then match as
    many leftovers as possible."""
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
    return BlockRecord(
        key=block.key, n_red=len(ridx), n_blue=len(bidx),
        unmatched=int(un_r.sum() + un_b.sum()),
        bad=not feasible, dodgy=classify_dodgy(state, block),
        new_edges=sorted(new_edges),
        unmatched_in_heir=bool(r_in_B[un_r].all() and b_in_B[un_b].all()),
        new_edges_in_heirs=bool(confined),
    )


def run_stage(state: StageState, n: int) -> StageState:
    if n != state.stage + 1:
        raise ValueError("stages must run in order")
    top = _window_block(state.ps, state.system)
    records = [stage_n(state, block) for block in _blocks_at_level(state.system, top, n)]
    state.stage = n
    state.records.append(records)
    return state


def run_hierarchical(ps: ColoredPointSet, seed: int, N: int,
                     system: Optional[BlockSystem] = None
                     ) -> Tuple[Matching, dict, StageState]:
    """Run stages 1..N on a window equal to one level-N block. Returns the
    final partial matching, JSON-ready diagnostics, and the full state."""
    if system is None:
        system = build_block_system(seed, N)
    state = init_state(ps, system)
    stage1(state)
    for n in range(2, N + 1):
        run_stage(state, n)
    diagnostics = {"levels": {}, "offsets": {"r": system.r, "t": system.t}}
    for n, records in zip(range(1, N + 1), state.records):
        diagnostics["levels"][n] = {
            "blocks": len(records),
            "bad_count": sum(rec.bad for rec in records),
            "dodgy_count": sum(rec.dodgy for rec in records),
            "unmatched": sum(rec.unmatched for rec in records),
        }
    m = state.to_matching()
    diagnostics["unmatched_red"] = len(m.unmatched_reds)
    diagnostics["unmatched_blue"] = len(m.unmatched_blues)
    diagnostics["total_length"] = m.total_length
    return m, diagnostics, state
