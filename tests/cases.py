"""Inputs and checkers that more than one test module shares and that call
the package; the independent oracles are in ``oracles.py``."""

import contextlib
import math
import types

import numpy as np
import pytest

from poisson_matching import assignment
from poisson_matching.arcs import ArcTable
from poisson_matching.assignment import EPS_TIE
from poisson_matching.hierarchy import (aligned_window, build_block_system, init_state,
                                        run_hierarchical, run_stage, stage1)
from poisson_matching.matching import Matching
from poisson_matching.sampling import SampleConfig, sample
from poisson_matching.verify import _cycle_certificate


def window_case(seed, N=4, lam=1.0):
    """The seed's level-N block system and a Poisson sample on its window."""
    system = build_block_system(seed, N)
    return system, sample(SampleConfig(lam, lam, aligned_window(system), seed))


def hierarchical_case(seed, N=4, lam=1.0):
    system, ps = window_case(seed, N, lam)
    return system, ps, run_hierarchical(ps, seed, N, system=system)


def blocks_of(system, pts, n):
    """Each point's level-n block, as (ix, iy) rows, and whether it lies in
    that block's heir: the block's first a[n-2] unit cells along the level's
    axis, x at even n (no point at level 1, which has no children). Integer
    arithmetic on the points' unit cells."""
    cell = np.floor(pts).astype(np.int64) - system.offsets(n)
    heir = (cell[:, n % 2] % system.a[n] < system.a[n - 2] if n >= 2
            else np.zeros(len(cell), bool))
    return cell // system.dims(n), heir


def _rows(cells, blocks):
    """The row of each of ``blocks`` among ``cells``, a full grid of blocks,
    or -1 for a block outside it."""
    lo = cells.min(axis=0)
    grid = np.full(cells.max(axis=0) - lo + 1, -1)
    grid[tuple((cells - lo).T)] = np.arange(len(cells))
    k = blocks - lo
    inside = ((k >= 0) & (k < grid.shape)).all(axis=1)
    rows = np.full(len(blocks), -1)
    rows[inside] = grid[tuple(k[inside].T)]
    return rows


def stages(system, ps):
    """Run ``init_state``, ``stage1`` and ``run_stage`` for n = 2..N one at a
    time, and after stage n yield the state and what the stage did, read from
    the partner arrays before and after it and from each point's level-n
    block and heir (``blocks_of``), never from a level table's flags.

    The stage's fields: ``n``; per color, the ``partners`` after it, each
    point's ``in_heir`` flag, and per point how many heir unmatches have
    freed it so far (``unmatch_events``); per level-n block, in the level
    table's order: its ``excess`` of reds over blues, how many points it
    leaves ``unmatched``, whether it is ``bad`` (its rematch step cannot
    absorb the excess of A outside the heir B from the heir's heir C, or
    from B at n = 2) or ``dodgy`` (a child is bad), the ``new_edges`` the
    stage made in it as (red, blue) pairs by ascending red, and, None at
    level 1, whether every point it leaves unmatched lies in B
    (``unmatched_in_heir``) and every end of a new edge lies in B or in the
    heir of its own child (``new_edges_in_heirs``)."""
    state, colors = init_state(ps, system), (ps.reds, ps.blues)
    events = [np.zeros(len(pts), int) for pts in colors]
    below = last = None  # the level below's heir flags, and its stage
    for n in range(1, system.N + 1):
        before = state.red_partner.copy(), state.blue_partner.copy()
        stage1(state) if n == 1 else run_stage(state, n)
        after = state.red_partner.copy(), state.blue_partner.copy()
        cells = state.levels[n].cells
        located = [blocks_of(system, pts, n) for pts in colors]
        rows = [_rows(cells, block) for block, _ in located]
        heir = tuple(in_heir for _, in_heir in located)

        def count(masks):  # per color, per block, how many of its points the mask holds
            return [np.bincount(r[m & (r >= 0)], minlength=len(cells)) for r, m in zip(rows, masks)]

        for e, h, b in zip(events, heir, before):  # step (i) unmatches the heir's matched points
            e += h & (b >= 0)
        # the reds open after step (i) and matched at the end, by block, ascending
        new = np.flatnonzero(((before[0] < 0) | heir[0]) & (after[0] >= 0))
        new = new[np.argsort(rows[0][new], kind="stable")]
        pairs = list(zip(new.tolist(), after[0][new].tolist()))
        start = [0, *np.cumsum(np.bincount(rows[0][new], minlength=len(cells))).tolist()]
        n_red, n_blue = count([r >= 0 for r in rows])
        stage = types.SimpleNamespace(
            n=n, partners=after, in_heir=heir, unmatch_events=tuple(e.copy() for e in events),
            excess=n_red - n_blue, unmatched=sum(count([p < 0 for p in after])),
            new_edges=[pairs[s0:s1] for s0, s1 in zip(start, start[1:])],
            bad=np.zeros(len(cells), bool), dodgy=np.zeros(len(cells), bool),
            unmatched_in_heir=None, new_edges_in_heirs=None)
        if n >= 2:
            # step (ii) must absorb A's open points outside B from C
            r1, b1 = count([(p < 0) & ~h for p, h in zip(before, heir)])
            r2, b2 = count([h & u if n > 2 else h for h, u in zip(heir, below)])
            stage.bad = np.where(r1 >= b1, r1 - b1 > b2, b1 - r1 > r2)
            # a child's parent is the block holding the child's lower-left corner
            corners = system.rects(n - 1, state.levels[n - 1].cells)[:, ::2]
            parent = _rows(cells, blocks_of(system, corners, n)[0])
            stage.dodgy = np.bincount(parent[last.bad], minlength=len(cells)) > 0
            stage.unmatched_in_heir = sum(count([(p < 0) & ~h for p, h in zip(after, heir)])) == 0
            # a new edge's ends each lie in B or in the heir of their own child
            fits = [(h | u)[i] for h, u, i in zip(heir, below, (new, after[0][new]))]
            stray = new[~(fits[0] & fits[1])]
            stage.new_edges_in_heirs = np.bincount(rows[0][stray], minlength=len(cells)) == 0
        yield state, stage
        below, last = heir, stage


def lattice(rng, width, n, distinct):
    """n integer points on a width x width grid, distinct or drawn with
    replacement (so points may repeat)."""
    cells = rng.choice(width * width, size=n, replace=not distinct)
    return np.column_stack([cells // width, cells % width]).astype(float)


@contextlib.contextmanager
def solver_spy():
    """Watch the private steps of ``assignment.assign_in_groups`` while the
    context lasts; the one place the tests patch the solver. The namespace
    it yields collects: every cost matrix that reaches the kernel
    (``assignment._assign``), copied, in ``matrices``, and whether
    ``assignment._pad`` wrote it, in ``padded``; each batch of the
    small-problem pass (``assignment._settle_batch``), as its problems'
    indices within the pass and its count of point pairs, in ``batches``;
    and each problem the pass settles, as its small side's points and its
    other side's, in ``settled``."""
    spy = types.SimpleNamespace(matrices=[], padded=[], batches=[], settled=[])
    kernel, pad, settle = assignment._assign, assignment._pad, assignment._settle_batch
    written = []

    def padding(cost, *args):
        pad(cost, *args)
        written.append(cost)

    def solving(cost):
        spy.matrices.append(np.array(cost))
        spy.padded.append(bool(written) and written.pop() is cost)
        return kernel(cost)

    def settling(pts, small, small_start, large, large_start, groups, n_reds, partner):
        settle(pts, small, small_start, large, large_start, groups, n_reds, partner)
        pairs = np.diff(small_start)[groups] * np.diff(large_start)[groups]
        spy.batches.append((groups.tolist(), int(pairs.sum())))
        spy.settled += [(pts[small[small_start[g]:small_start[g + 1]]],
                         pts[large[large_start[g]:large_start[g + 1]]]) for g in groups.tolist()]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assignment, "_assign", solving)
        patch.setattr(assignment, "_pad", padding)
        patch.setattr(assignment, "_settle_batch", settling)
        yield spy


def assert_cycle_witness(m, rep=None):
    """The cycle search (``verify._cycle_certificate``) fails ``m`` (``rep``,
    its report, if given) on one cycle of distinct edges, from the least,
    whose rematch, each red taking the next edge's partner, shortens the
    matching by more than EPS_TIE: by its ``change``, summed again here with
    math.hypot. Returns the witness."""
    rep = _cycle_certificate(m) if rep is None else rep
    assert not rep.passed and rep.property_name == "minimality_cycles"
    n = len(m._edge_array())
    assert rep.trials == n * (n - 1) and len(rep.violations) == 1
    v = rep.violations[0]
    e = v["edges"]
    assert len(set(e)) == len(e) >= 2 and e[0] == min(e) and max(e) < n
    p, q = m.endpoint_arrays()
    change = math.fsum(math.hypot(*(p[a] - q[b])) - math.hypot(*(p[a] - q[a]))
                       for a, b in zip(e, e[1:] + e[:1]))
    assert v["change"] == pytest.approx(change, abs=1e-12) and change < -EPS_TIE
    return v


def rematched(m, positions, partners):
    """``m`` with the edges at ``positions`` given the partners of the edges
    at ``partners``."""
    e = m._edge_array().copy()
    e[positions, 1] = e[partners, 1]
    return Matching(m.reds, m.blues, e)


def arc_rows(table):
    """The arcs of ``table``, read from its columns, as (edge, height,
    lowest, depth, vertices) tuples of plain numbers: an edge as [red, blue]
    and the vertices as four [x, y] lists."""
    return list(zip(table.edges.tolist(), table.height.tolist(), table.lowest.tolist(),
                    table.depth.tolist(), table.vertices.tolist()))


def table_of(rows):
    """The ``ArcTable`` of (edge, height, lowest, depth, vertices) rows."""
    return ArcTable(*(list(zip(*rows)) or [()] * 5))


def arc_json(table):
    """The arc objects a result file holds for ``table``, from its columns."""
    return [dict(zip(("edge", "height", "lowest", "depth", "vertices"), row))
            for row in arc_rows(table)]
