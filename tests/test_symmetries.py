"""Symmetries as exact oracles: a solve compared with itself under a
transform of its input, with no oracle to solve it again, so it runs at
sizes the brute-force and per-block oracles cannot reach.

Colour swap: swapping the reds with the blues, and each problem's mandatory
reds with its mandatory blues, transposes the partners exactly, in the
grouped solve and in the hierarchy. Poisson points tie with probability 0,
so the least matching is unique and its partners must agree.

Translation: moving the points and the window together by whole numbers
keeps every construction's edges, on dyadic points (multiples of 2**-20),
where the move is exact in floats, so every difference the constructions
take is too. The points keep their order, so the edges are compared as
index pairs. The hierarchy moves by a whole level-5 block of its own block
system. The windows straddle x = 0, so a walk anchored at 0 rather than at
the window's left edge moves with neither.
"""

import numpy as np
import pytest

from poisson_matching.assignment import assign_in_groups, max_cardinality_min_cost
from poisson_matching.geometry import Domain
from poisson_matching.hierarchy import run_hierarchical
from poisson_matching.sampling import ColoredPointSet, SampleConfig, derived_rng, sample
from poisson_matching.walks import (cut_time_matching, excursion_matching, one_color_pairing,
                                    zero_block_matching)
from cases import window_case


def _transposed(partner, n_blues):
    """Each blue's partner, as an index into the reds, or -1, from each
    red's."""
    inverse = np.full(n_blues, -1, dtype=np.int64)
    matched = np.flatnonzero(partner >= 0)
    inverse[partner[matched]] = matched
    return inverse


def _mandatory(rng, n_r, n_b, colors):
    """Per group, counts of mandatory reds and blues that the group's points
    can saturate: none (``must`` None), 1 to min(n_r, n_b) points of one
    color, drawn per group, or that many of each color."""
    if colors == 0:
        return None
    m = np.minimum(n_r, n_b)
    k = (rng.random(len(m)) * m).astype(np.int64) + (m > 0)  # 1..m, or 0 where m = 0
    if colors == 2:
        return k, (rng.random(len(m)) * m).astype(np.int64) + (m > 0)
    red = rng.random(len(m)) < 0.5
    return np.where(red, k, 0), np.where(red, 0, k)


@pytest.mark.parametrize("colors", [0, 1, 2], ids=["must_none", "one_color", "both_colors"])
def test_swapping_colors_transposes_the_grouped_partners(colors):
    for seed in range(5):
        rng = derived_rng(193, colors, seed)
        n_r, n_b = rng.integers(0, 14, (2, 30))
        reds, blues = rng.uniform(0, 4, (n_r.sum(), 2)), rng.uniform(0, 4, (n_b.sum(), 2))
        rs, bs = np.concatenate([[0], np.cumsum(n_r)]), np.concatenate([[0], np.cumsum(n_b)])
        must = _mandatory(rng, n_r, n_b, colors)
        got = assign_in_groups(reds, rs, blues, bs, must)
        swapped = assign_in_groups(blues, bs, reds, rs, None if must is None else must[::-1])
        assert (got >= 0).any() and np.array_equal(swapped, _transposed(got, len(blues)))


@pytest.mark.parametrize("N", [4, 5])
def test_swapping_colors_transposes_the_hierarchy(N):
    for seed in range(5):
        system, ps = window_case(seed, N)
        swapped = ColoredPointSet(ps.domain, reds=ps.blues, blues=ps.reds, seed=ps.seed)
        *_, state = run_hierarchical(ps, seed, N, system=system)
        *_, mirror = run_hierarchical(swapped, seed, N, system=system)
        assert np.array_equal(mirror.red_partner, state.blue_partner)
        assert np.array_equal(mirror.blue_partner, state.red_partner)


def _dyadic(ps):
    """``ps`` with every coordinate rounded to a multiple of 2**-20."""
    return ColoredPointSet(ps.domain, *(np.round(p * 2.0 ** 20) / 2.0 ** 20
                                        for p in (ps.reds, ps.blues)), seed=ps.seed)


def _moved(ps, dx, dy):
    """``ps`` and its window moved by (dx, dy)."""
    d = ps.domain
    return ColoredPointSet(Domain(d.kind, d.x0 + dx, d.x1 + dx, d.y0 + dy, d.y1 + dy),
                           ps.reds + (dx, dy), ps.blues + (dx, dy), seed=ps.seed)


# each construction, and its red intensity: cut-time blocks need a red drift
CONSTRUCTIONS = {
    "excursion": (excursion_matching, 1.0),
    "cut_time": (cut_time_matching, 1.2),
    "zero_block": (zero_block_matching, 1.0),
    "one_color": (lambda ps: one_color_pairing(ps, 1), 1.0),
    "min_cost": (lambda ps: max_cardinality_min_cost(ps.reds, ps.blues), 1.0),
}
WINDOWS = {"line": Domain.line(-150, 150), "strip": Domain.strip(-150, 150),
           "plane": Domain.plane(-6, 6, -6, 6)}


@pytest.mark.parametrize("construction,kind", [
    *((c, kind) for c in CONSTRUCTIONS for kind in ("line", "strip")), ("min_cost", "plane")])
def test_moving_points_and_window_keeps_the_edges(construction, kind):
    build, lambda_red = CONSTRUCTIONS[construction]
    matched = 0  # seeds with an edge: cut-time's seed 3 has no cut block with a blue
    for seed in range(6):
        ps = _dyadic(sample(SampleConfig(lambda_red, 1.0, WINDOWS[kind], seed)))
        edges = build(ps).edges
        assert build(_moved(ps, 64, -32 if kind == "plane" else 0)).edges == edges
        matched += edges != []
    assert matched >= 5


def test_moving_the_hierarchy_by_a_block_keeps_the_edges():
    for seed in range(5):
        system, ps = window_case(seed, 5)
        ps = _dyadic(ps)
        width, height = system.dims(5)
        moved = _moved(ps, width, -height)  # into the block (1, -1), as the plane's (64, -32)
        m, *_ = run_hierarchical(ps, seed, 5, system=system)
        assert run_hierarchical(moved, seed, 5, system=system)[0].edges == m.edges != []
