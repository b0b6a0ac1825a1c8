"""Symmetries as exact oracles: a solve compared with itself under a
transform of its input, with no oracle to solve it again, so it runs at
sizes the brute-force and per-block oracles cannot reach.

Colour swap: swapping the reds with the blues, and each problem's mandatory
reds with its mandatory blues, transposes the partners exactly, in the
grouped solve and in the hierarchy. Poisson points tie with probability 0,
so the least matching is unique and its partners must agree.
"""

import numpy as np
import pytest

from poisson_matching.assignment import assign_in_groups
from poisson_matching.hierarchy import run_hierarchical
from poisson_matching.sampling import ColoredPointSet, derived_rng
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
