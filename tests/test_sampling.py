import json
import re

import numpy as np
import pytest

from poisson_matching import fileio, verify, walks
from poisson_matching.geometry import Domain
from poisson_matching.sampling import (ColoredPointSet, SampleConfig, canonical_order,
                                       derived_rng, sample)
from oracles import scalar_is_parallel_free


def test_determinism_same_seed():
    cfg = SampleConfig(1.0, 1.0, Domain.strip(0, 30), seed=99)
    a = sample(cfg)
    b = sample(cfg)
    assert np.array_equal(a.reds, b.reds)
    assert np.array_equal(a.blues, b.blues)


def test_distinct_seeds_differ():
    d = Domain.strip(0, 30)
    a = sample(SampleConfig(1.0, 1.0, d, seed=1))
    b = sample(SampleConfig(1.0, 1.0, d, seed=2))
    assert not np.array_equal(a.reds, b.reds)


def test_zero_measure_rejected():
    with pytest.raises(ValueError):
        Domain.line(2, 2)


def test_points_sorted_and_inside():
    ps = sample(SampleConfig(2.0, 1.0, Domain.plane(0, 10, 0, 5), seed=4))
    for pts in (ps.reds, ps.blues):
        assert (np.diff(pts[:, 0]) >= 0).all()
        assert ((pts[:, 0] >= 0) & (pts[:, 0] < 10)).all()
        assert ((pts[:, 1] >= 0) & (pts[:, 1] < 5)).all()


def test_poisson_mean_clt_band():
    # Poisson(100) means over 10^4 seeds: SE = 10/100, band 100 +- 0.3.
    counts = [sample(SampleConfig(1.0, 1.0, Domain.strip(0, 100), seed=s)).n_red
              for s in range(10_000)]
    assert abs(np.mean(counts) - 100.0) < 0.3


def test_small_samples_parallel_free():
    for s in range(5):
        ps = sample(SampleConfig(1.0, 1.0, Domain.plane(0, 4, 0, 4), seed=s))
        pts = np.concatenate([ps.reds, ps.blues])
        if len(pts) <= 40:
            assert scalar_is_parallel_free(pts)


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        ColoredPointSet(Domain.strip(0, 10), reds=[[1.0, 0.5], [1.0, 0.5]],
                        blues=[], seed=0)


@pytest.mark.parametrize("reds,blues", [
    ([[2.0, 0.5], [1.0, 0.25]], [[3.0, 0.1], [1.0, 0.25]]),  # red and blue
    ([[1.0, 0.5]], [[2.0, 0.5], [0.5, 0.5], [2.0, 0.5]]),    # two blues
    ([[-0.0, 0.5], [1.0, 0.5]], [[0.0, 0.5]]),               # -0.0 == 0.0
    ([[0.0, -0.0], [0.0, 0.5]], [[-0.0, 0.0]]),
], ids=["red_blue", "same_color", "signed_zero_x", "signed_zero_both"])
def test_duplicates_rejected_as_in_a_set_of_tuples(reds, blues):
    allpts = [tuple(p) for p in reds + blues]
    assert len(set(allpts)) < len(allpts)  # the definition of a duplicate
    with pytest.raises(ValueError, match="duplicate points"):
        ColoredPointSet(Domain.strip(-1, 10), reds=reds, blues=blues, seed=0)


@pytest.mark.parametrize("reds", [[[0.1, 0.5, 0.3, 0.5]], [0.1, 0.5], [[[0.1, 0.5]]],
                                  [[0.1, 0.5, 0.3]]],
                         ids=["one_wide_row", "flat", "nested", "three_wide"])
def test_points_of_another_shape_rejected(reds):
    d = ColoredPointSet(Domain.strip(0, 10), [], [[1.0, 0.5]]).to_json()
    assert ColoredPointSet.from_json(d).n_red == 0  # an empty list is no points
    with pytest.raises(ValueError, match="reds must be rows of two"):
        ColoredPointSet.from_json({**d, "reds": reds})
    with pytest.raises(ValueError, match="reds must be rows of two"):
        ColoredPointSet(Domain.strip(0, 10), reds, [])


def test_near_duplicates_accepted():
    x = 1.0
    ps = ColoredPointSet(Domain.strip(0, 10), reds=[[x, 0.5], [np.nextafter(x, 2), 0.5]],
                         blues=[[x, np.nextafter(0.5, 1)]], seed=0)
    assert ps.n_red == 2 and ps.n_blue == 1


def test_json_round_trip():
    ps = sample(SampleConfig(1.5, 1.0, Domain.strip(0, 20), seed=8))
    again = ColoredPointSet.from_json(ps.to_json())
    assert np.array_equal(ps.reds, again.reds)
    assert np.array_equal(ps.blues, again.blues)
    assert ps.domain == again.domain


def test_derived_rng_streams_independent_and_stable():
    a = derived_rng(5, 1).uniform(size=3)
    b = derived_rng(5, 2).uniform(size=3)
    a2 = derived_rng(5, 1).uniform(size=3)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


# each call that takes a seed; a float one used to name the stream of its
# integer part, and a boolean one the stream of 0 or 1
SEED_TAKERS = {
    "SampleConfig": lambda seed: SampleConfig(1.0, 1.0, Domain.strip(0, 1), seed),
    "ColoredPointSet": lambda seed: ColoredPointSet(Domain.strip(0, 1), [], [], seed),
    "derived_rng": derived_rng,
}


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.True_],
                         ids=["float", "whole_float", "bool", "numpy_bool"])
@pytest.mark.parametrize("name", sorted(SEED_TAKERS))
def test_seed_must_be_an_integer(name, seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        SEED_TAKERS[name](seed)


def test_numpy_integer_seeds_are_their_ints():
    ps = sample(SampleConfig(1.0, 1.0, Domain.strip(0, 20), np.int64(8)))
    same = sample(SampleConfig(1.0, 1.0, Domain.strip(0, 20), 8))
    assert type(ps.seed) is int and json.loads(json.dumps(ps.to_json())) == same.to_json()
    assert derived_rng(np.uint64(5), 1).uniform() == derived_rng(5, 1).uniform()


def _other_points(differing):
    """A strip's point set, and an excursion matching of its points less the
    first of the color ``differing``, with its arcs."""
    ps = sample(SampleConfig(1.0, 1.0, Domain.strip(0, 20), 3))
    reds, blues = (pts[1:] if color == differing else pts
                   for color, pts in (("reds", ps.reds), ("blues", ps.blues)))
    other = ColoredPointSet(ps.domain, reds, blues)
    m = walks.excursion_matching(other)
    return ps, m, walks.polygonal_arcs(m, other)


# each call that takes a point set and a matching; each gave a result for
# these, and polygonal_arcs on another strip's points numpy's own error
OTHER_POINT_TAKERS = {
    "polygonal_arcs": lambda ps, m, arcs: walks.polygonal_arcs(m, ps),
    "laminate_strips": lambda ps, m, arcs: walks.laminate_strips([(ps, m, arcs)], 0.0),
    "estimate_eta": lambda ps, m, arcs: verify.estimate_eta([(ps, m)]),
    "box_rematch_experiment": lambda ps, m, arcs: verify.box_rematch_experiment(ps, m, 1.0),
    "result": lambda ps, m, arcs: fileio.result(ps, m),
}


@pytest.mark.parametrize("differing", ["reds", "blues"])
@pytest.mark.parametrize("name", sorted(OTHER_POINT_TAKERS))
def test_a_matching_of_other_points_is_refused(name, differing):
    with pytest.raises(ValueError, match="a matching of other points"):
        OTHER_POINT_TAKERS[name](*_other_points(differing))


def _lexsorted(pts):
    """The lexsort the stable argsort on x replaced, as the oracle."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    return pts[np.lexsort((pts[:, 1], pts[:, 0]))]


def _orderings():
    rng = derived_rng(17)
    base = np.column_stack([rng.uniform(0, 10, 40), rng.uniform(0, 1, 40)])
    tied = base.copy()
    tied[::3, 0] = np.round(tied[::3, 0])  # runs of equal x with distinct y
    tied[5:9, 0] = 2.0
    zeros = np.array([[0.0, 0.5], [-0.0, 0.25], [0.0, -0.0], [-0.0, 0.75], [1.0, 0.0]])
    for pts in (base, tied, zeros):
        srt = _lexsorted(pts)
        yield from (srt, srt[::-1], pts, pts[rng.permutation(len(pts))])


def test_canonical_order_is_the_lexsort():
    tied = 0
    for pts in _orderings():
        order = canonical_order(pts)
        assert np.array_equal(order, np.lexsort((pts[:, 1], pts[:, 0])))
        want = _lexsorted(pts)
        got = ColoredPointSet(Domain.strip(-1, 11), reds=pts, blues=[], seed=0).reds
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays where it was
        tied += bool((np.diff(np.sort(pts[:, 0])) == 0).any())
    assert tied >= 8  # the lexsort branch ran on the tied and signed-zero inputs


@pytest.mark.parametrize("kind", [None, "stable"])
def test_canonical_order_is_the_lexsort_on_random_sets(kind):
    # where no two x are equal any sort of x gives the order, and the
    # default sort ties nothing; repeated x, with different or equal y and
    # with signed zeros, take the lexsort. Half the sets are two sorted
    # lists end to end, as the merges pass them
    rng = derived_rng(19)
    repeated = 0
    for trial in range(400):
        n = int(rng.integers(0, 40))
        pts = (rng.uniform(-5, 5, (n, 2)),
               np.column_stack([rng.integers(-3, 4, n) * 0.5, rng.uniform(-1, 1, n)]),
               rng.integers(-2, 3, (n, 2)) * 0.5,
               rng.choice([-0.0, 0.0, 0.5], (n, 2)))[trial % 4]
        if trial % 8 >= 4:
            pts = np.concatenate([_lexsorted(pts[: n // 2]), _lexsorted(pts[n // 2:])])
        repeated += len(np.unique(pts[:, 0])) < n
        assert np.array_equal(canonical_order(pts, kind=kind),
                              np.lexsort((pts[:, 1], pts[:, 0])))
    assert repeated > 250


def test_duplicates_within_and_across_colours_rejected():
    rng = derived_rng(18)
    pts = np.column_stack([rng.uniform(0, 10, 30), rng.uniform(0, 1, 30)])
    pts[::4, 0] = np.round(pts[::4, 0])
    reds, blues = pts[:15], pts[15:]
    assert ColoredPointSet(Domain.strip(-1, 11), reds, blues, seed=0).n_red == 15
    for k in (0, 4, 14):
        for r, b in ((np.vstack([reds, reds[k]]), blues), (reds, np.vstack([blues, blues[k]])),
                     (reds, np.vstack([blues, reds[k]])), (np.vstack([reds, blues[k]]), blues)):
            with pytest.raises(ValueError, match="duplicate points"):
                ColoredPointSet(Domain.strip(-1, 11), r[::-1], b, seed=0)
    # an equal x in both colours with different y is no duplicate
    same_x = np.array([[reds[0, 0], 1 - reds[0, 1]]])
    assert ColoredPointSet(Domain.strip(-1, 11), reds, np.vstack([blues, same_x]),
                           seed=0).n_blue == 16
