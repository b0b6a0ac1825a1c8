import importlib.machinery
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import poisson_matching

from poisson_matching import assignment, matching
from poisson_matching.assignment import (BIG, EPS_TIE, ROW_BLOCK, SMALL_MAX, _pair_distances,
                                         assign_in_groups, max_cardinality_min_cost,
                                         min_cost_perfect)
from poisson_matching.geometry import Domain
from poisson_matching.hierarchy import aligned_window, build_block_system, run_hierarchical
from poisson_matching.matching import ONE_COLOR, Matching
from poisson_matching.sampling import ColoredPointSet, SampleConfig, derived_rng, sample
from poisson_matching.verify import box_rematch_experiment, minimality_certificate
from poisson_matching.walks import (cut_time_matching, excursion_matching, laminate_strips,
                                    one_color_pairing, polygonal_arcs, zero_block_matching)
from cases import assert_cycle_witness, lattice, solver_spy
from oracles import (BRUTE_FORCE_MAX, added, brute_force_min, cost_matrix, least_injection,
                     min_cost_pairs, points, enumerated_least, tied)

SQUARE_REDS = np.array([[0.0, 0.0], [1.0, 0.0]])
SQUARE_BLUES = np.array([[0.0, 1.0], [1.0, 1.0]])


class TestMinCostPerfect:
    def test_single_pair(self):
        m = min_cost_perfect([[0, 0]], [[1, 0]])
        assert m.edges == [(0, 0)]
        assert m.total_length == pytest.approx(1.0)

    def test_square_prefers_vertical_pairs(self):
        m = min_cost_perfect(SQUARE_REDS, SQUARE_BLUES)
        assert sorted(m.edges) == [(0, 0), (1, 1)]
        assert m.total_length == pytest.approx(2.0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            min_cost_perfect([[0, 0]], [])

    def test_empty(self):
        assert min_cost_perfect(np.empty((0, 2)), np.empty((0, 2))).edges == []


def _brute_force_loop(reds, blues):
    """``brute_force_min``'s edges by a scan of ``itertools.permutations``,
    each total added in a loop over ``cdist``'s entries: the first strict
    minimum."""
    rows = cdist(points(reds), points(blues)).tolist()
    best, best_cost = None, math.inf
    for perm in itertools.permutations(range(len(rows))):
        c = 0.0
        for i, j in enumerate(perm):
            c += rows[i][j]
        if c < best_cost:
            best, best_cost = perm, c
    return list(enumerate(best))


class TestBruteForce:
    def test_equals_the_permutation_loop(self):
        # random reals, small lattices full of exact ties, and lattices
        # nudged by less than EPS_TIE, whose near-ties the float totals decide
        rng = derived_rng(191)
        for n in range(1, 8):
            for _ in range(4):
                lattice = rng.integers(0, 3, (2, n, 2)) * 0.1
                for reds, blues in (rng.uniform(0, 3, (2, n, 2)), lattice,
                                    lattice + rng.integers(0, 3, (2, n, 2)) * 1e-10):
                    assert brute_force_min(reds, blues)[0] == _brute_force_loop(reds, blues)

    def test_empty(self):
        assert brute_force_min(np.empty((0, 2)), np.empty((0, 2))) == ([], 0.0)

    def test_collinear_pairs(self):
        edges, total = brute_force_min([[0, 0], [2, 0]], [[1, 0], [3, 0]])
        assert sorted(edges) == [(0, 0), (1, 1)]
        assert total == pytest.approx(2.0)

    def test_factorial_guard(self):
        pts = np.random.default_rng(0).uniform(0, 1, (10, 2))
        with pytest.raises(ValueError):
            brute_force_min(pts, pts + 5)

    def test_size_mismatch(self):
        pts = np.random.default_rng(0).uniform(0, 1, (3, 2))
        with pytest.raises(ValueError, match="size mismatch"):
            brute_force_min(pts, pts[:2] + 5)

    def test_tie_rule_lexicographic(self):
        # two reds equidistant from two blues: both matchings cost
        # 2*sqrt(2) to the bit, and the first permutation in lexicographic
        # order, the identity, is returned
        reds = [[0.0, 0.0], [2.0, 0.0]]
        blues = [[1.0, 1.0], [1.0, -1.0]]
        assert brute_force_min(reds, blues) == ([(0, 0), (1, 1)], 2 * math.sqrt(2))

    def test_independent_of_the_solvers_kernel(self, monkeypatch):
        # a fault in the kernel loader must not reach the oracle: with a
        # wrong distance kernel the solvers go wrong, the oracle does not
        rng = derived_rng(59)
        reds, blues = rng.uniform(0, 5, (7, 2)), rng.uniform(0, 5, (7, 2))
        want = _brute_force_loop(reds, blues)
        kernel = assignment._kernel

        def wrong(key):
            if key == "cdist":
                return lambda p, q, out=None: np.subtract(1e3, cdist(p, q), out=out)
            return kernel(key)

        monkeypatch.setattr(assignment, "_kernel", wrong)
        assert max_cardinality_min_cost(reds, blues).edges != want  # the fault is real
        assert brute_force_min(reds, blues)[0] == want
        assert minimality_certificate(Matching(reds, blues, want)).passed
        swapped = [(0, want[1][1]), (1, want[0][1]), *want[2:]]
        assert_cycle_witness(Matching(reds, blues, swapped))


class TestMaxCardinalityMinCost:
    def test_nearest_red_used(self):
        m = max_cardinality_min_cost([[0, 0], [5, 0]], [[0.1, 0]])
        assert m.edges == [(0, 0)]
        assert m.unmatched_reds == [1]

    def test_empty_blues(self):
        m = max_cardinality_min_cost([[0, 0]], np.empty((0, 2)))
        assert m.edges == [] and m.unmatched_reds == [0]
        assert m.kind == "partial"

    def test_matches_injection_oracle(self):
        rng = derived_rng(23)
        for _ in range(50):
            reds = rng.uniform(0, 1, (5, 2))
            blues = rng.uniform(0, 1, (3, 2))
            m = max_cardinality_min_cost(reds, blues)
            assert m.total_length == pytest.approx(least_injection(blues, reds)[0], abs=1e-12)
            assert len(m.edges) == 3 and not m.unmatched_blues

    def test_pairs_are_the_matching_edges(self):
        rng = derived_rng(29)
        reds = rng.uniform(0, 1, (6, 2))
        blues = rng.uniform(0, 1, (4, 2))
        pairs = max_cardinality_min_cost(reds, blues).edges
        assert pairs == sorted(pairs) == min_cost_pairs(reds, blues)

    def test_excess_blues_left_unmatched(self):
        m = max_cardinality_min_cost([[0.0, 0.0]], [[0.1, 0.0], [5.0, 0.0]])
        assert m.edges == [(0, 0)]
        assert m.unmatched_blues == [1]
        assert m.kind == "partial"

    def test_balanced_input_is_perfect(self):
        rng = derived_rng(31)
        reds = rng.uniform(0, 1, (4, 2))
        blues = rng.uniform(0, 1, (4, 2))
        m = max_cardinality_min_cost(reds, blues)
        assert m.kind == "perfect"
        assert m.total_length == pytest.approx(
            min_cost_perfect(reds, blues).total_length, abs=1e-9)

    def test_empty_side(self):
        m = max_cardinality_min_cost(np.empty((0, 2)), [[1, 0]])
        assert m.edges == [] and m.unmatched_blues == [0]

    def test_both_empty_is_perfect(self):
        m = max_cardinality_min_cost(np.empty((0, 2)), np.empty((0, 2)))
        assert m.edges == [] and m.kind == "perfect"


class TestDenseSolvePeakMemory:
    """A dense solve holds one n-by-n cost matrix: no reordered copy, and
    only row blocks besides."""

    N = 600

    @staticmethod
    def _traced_peak(solve) -> int:
        min_cost_perfect(SQUARE_REDS, SQUARE_BLUES)  # load scipy outside the trace
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solve()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_perfect_solve(self):
        rng = derived_rng(137)
        reds, blues = rng.uniform(0, 25, (self.N, 2)), rng.uniform(0, 25, (self.N, 2))
        peak = self._traced_peak(lambda: min_cost_perfect(reds, blues))
        assert peak < 1.3 * self.N * self.N * 8

    def test_mandatory_points_of_both_colors(self):
        # 300 of 600 reds and 250 of 570 blues mandatory: a padded 600 x 600 matrix
        rng = derived_rng(139)
        reds, blues = rng.uniform(0, 25, (600, 2)), rng.uniform(0, 25, (570, 2))
        peak = self._traced_peak(
            lambda: assign_in_groups(reds, [0, 600], blues, [0, 570], ([300], [250])))
        assert peak < 1.3 * self.N * self.N * 8


def _cost_matrices():
    """Cost matrices of random reals, tie-rich lattices, rectangular shapes,
    and the empty and one-row edge cases."""
    rng = derived_rng(71)
    for n in (2, 7, 40, 150):
        yield rng.uniform(0.0, 10.0, (n, n))
    for width, n in ((2, 6), (3, 9), (5, 25), (6, 60)):
        yield cdist(lattice(rng, width, n, False), lattice(rng, width, n, False))
    for rows, cols in ((3, 8), (20, 45), (45, 20), (1, 9), (9, 1)):
        yield rng.uniform(0.0, 10.0, (rows, cols))
    yield np.zeros((1, 5))  # one row, every column tied
    yield np.empty((0, 0))
    yield np.empty((0, 4))


class TestCompiledKernels:
    """The solves call scipy's compiled functions, loaded without the
    subpackages' inits; their output equals the public functions'."""

    @pytest.fixture
    def public_only(self, monkeypatch):
        """The compiled-module lookup fails, so ``_kernel`` falls back to the
        public imports; the cache is cleared before and after."""
        def use(lookup):
            monkeypatch.setattr(assignment, "_extension", lookup)
            assignment._kernel.cache_clear()
        yield use
        monkeypatch.undo()
        assignment._kernel.cache_clear()

    def test_assignment_equals_public_routine(self):
        solve = assignment._kernel("assign")
        for cost in _cost_matrices():
            rows, cols = solve(cost)
            want_rows, want_cols = linear_sum_assignment(cost)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)

    def test_distances_equal_public_cdist(self):
        rng = derived_rng(72)
        for n, m in ((0, 0), (0, 3), (3, 0), (1, 9), (30, 7)):
            p, q = rng.uniform(-50.0, 50.0, (n, 2)), rng.uniform(-50.0, 50.0, (m, 2))
            assert np.array_equal(assignment._kernel("cdist")(p, q), cdist(p, q))

    def test_kernels_come_from_the_compiled_modules(self):
        for key, (module, name, _, _) in assignment._KERNELS.items():
            compiled = assignment._extension(module)
            if compiled is not None:  # else this scipy is laid out otherwise
                assert assignment._kernel(key) is getattr(compiled, name)

    def test_lookup_finds_only_compiled_modules(self):
        assert assignment._extension("scipy.optimize._no_such_module") is None
        assert "json.tool" not in sys.modules
        assert assignment._extension("json.tool") is None  # pure Python
        assert "json.tool" not in sys.modules

    @staticmethod
    def _solve_all():
        """The partners of solves with equal sides, with unequal sides, and
        with mandatory points of both colors, on random and lattice points."""
        rng = derived_rng(73)
        problems = [(rng.uniform(0, 10, (n, 2)), rng.uniform(0, 10, (n, 2)))
                    for n in (1, 5, 30, 120)]
        problems += [(lattice(rng, w, n, False), lattice(rng, w, n, False))
                     for w, n in ((3, 9), (5, 25))]
        reserves = [rng.uniform(0, 10, (k, 2)) for k in (4, 9)]

        def mandatory(r, b):  # r[:2] and b[:1] mandatory, the reserves after them
            must = ([len(r[:2])], [1])
            r, b = np.concatenate([r[:2], reserves[0]]), np.concatenate([b[:1], reserves[1]])
            return assign_in_groups(r, [0, len(r)], b, [0, len(b)], must).tolist()

        return ([min_cost_perfect(r, b).edges for r, b in problems],
                [max_cardinality_min_cost(r, b[:len(b) // 2 + 1]).edges for r, b in problems],
                [mandatory(r, b) for r, b in problems])

    @pytest.mark.parametrize("lookup", [lambda name: None,
                                        lambda name: types.ModuleType(name)],
                             ids=["no_module", "no_function"])
    def test_public_fallback_gives_equal_partners(self, public_only, lookup):
        compiled = self._solve_all()
        public_only(lookup)
        assert assignment._kernel("assign") is linear_sum_assignment
        assert assignment._kernel("cdist") is cdist
        assert self._solve_all() == compiled

    def test_failed_load_falls_back_to_public(self, public_only, monkeypatch):
        # a compiled module that cannot load without scipy's top-level init
        # (a wheel whose init adds the DLL directory): no module, no
        # sys.modules entry, and the public functions' partners
        def fail(loader, spec):
            raise ImportError(f"DLL load failed while importing {spec.name}")

        compiled = self._solve_all()
        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", fail)
        for module, *_ in assignment._KERNELS.values():
            monkeypatch.delitem(sys.modules, module, raising=False)
            assert assignment._extension(module) is None
            assert module not in sys.modules
        public_only(assignment._extension)
        assert assignment._kernel("assign") is linear_sum_assignment
        assert assignment._kernel("cdist") is cdist
        assert self._solve_all() == compiled

    def test_public_import_after_private_load(self):
        code = """
import sys
import numpy as np
from poisson_matching.assignment import _kernel, min_cost_perfect
rng = np.random.default_rng(5)
reds, blues = rng.random((40, 2)), rng.random((40, 2))
edges = min_cost_perfect(reds, blues).edges
assert not {"scipy", "scipy.optimize", "scipy.spatial"} & set(sys.modules)
import scipy.optimize
from scipy.spatial.distance import cdist
cost = cdist(reds, blues)
assert np.array_equal(cost, _kernel("cdist")(reds, blues))
assert np.array_equal(scipy.optimize.linear_sum_assignment(cost)[1], _kernel("assign")(cost)[1])
assert min_cost_perfect(reds, blues).edges == edges
"""
        root = os.path.dirname(os.path.dirname(os.path.abspath(poisson_matching.__file__)))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path})
        assert res.returncode == 0, res.stderr


# --- The solver against the oracles -----------------------------------------
# One checker, ``_check_grouped``, watches an ``assign_in_groups`` call with
# ``cases.solver_spy`` and checks every problem of it; a one-problem call is
# a one-group batch. ``TestAssignInGroups::test_family`` drives it over every
# shape, kind of point and size of problem, and the other tests over cases of
# their own.

def _laid(groups):
    """Point lists laid end to end, and their offsets."""
    groups = [points(g) for g in groups]
    return np.concatenate(groups), np.cumsum([0] + [len(g) for g in groups])


def _mandatory(nr, nb, must, g):
    """Problem g's counts of mandatory reds and blues, of its nr reds and nb
    blues: ``must``'s, or with ``must`` None its smaller side's (its reds
    where the sides are equal)."""
    if must is None:
        return (nr, 0) if nr <= nb else (0, nb)
    return int(must[0][g]), int(must[1][g])


def _small_problems(reds, red_start, blues, blue_start, must=None) -> dict:
    """The problems the small-problem pass settles, ascending, each with
    its small side's points and its other side's: those whose mandatory
    points, 1 to SMALL_MAX of them, are all of one color, against every
    point of the other color."""
    small = {}
    for g in range(len(red_start) - 1):
        r, b = reds[red_start[g]:red_start[g + 1]], blues[blue_start[g]:blue_start[g + 1]]
        mr, mb = _mandatory(len(r), len(b), must, g)
        if not (mr and mb) and 0 < mr + mb <= SMALL_MAX:
            small[g] = (r[:mr], b) if mr else (b[:mb], r)
    return small


def _check_problem(reds, blues, got, must=None) -> bool:
    """``got``, one problem's (red, blue) pairs by red, against the oracle's
    (``oracles.min_cost_pairs``): equal where the problem is not tied, and
    where it is, a least matching: as many pairs (``must`` None), or every
    mandatory point matched and no two reserve points paired (``must =
    (mr, mb)``), a total within EPS_TIE of the oracle's, and a passing
    minimality certificate. Returns whether it is tied."""
    want = min_cost_pairs(reds, blues, must)
    if not tied(reds, blues, must):
        assert got == want
        return False
    got, want = Matching(reds, blues, got), Matching(reds, blues, want)
    if must is None:
        assert len(got.edges) == len(want.edges)
    else:
        r, b = got._edge_array().T
        assert {*range(must[0])} <= {*r.tolist()} and {*range(must[1])} <= {*b.tolist()}
        assert ((r < must[0]) | (b < must[1])).all()
    assert abs(got.total_length - want.total_length) <= EPS_TIE
    assert minimality_certificate(got).passed
    return True


def _check_grouped(reds, red_start, blues, blue_start, must=None):
    """Solve the problems in one ``assign_in_groups`` call, watched by
    ``cases.solver_spy``, and check each: its pairs pass ``_check_problem``;
    with equal sides and ``must`` None, up to BRUTE_FORCE_MAX points a side,
    its total is within EPS_TIE of ``brute_force_min``'s, and with ``must``
    and at most six points, within 1e-12 of ``enumerated_least``'s. The
    small-problem pass settles exactly the ``_small_problems``, in order,
    each at its least total to the bit (``least_injection``) where its
    other side has at most 12 points. Every other problem with a mandatory
    point reaches the kernel, in order, with its cost matrix in the solver's
    row order (``assignment._scattered``): its mandatory points against
    every point of the other color, or, with mandatory points of both
    colors, the padded matrix ``_pad`` writes, BIG in its forbidden cells.
    Returns the spy, with each problem's (red, blue) pairs within it
    (``pairs``), the problems the pass settled (``small``) and the tied
    ones (``tied``)."""
    with solver_spy() as spy:
        got = assign_in_groups(reds, red_start, blues, blue_start, must)
    small = _small_problems(reds, red_start, blues, blue_start, must)
    assert [g for groups, _ in spy.batches for g in groups] == list(range(len(small)))
    assert len(spy.settled) == len(small)
    for (S, L), (s, l) in zip(spy.settled, small.values()):
        assert np.array_equal(S, s) and np.array_equal(L, l)
    spy.pairs, spy.small, spy.tied, want, padded = [], list(small), [], [], []
    for g in range(len(red_start) - 1):
        a, a1, b0, b1 = red_start[g], red_start[g + 1], blue_start[g], blue_start[g + 1]
        r, b = reds[a:a1], blues[b0:b1]
        mr, mb = _mandatory(len(r), len(b), must, g)
        m = None if must is None else (mr, mb)  # as the oracles take it
        pairs = [(i, j - b0) for i, j in enumerate(got[a:a1].tolist()) if j >= 0]
        spy.pairs.append(pairs)
        if _check_problem(r, b, pairs, m):
            spy.tied.append(g)
        total = added(cdist(r, b)[i, j] for i, j in pairs)
        if must is None and len(r) == len(b) <= BRUTE_FORCE_MAX:
            assert abs(total - brute_force_min(r, b)[1]) <= EPS_TIE
        elif must is not None and len(r) + len(b) <= 6:
            assert total == pytest.approx(enumerated_least(r, b, m), abs=1e-12)
        if g in small:
            S, L = small[g]
            mine = pairs if mr else sorted((j, i) for i, j in pairs)
            if len(L) <= 12:
                assert added(cdist(S, L)[i, j] for i, j in mine) == least_injection(S, L)[0]
        elif mr + mb:
            cost = (cost_matrix(r, b, m) if mr and mb else cost_matrix(r[:mr], b) if mr
                    else cost_matrix(b[:mb], r))
            want.append(np.where(np.isinf(cost), BIG, cost)[assignment._scattered(len(cost))])
            padded.append(bool(mr and mb))
    assert len(spy.matrices) == len(want)
    for cost, want_cost in zip(spy.matrices, want):
        assert cost.shape == want_cost.shape and np.array_equal(cost, want_cost)
    assert spy.padded == padded
    return spy


SHAPES = ["equal", "unequal", "one_color", "both_colors"]
KINDS = ["reals", "distinct", "repeats"]
# by size: the least and most rows of a problem's cost matrix, and by shape
# how many problems of each kind
SIZES = {
    "small": (1, SMALL_MAX, {"equal": (270, 550, 150), "unequal": (1150, 2050, 100),
                             "one_color": (1350, 1230, 100), "both_colors": (50, 50, 50)}),
    "up_to_12": (0, 12, {"equal": (200, 1000, 700), "unequal": (700, 950, 100),
                         "one_color": (700, 300, 1200), "both_colors": (220, 50, 200)}),
    "row_block": (13, ROW_BLOCK + 1, {"equal": (10, 100, 180), "unequal": (10, 10, 10),
                                      "one_color": (10, 10, 10), "both_colors": (40, 10, 40)}),
    "row_blocks": (ROW_BLOCK + 2, 2 * ROW_BLOCK + 7, {"equal": (4, 4, 12), "unequal": (4, 4, 4),
                                                      "one_color": (4, 4, 4),
                                                      "both_colors": (4, 4, 4)}),
}
# how many problems at least are tied where the points are a lattice's: one
# where not listed
LEAST_TIED = {("equal", "distinct", "up_to_12"): 60, ("equal", "repeats", "up_to_12"): 90,
              ("equal", "repeats", "row_block"): 6, ("equal", "repeats", "row_blocks"): 5,
              ("unequal", "distinct", "up_to_12"): 30, ("both_colors", "repeats", "up_to_12"): 30}


def _family(rng, shape, kind, size):
    """``SIZES[size]``'s problems of one ``shape`` and ``kind``, laid end to
    end as ``assign_in_groups`` takes them: (reds, red_start, blues,
    blue_start, must). A problem's cost matrix has n rows, n drawn from the
    size's range, the first problem's its top. By ``shape``:

    - ``equal``: n points a side, ``must`` None;
    - ``unequal``: n points on one side and 1 to 9 more on the other,
      ``must`` None;
    - ``one_color``: n mandatory points and 0 to 3 reserve of one color,
      against n to n + 8 points of the other, all reserve;
    - ``both_colors``: max(n, 1) points on one side, 1 to as many on the
      other, and of each color 1 to the smaller count mandatory.

    Either side is the red one, at random. By ``kind``, the points are
    uniform ``reals``, or lattice points, ``distinct`` within a color or
    drawn with ``repeats``, of a grid w points wide, w**2 at least the
    larger side and w at most 2 over the least such, so they tie often."""
    lo, hi, counts = SIZES[size]
    count = counts[shape][KINDS.index(kind)]
    reds, blues, must = [], [], []
    for n in [hi, *rng.integers(lo, hi + 1, count - 1).tolist()]:
        d, e = (int(k) for k in rng.integers(0, [9, 4]))
        if shape == "both_colors":
            n = max(n, 1)
            m = int(rng.integers(1, n + 1))
            sizes = [n, m, *rng.integers(1, m + 1, 2).tolist()]
        else:
            sizes = {"equal": [n, n, n, 0], "unequal": [n, n + 1 + d, n, 0],
                     "one_color": [n + e, n + d, n, 0]}[shape]
        if rng.random() < 0.5:
            sizes = [sizes[1], sizes[0], sizes[3], sizes[2]]
        w = math.isqrt(max(sizes[0], sizes[1], 1) - 1) + 1 + int(rng.integers(0, 3))
        for k, out in zip(sizes, (reds, blues)):
            out.append(rng.uniform(0, w, (k, 2)) if kind == "reals"
                       else lattice(rng, w, k, kind == "distinct"))
        must.append(sizes[2:])
    return (*_laid(reds), *_laid(blues),
            None if shape in ("equal", "unequal") else tuple(np.array(must).T))


def _batch(rng, sizes, on_lattice):
    """Groups of the given (reds, blues) sizes laid end to end: points of the
    4x4 integer lattice where ``on_lattice[g]`` holds, where tied totals are
    common, and uniform reals elsewhere. Returns (reds, red_start, blues,
    blue_start)."""
    reds, blues = [], []
    for (nr, nb), lat in zip(sizes, on_lattice):
        for n, out in ((nr, reds), (nb, blues)):
            out.append(rng.integers(0, 4, (n, 2)).astype(float) if lat
                       else rng.uniform(0, 4, (n, 2)))
    nr, nb = np.array(sizes, dtype=np.int64).reshape(-1, 2).T
    return (np.concatenate(reds), np.concatenate([[0], np.cumsum(nr)]),
            np.concatenate(blues), np.concatenate([[0], np.cumsum(nb)]))


def _must(rng, red_start, blue_start):
    """Mandatory counts of a feasible problem for every group, some with
    none, some with points of one color, some of both."""
    nr, nb = np.diff(red_start), np.diff(blue_start)
    mr = rng.integers(0, np.minimum(nr, nb) + 1)
    mb = np.where(rng.random(len(nr)) < 0.5, 0, rng.integers(0, np.minimum(nb, nr - mr) + 1))
    return mr, mb


class TestAssignInGroups:
    @pytest.mark.parametrize("size", list(SIZES))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_family(self, shape, kind, size):
        # every problem is _check_grouped's; uniform reals never tie, lattice points often
        rng = derived_rng(151, SHAPES.index(shape), KINDS.index(kind), list(SIZES).index(size))
        run = _check_grouped(*_family(rng, shape, kind, size))
        least = LEAST_TIED.get((shape, kind, size), 1)
        assert run.tied == [] if kind == "reals" else len(run.tied) >= least

    def test_tied_three_cycle_is_not_undone(self):
        # Three matchings of equal length: min_cost_perfect and brute force
        # each return one of least total, the same one on every call.
        reds = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]])
        blues = np.array([[1.0, 1.0], [0.0, 2.0], [1.0, 0.0]])
        fast = min_cost_perfect(reds, blues)
        slow = Matching(reds, blues, brute_force_min(reds, blues)[0])
        assert fast.total_length == slow.total_length
        assert _check_grouped(reds, [0, 3], blues, [0, 3]).tied == [0]
        assert minimality_certificate(fast).passed and minimality_certificate(slow).passed
        assert all(min_cost_perfect(reds, blues).edges == fast.edges for _ in range(5))
        assert all(brute_force_min(reds, blues)[0] == slow.edges for _ in range(5))

    def test_tied_group_between_untied_ones(self):
        # the middle group's two matchings both have length 2: the
        # small-problem pass settles it with one of them, as on its own, and
        # the groups around it reach the kernel and are solved as on their own
        rng = derived_rng(157)
        tied_reds, tied_blues = [[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]
        reds = np.concatenate([rng.uniform(0, 4, (9, 2)), tied_reds, rng.uniform(0, 4, (7, 2))])
        blues = np.concatenate([rng.uniform(0, 4, (9, 2)), tied_blues, rng.uniform(0, 4, (7, 2))])
        start = np.array([0, 9, 11, 18])
        run = _check_grouped(reds, start, blues, start)
        assert run.small == run.tied == [1] and [c.shape for c in run.matrices] == [(9, 9), (7, 7)]
        tied = min_cost_perfect(tied_reds, tied_blues)
        assert tied.edges == run.pairs[1] and tied.total_length == 2.0

    def test_groups_with_an_empty_side(self):
        rng = derived_rng(163)
        sizes = [(3, 0), (4, 5), (0, 2), (0, 0), (2, 2)]
        reds, rs, blues, bs = _batch(rng, sizes, [False] * 5)
        # the two-point problem is the pass's, the other reaches the kernel
        run = _check_grouped(reds, rs, blues, bs)
        assert len(run.matrices) == 1 and run.small == [4]
        # square problems with no points have no pairs and reach no kernel;
        # the three-point one is the pass's
        square = [(0, 0), (3, 3), (0, 0)]
        run = _check_grouped(*_batch(rng, square, [False] * 3))
        assert run.matrices == [] and run.small == [1]
        # problems with no mandatory point: no pairs and no kernel call
        reds, rs, blues, bs = _batch(rng, sizes, [False] * 5)
        must = (np.array([0, 2, 0, 0, 0]), np.array([0, 1, 0, 0, 0]))
        run = _check_grouped(reds, rs, blues, bs, must)
        assert len(run.matrices) == 1 and run.small == []
        assert not any(run.pairs[g] for g in (0, 2, 3, 4))
        none = np.empty((0, 2))  # and a call with no problem
        assert len(assign_in_groups(none, [0], none, [0])) == 0

    def test_mandatory_points_of_one_color_are_the_rows(self):
        # 5 mandatory points of 7 against 8 of the other color: the kernel
        # gets their 5 x 8 matrix, not a padded 8 x 8 one, and no reserve
        # point of their color is matched; reds mandatory, then blues
        rng = derived_rng(191)
        seven, eight = rng.uniform(0, 4, (7, 2)), rng.uniform(0, 4, (8, 2))
        for reds, blues, must in ((seven, eight, ([5], [0])), (eight, seven, ([0], [5]))):
            run = _check_grouped(reds, [0, len(reds)], blues, [0, len(blues)], must)
            assert [c.shape for c in run.matrices] == [(5, 8)] and run.small == run.tied == []
            matched = [i if must[0][0] else j for i, j in run.pairs[0]]
            assert len(matched) == 5 and max(matched) < 5

    @pytest.mark.parametrize("spare", [1 << 16, 1], ids=["default", "tiny"])
    def test_group_larger_than_the_buffer(self, monkeypatch, spare):
        # every matrix of a call is a prefix of one reused buffer, so a
        # problem must write every entry it reads: the buffer starts as NaN,
        # large enough for every problem ("default") or grown by the call
        # ("tiny"), and the problems grow, shrink and switch sides, so each
        # finds the entries of a different shape before it
        rng = derived_rng(173)
        sizes = [(5, 7), (40, 25), (9, 4), (60, 90), (6, 6), (30, 12), (4, 5), (70, 66)]
        for mandatory in (False, True):
            reds, rs, blues, bs = _batch(rng, sizes, (np.arange(8) % 3 == 0).tolist())
            must = _must(rng, rs, bs) if mandatory else None
            monkeypatch.setattr(assignment, "_spare", [np.full(spare, np.nan)])
            # partners and kernel inputs against the oracle's one-problem solves
            assert len(_check_grouped(reds, rs, blues, bs, must).matrices) >= 6

    def test_one_spare_kept_up_to_the_cap(self, monkeypatch):
        rng = derived_rng(179)
        monkeypatch.setattr(assignment, "_spare", [])
        monkeypatch.setattr(assignment, "SPARE_ENTRIES", 30 * 30)
        kept = []
        for n in (5, 20, 12, 31, 8):
            reds, blues = rng.uniform(0, 9, (n, 2)), rng.uniform(0, 9, (n, 2))
            assign_in_groups(reds, [0, n], blues, [0, n])
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
        want = [assign_in_groups(r, [0, len(r)], b, [0, len(b)])
                for r, b in problems]
        wrong = []

        def solve(k):
            for _ in range(15):
                r, b = problems[k]
                got = assign_in_groups(r, [0, len(r)], b, [0, len(b)])
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
            assign_in_groups(pts, [0, 3], pts[:1], [0, 1], ([2], [0]))
        for must in (([4], [0]), ([0], [4])):  # more mandatory points than points
            with pytest.raises(ValueError, match="more mandatory points"):
                assign_in_groups(pts, [0, 3], pts, [0, 3], must)
        with pytest.raises(ValueError, match="need as many groups of blues as of reds"):
            assign_in_groups(pts, [0, 1, 3], pts, [0, 3])


class TestSmallProblemPass:
    """The small-problem pass of assign_in_groups on cases of its own: its
    distances, near ties, a least injection that needs a point's s-th
    nearest, many candidates, and its batches."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 50.0, 1e4])
    def test_pair_distances_equal_cdist_bitwise(self, scale):
        rng = derived_rng(61)
        p = rng.uniform(-scale, scale, (300, 2))
        q = rng.uniform(-scale, scale, (300, 2))
        want = cdist(p, q)
        assert np.array_equal(_pair_distances(p[:, None], q), want)
        rows, cols = np.indices(want.shape).reshape(2, -1)
        got = _pair_distances(p[rows], q[cols])
        assert np.array_equal(got, want.ravel())

    @pytest.mark.parametrize("gap", [0.0, 0.5 * EPS_TIE, 1.5 * EPS_TIE, 4 * EPS_TIE])
    def test_near_ties_settle_at_the_least_total(self, gap):
        # one problem of each small size whose runner-up costs ``gap`` more:
        # the point at (0, 0) has a second candidate 1 + gap away; each is
        # settled at its least total (_check_grouped), and with a gap that
        # is the identity
        groups = [([[0, 0]], [[1, 0], [0, -1 - gap]]),
                  ([[0, 0], [10, 0]], [[1, 0], [10, 1], [0, -1 - gap]]),
                  ([[0, 0], [10, 0], [20, 0]],
                   [[1, 0], [10, 1], [20, 1], [0, -1 - gap], [30, 30]])]
        run = _check_grouped(*_laid(S for S, _ in groups), *_laid(L for _, L in groups))
        assert run.small == [0, 1, 2]
        if gap:
            assert run.pairs == [[(i, i) for i in range(s)] for s in (1, 2, 3)]

    @pytest.mark.parametrize("small,large", [
        ([[0, 0], [3, 0]], [[1, 0], [-1.2, 0], [5.5, 0]]),
        ([[0, 0], [1, 0], [2, 0]], [[1, 0.1], [1, -0.2], [-2, 0], [5, 0], [1, 3]]),
    ], ids=["two", "three"])
    def test_shared_nearest_needs_the_sth_nearest(self, small, large):
        # every point's nearest candidate is candidate 0, and the one least
        # injection gives a point of the s-point side its s-th nearest
        S, L = np.array(small, float), np.array(large, float)
        cost = cdist(S, L)
        assert (cost.argmin(axis=1) == 0).all()
        best = least_injection(S, L)[1]
        assert not tied(S, L)
        ranks = [np.argsort(cost[i], kind="stable").tolist().index(j) for i, j in enumerate(best)]
        assert max(ranks) == len(S) - 1
        run = _check_grouped(*_laid([S]), *_laid([L]))
        assert run.small == [0] and run.pairs == [list(enumerate(best))]

    def test_choices_give_each_point_one_of_its_s_nearest(self):
        for s in range(1, SMALL_MAX + 1):
            ways = assignment._choices(s).tolist()
            assert ways == [list(w) for w in itertools.product(range(s), repeat=s)]
            assert len(ways) == s ** s

    def test_many_candidates_against_enumeration(self):
        # small sides of one to three points against 50 to 60 candidates,
        # in one call, each problem's pairs the least of every injection
        rng = derived_rng(68)
        small = [rng.uniform(0, 6, (s, 2)) for s in (1, 2, 3, 3)]
        large = [rng.uniform(0, 6, (n, 2)) for n in (60, 55, 50, 52)]
        run = _check_grouped(*_laid(small), *_laid(large))
        assert run.small == [0, 1, 2, 3] and run.tied == []
        assert run.pairs == [list(enumerate(least_injection(S, L)[1]))
                             for S, L in zip(small, large)]

    def test_no_limit_on_the_large_side(self):
        rng = derived_rng(65)
        for s in range(1, SMALL_MAX + 1):
            S, L = rng.uniform(0, 50, (s, 2)), rng.uniform(0, 50, (400, 2))
            run = _check_grouped(*_laid([S]), *_laid([L]))  # the oracle's pairs
            assert run.small == [0] and run.tied == []

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_batches_change_nothing(self, block, monkeypatch):
        # problems go in batches of at most PAIR_BLOCK point pairs, or alone
        # where one has more; with a block of one pair every problem is a
        # batch, and the partners are the same, ties included
        problems = _family(derived_rng(66), "unequal", "repeats", "small")
        want = assign_in_groups(*problems)
        monkeypatch.setattr(assignment, "PAIR_BLOCK", block)
        with solver_spy() as spy:
            assert np.array_equal(assign_in_groups(*problems), want)
        assert len(spy.settled) == len(problems[1]) - 1  # every problem is the pass's
        assert all(pairs <= block or len(groups) == 1 for groups, pairs in spy.batches)

    def test_a_batch_over_pair_block_holds_one_problem(self):
        # 1, 8000 and 100 point pairs: the middle problem is over PAIR_BLOCK,
        # so it is a batch alone, and the last problem one of its own
        rng = derived_rng(67)
        small = [rng.uniform(0, 50, (s, 2)) for s in (1, 2, 1)]
        large = [rng.uniform(0, 50, (n, 2)) for n in (1, 4000, 100)]
        run = _check_grouped(*_laid(small), *_laid(large))
        assert run.small == [0, 1, 2]
        assert [groups for groups, _ in run.batches] == [[0], [1], [2]]
        assert all(len(groups) == 1 for groups, n in run.batches if n > assignment.PAIR_BLOCK)


# The batcher of assign_in_groups before one splitter served every size-capped
# batch. Kept verbatim as the oracle for ``_runs``.


def _old_batches(entries, cap):
    """Runs of consecutive problems whose matrices fit in ``cap`` entries
    together, in order; a problem larger than ``cap`` comes alone."""
    batch, used = [], 0
    for k, e in enumerate(entries):
        if batch and used + e > cap:
            yield batch
            batch, used = [], 0
        batch.append(k)
        used += e
    if batch:
        yield batch


class TestRuns:
    @staticmethod
    def _same(sizes, cap):
        got = [list(range(p0, p1)) for p0, p1 in assignment._runs(np.array(sizes, int), cap)]
        assert got == list(_old_batches(sizes, cap))
        return got

    def test_random_sizes(self):
        rng = derived_rng(68)
        over = alone = 0
        for _ in range(300):
            cap = int(rng.integers(0, 40))
            sizes = rng.integers(0, 50, int(rng.integers(0, 30)))
            sizes[rng.random(len(sizes)) < 0.3] = 0
            runs = self._same(sizes.tolist(), cap)
            over += int((sizes > cap).sum())
            alone += sum(len(run) == 1 and sizes[run[0]] > cap for run in runs)
        assert alone == over > 100  # every item over the cap is a run alone

    def test_edge_cases(self):
        assert self._same([], 5) == []
        assert self._same([0, 0, 0], 0) == [[0, 1, 2]]
        assert self._same([3, 0, 2, 0], 0) == [[0], [1], [2], [3]]
        assert self._same([0, 7, 0, 0, 2, 3], 5) == [[0], [1], [2, 3, 4, 5]]
        assert self._same([1, 8000, 100], 4096) == [[0], [1], [2]]


class TestFromEdges:
    """The one constructor: kind and unmatched points follow from the edges."""

    def test_full_cover_is_perfect(self):
        m = Matching(SQUARE_REDS, SQUARE_BLUES, [(1, 1), (0, 0)])
        assert m.edges == [(1, 1), (0, 0)]  # kept in the order given
        assert m.kind == "perfect"
        assert m.unmatched_reds == [] and m.unmatched_blues == []

    def test_uncovered_points_make_it_partial(self):
        m = Matching(SQUARE_REDS, SQUARE_BLUES, [(1, 0)])
        assert m.kind == "partial"
        assert m.unmatched_reds == [0] and m.unmatched_blues == [1]

    def test_empty_inputs_are_perfect(self):
        m = Matching(np.empty((0, 2)), np.empty((0, 2)), [])
        assert m.kind == "perfect" and m.edges == []

    def test_one_empty_side_is_partial(self):
        m = Matching(SQUARE_REDS, np.empty((0, 2)), [])
        assert m.kind == "partial" and m.unmatched_reds == [0, 1]

    def test_edges_are_validated(self):
        with pytest.raises(ValueError):
            Matching(SQUARE_REDS, SQUARE_BLUES, [(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            Matching(SQUARE_REDS, SQUARE_BLUES, [(0, 2)])

    def test_edges_are_python_int_tuples(self):
        # the constructions hand over sorted edges of plain ints, which the
        # JSON writer and the arc records take as they are
        ps = sample(SampleConfig(1, 1, Domain.strip(0, 40), 5))
        red_ps = sample(SampleConfig(1.3, 1, Domain.strip(0, 40), 5))
        n = min(ps.n_red, ps.n_blue)
        for m in (excursion_matching(ps), zero_block_matching(ps),
                  cut_time_matching(red_ps), max_cardinality_min_cost(ps.reds, ps.blues),
                  min_cost_perfect(ps.reds[:n], ps.blues[:n])):
            assert m.edges and m.edges == sorted(m.edges)
            assert all(type(i) is int and type(j) is int for i, j in m.edges)


# edges, and the error the per-edge scan raises first: a range failure is
# reported at the first out-of-range edge unless an earlier edge reuses a point
EDGE_ERRORS = [
    ([(0, 0), (1, 1)], None),
    ([(0, 0), (0, 1)], "a point appears in two edges"),
    ([(0, 0), (1, 0)], "a point appears in two edges"),
    ([(0, 2)], r"edge \(0,2\) out of range"),
    ([(-1, 0)], r"edge \(-1,0\) out of range"),
    ([(0, 0), (1, 1), (2, 0)], r"edge \(2,0\) out of range"),
    ([(0, 0), (0, 1), (5, 5)], "a point appears in two edges"),
    ([(5, 5), (0, 0), (0, 1)], r"edge \(5,5\) out of range"),
    ([(0, 0), (0, 5)], r"edge \(0,5\) out of range"),
    ([(0, 1), (1, 1)], "a point appears in two edges"),
    ([(0, None)], "edge indices must be integers"),
    ([(0, -1)], r"edge \(0,-1\) out of range"),
]


@pytest.mark.parametrize("edges,error", EDGE_ERRORS)
def test_matching_validation_order(edges, error):
    if error is None:
        Matching(SQUARE_REDS, SQUARE_BLUES, edges)
        return
    with pytest.raises(ValueError, match=error):
        Matching(SQUARE_REDS, SQUARE_BLUES, edges)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("edges,error", [(e, err) for e, err in EDGE_ERRORS
                                         if None not in itertools.chain(*e)])
def test_matching_validation_order_from_arrays(edges, error, dtype):
    # the checks and their order are those of the list: the first failing
    # edge decides the error
    e = np.array(edges, dtype=dtype)
    if error is None:
        assert Matching(SQUARE_REDS, SQUARE_BLUES, e).edges == edges
        return
    with pytest.raises(ValueError, match=error):
        Matching(SQUARE_REDS, SQUARE_BLUES, e)


def test_float_edge_array_rejected():
    with pytest.raises(ValueError, match="edge indices must be integers"):
        Matching(SQUARE_REDS, SQUARE_BLUES, np.array([[0.0, 0.0]]))


def test_array_edges_read_back_as_int_tuples():
    e = np.array([[1, 1], [0, 0]])
    m = Matching(SQUARE_REDS, SQUARE_BLUES, e)
    e[0] = [0, 0]  # the matching keeps a copy
    assert m.edges == [(1, 1), (0, 0)]
    assert all(type(i) is int and type(j) is int for i, j in m.edges)
    assert m.kind == "perfect"
    assert Matching(SQUARE_REDS, SQUARE_BLUES, np.empty((0, 2), dtype=np.int64)).edges == []


def test_list_edges_read_back_as_own_int_tuples():
    # the matching keeps no alias of the caller's list: a later append
    # changes none of its views, and the pairs come back as plain-int tuples
    e = [[0, 1]]
    m = Matching(SQUARE_REDS, SQUARE_BLUES, e)
    e.append([1, 0])
    assert m.edges == [(0, 1)]
    assert m.kind == "partial" and m.unmatched_reds == [1] and m.to_json()["edges"] == [[0, 1]]
    m = Matching(SQUARE_REDS, SQUARE_BLUES, [(np.int64(1), np.int32(0))])
    assert m.edges == [(1, 0)]
    assert all(type(i) is int and type(j) is int for i, j in m.edges)
    assert Matching(SQUARE_REDS, SQUARE_BLUES, []).edges == []


@pytest.mark.parametrize("edges", [[[[0, 0]]], [0, 0], [[]], [[0, 0, 0]]],
                         ids=["nested", "flat", "empty_row", "three_wide"])
def test_edges_of_another_shape_rejected(edges):
    with pytest.raises(ValueError, match="edge indices must be rows of two"):
        Matching(SQUARE_REDS, SQUARE_BLUES, edges)


# every public entry that takes point arrays reads them through one gate, so
# a (2, 3) array is not read as three points, nor a flat list as two
POINT_ENTRIES = {
    "Matching": lambda pts: Matching(pts, pts, []),
    "min_cost_perfect": lambda pts: min_cost_perfect(pts, pts),
    "max_cardinality_min_cost": lambda pts: max_cardinality_min_cost(pts, pts),
}


@pytest.mark.parametrize("name", sorted(POINT_ENTRIES))
def test_point_arrays_of_another_shape_rejected(name):
    entry = POINT_ENTRIES[name]
    for pts, shape in ((np.zeros((2, 3)), r"\(2, 3\)"), ([0.0, 1.0, 2.0, 3.0], r"\(4,\)")):
        with pytest.raises(ValueError, match=f"must be rows of two, got an array of shape {shape}"):
            entry(pts)
    entry([])


def test_one_color_edges_range_over_reds():
    Matching(SQUARE_REDS, np.empty((0, 2)), [(0, 1)], color_mode=ONE_COLOR)
    with pytest.raises(ValueError, match="out of range"):
        Matching(SQUARE_REDS, np.empty((0, 2)), [(0, 2)], color_mode=ONE_COLOR)


THREE_REDS = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


@pytest.mark.parametrize("edges,color_mode,error", [
    ([(0, 1), (1, 2)], ONE_COLOR, "a point appears in two edges"),
    ([(0, 1), (2, 0)], ONE_COLOR, "a point appears in two edges"),
    ([(1, 1)], ONE_COLOR, "a red is paired with itself"),
    ([(0, 1)], "three_color", "unknown color_mode"),
    ([(0, 1)], None, "unknown color_mode"),
])
def test_one_color_and_color_mode_checks(edges, color_mode, error):
    # one-color edges pair reds, so a red is used once over both columns
    with pytest.raises(ValueError, match=error):
        Matching(THREE_REDS, np.empty((0, 2)), edges, color_mode=color_mode)


def _construction(name, seed):
    """The matching the construction ``name`` builds on seed ``seed``'s
    inputs, or for ``seed`` None, one of the empty and one-color cases. Each
    test builds its case, so a fault in a construction fails its cases and
    no other test."""
    none = np.empty((0, 2))
    if seed is None:
        lone = ColoredPointSet(Domain.strip(0, 2), [[1.0, 0.5]], none)
        return {"empty": lambda: Matching(none, none, []),
                "no_blues": lambda: max_cardinality_min_cost(SQUARE_REDS, none),
                "one_color_lone_red": lambda: one_color_pairing(lone, 0),
                "one_color_empty": lambda: Matching(none, none, [], color_mode=ONE_COLOR),
                }[name]()
    strip = sample(SampleConfig(1, 1, Domain.strip(0, 40), seed))
    red_strip = sample(SampleConfig(1.3, 1, Domain.strip(0, 40), seed))
    plane = sample(SampleConfig(1, 1, Domain.plane(0, 6, 0, 6), seed))
    n = min(plane.n_red, plane.n_blue)
    small = plane.reds[:min(n, 6)], plane.blues[:min(n, 6)]

    def hierarchical():
        system = build_block_system(seed, 3)
        window = sample(SampleConfig(1, 1, aligned_window(system), seed))
        return run_hierarchical(window, seed, 3, system=system)[0]

    def laminate():
        bands = [(ps, m, polygonal_arcs(m, ps))
                 for ps, m in ((ps, excursion_matching(ps)) for ps in (strip, red_strip))]
        return laminate_strips(bands, 0.25)[1]

    return {
        "zero_block": lambda: zero_block_matching(strip),
        "one_color_0": lambda: one_color_pairing(strip, 0),
        "one_color_1": lambda: one_color_pairing(strip, 1),
        "cut_time": lambda: cut_time_matching(red_strip),
        "excursion_strip": lambda: excursion_matching(strip),
        "excursion_line": lambda: excursion_matching(
            sample(SampleConfig(1, 1, Domain.line(0, 40), seed))),
        "min_cost": lambda: min_cost_perfect(plane.reds[:n], plane.blues[:n]),
        "hierarchical": hierarchical,
        "laminate": laminate,
        "max_cardinality": lambda: max_cardinality_min_cost(plane.reds, plane.blues),
        "brute_force": lambda: Matching(*small, brute_force_min(*small)[0]),
        "box_rematch": lambda: box_rematch_experiment(strip, excursion_matching(strip),
                                                      3.0).matching,
    }[name]()


SEEDED_CASES = ["zero_block", "one_color_0", "one_color_1", "cut_time", "excursion_strip",
                "excursion_line", "min_cost", "hierarchical", "laminate", "max_cardinality",
                "brute_force", "box_rematch"]
CONSTRUCTION_CASES = [(name, seed) for seed in range(3) for name in SEEDED_CASES] + [
    (name, None) for name in ("empty", "no_blues", "one_color_lone_red", "one_color_empty")]
CASE_IDS = [f"{name}-{k}" for k, (name, _) in enumerate(CONSTRUCTION_CASES)]


@pytest.mark.parametrize("name,seed", CONSTRUCTION_CASES, ids=CASE_IDS)
def test_kind_and_unmatched_follow_from_edges(name, seed):
    m = _construction(name, seed)
    # the oracle: set difference over the edge ends
    if m.color_mode == ONE_COLOR:
        want_reds = set(range(len(m.reds))) - {k for e in m.edges for k in e}
        want_blues, want_kind = set(), "partial"
    else:
        want_reds = set(range(len(m.reds))) - {i for i, _ in m.edges}
        want_blues = set(range(len(m.blues))) - {j for _, j in m.edges}
        want_kind = "partial" if want_reds or want_blues else "perfect"
    assert m.unmatched_reds == sorted(want_reds)
    assert m.unmatched_blues == sorted(want_blues)
    assert m.kind == want_kind
    d = m.to_json()
    assert (d["kind"], d["unmatched_reds"], d["unmatched_blues"]) == (
        want_kind, sorted(want_reds), sorted(want_blues))


@pytest.mark.parametrize("name,seed", CONSTRUCTION_CASES, ids=CASE_IDS)
def test_to_json_reads_the_edges_once(name, seed):
    m = _construction(name, seed)
    # the fields as the properties give them, each reading the edge array
    # the constructor validated once; the writer builds no list of edge
    # tuples, which a matching built from an array never needs
    want = {"format": 1, "kind": m.kind, "color_mode": m.color_mode,
            "edges": [[int(i), int(j)] for i, j in m.edges],
            "total_length": m.total_length, "unmatched_reds": m.unmatched_reds,
            "unmatched_blues": m.unmatched_blues}
    fresh = Matching(m.reds, m.blues, m._edge_array(), color_mode=m.color_mode)
    got = fresh.to_json()
    assert "edges" not in vars(fresh)  # the cached tuple list was never built
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("name,seed", CONSTRUCTION_CASES, ids=CASE_IDS)
def test_unmatched_lists_scan_only_their_own_color(monkeypatch, name, seed):
    m = _construction(name, seed)
    scanned, unused = [], matching._unused

    def counting(n, used):
        scanned.append(n)
        return unused(n, used)

    monkeypatch.setattr(matching, "_unused", counting)
    reds = m.unmatched_reds
    assert scanned == [len(m.reds)]
    scanned.clear()
    blues = m.unmatched_blues
    assert scanned == ([] if m.color_mode == ONE_COLOR else [len(m.blues)])
    monkeypatch.undo()
    assert (reds, blues) == (m.unmatched_reds, m.unmatched_blues)


@pytest.mark.parametrize("name,seed", CONSTRUCTION_CASES, ids=CASE_IDS)
def test_list_and_array_built_matchings_agree(name, seed):
    m = _construction(name, seed)
    from_list = Matching(m.reds, m.blues, list(m.edges), color_mode=m.color_mode)
    from_array = Matching(m.reds, m.blues, np.array(m.edges, dtype=np.int64).reshape(-1, 2),
                          color_mode=m.color_mode)
    want = json.dumps(m.to_json(), sort_keys=True)
    assert json.dumps(from_list.to_json(), sort_keys=True) == want
    assert json.dumps(from_array.to_json(), sort_keys=True) == want
    assert from_list.edges == from_array.edges == m.edges


def test_one_color_is_partial_with_every_red_matched():
    # the window truncates a pairing of the whole line: partial even when
    # no red is left over
    ps = sample(SampleConfig(1, 1, Domain.strip(0, 50), 1))
    m = one_color_pairing(ps, 0)
    assert m.edges and m.unmatched_reds == [] and m.unmatched_blues == []
    assert m.kind == "partial"


def test_from_json_checks_stated_values_against_edges():
    m = Matching(SQUARE_REDS, SQUARE_BLUES, [(1, 0)])
    d = m.to_json()
    assert Matching.from_json(d, SQUARE_REDS, SQUARE_BLUES).edges == [(1, 0)]
    Matching.from_json({**d, "total_length": d["total_length"] * (1 + 1e-12)},
                       SQUARE_REDS, SQUARE_BLUES)
    for key, value in [("kind", "perfect"), ("kind", "complete"),
                       ("unmatched_reds", [0, 1]), ("unmatched_blues", []),
                       ("color_mode", "three_color"), ("total_length", 12345.0),
                       ("total_length", d["total_length"] * (1 + 1e-8))]:
        with pytest.raises(ValueError):
            Matching.from_json({**d, key: value}, SQUARE_REDS, SQUARE_BLUES)


def test_matching_json_round_trip():
    rng = derived_rng(43)
    reds = rng.uniform(0, 1, (5, 2))
    blues = rng.uniform(0, 1, (5, 2))
    m = min_cost_perfect(reds, blues)
    again = Matching.from_json(m.to_json(), reds, blues)
    assert again.edges == m.edges
    assert again.total_length == m.total_length


def test_matching_degree_constraint():
    with pytest.raises(ValueError):
        Matching(SQUARE_REDS, SQUARE_BLUES, [(0, 0), (0, 1)])
