import importlib.machinery
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import poisson_matching

from poisson_matching import assignment, matching
from poisson_matching.assignment import (EPS_TIE, ROW_BLOCK, SMALL_MAX, _pair_distances,
                                         assign_in_groups, max_cardinality_min_cost,
                                         min_cost_perfect)
from poisson_matching.geometry import Domain
from poisson_matching.hierarchy import aligned_window, build_block_system, run_hierarchical
from poisson_matching.matching import ONE_COLOR, TWO_COLOR, Matching
from poisson_matching.sampling import ColoredPointSet, SampleConfig, derived_rng, sample
from poisson_matching.verify import box_rematch_experiment, minimality_certificate
from poisson_matching.walks import (cut_time_matching, excursion_matching, laminate_strips,
                                    one_color_pairing, polygonal_arcs, zero_block_matching)
from cases import assert_cycle_witness, check_solve, least_like
from oracles import (BRUTE_FORCE_MAX, added, brute_force_min, injection_totals, points,
                     saturating_least, tied)
from oracles import min_cost_pairs as oracle_pairs

SQUARE_REDS = np.array([[0.0, 0.0], [1.0, 0.0]])
SQUARE_BLUES = np.array([[0.0, 1.0], [1.0, 1.0]])


# One-problem calls of assign_in_groups: the partner array of a problem
# with equal sides, and the (red, blue) pairs, by red, of a saturating
# problem, whose indices run over reds + reserve_reds and blues +
# reserve_blues (``max_cardinality_min_cost`` gives a rectangular one's).

def min_cost_partners(reds, blues) -> np.ndarray:
    reds, blues = points(reds), points(blues)
    return assign_in_groups(reds, [0, len(reds)], blues, [0, len(blues)])


def _pairs(partner):
    ri = np.flatnonzero(partner >= 0)
    return list(zip(ri.tolist(), partner[ri].tolist()))


def min_cost_saturating(reds, blues, reserve_reds, reserve_blues):
    reds, blues = points(reds), points(blues)
    all_r = np.concatenate([reds, points(reserve_reds)])
    all_b = np.concatenate([blues, points(reserve_blues)])
    return _pairs(assign_in_groups(all_r, [0, len(all_r)], all_b, [0, len(all_b)],
                                   ([len(reds)], [len(blues)])))


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


def _lattice(rng, width, n, distinct):
    """n integer points on a width x width grid, distinct or drawn with
    replacement (so points may repeat)."""
    cells = rng.choice(width * width, size=n, replace=not distinct)
    return np.stack([cells // width, cells % width], axis=1).astype(float)


def _check(reds, blues, must=None) -> bool:
    """The one-problem solve against the oracle's: the oracle's partners
    where the input is not tied, and a least matching where it is
    (``cases.check_solve``). ``max_cardinality_min_cost`` is that solve
    (``min_cost_perfect`` where the sides are equal, and a one-problem
    ``assign_in_groups`` call), and ``min_cost_saturating`` its saturating
    form. True when the input is tied."""
    if must is None:
        got = max_cardinality_min_cost(reds, blues).edges
    else:
        mr, mb = must
        got = min_cost_saturating(reds[:mr], blues[:mb], reds[mr:], blues[mb:])
    return check_solve(reds, blues, got, must)


class TestAgainstIndexOrderPath:
    """``_check`` on each family of inputs; each tied family counts the tied
    inputs it met."""

    def test_random_reals(self):
        rng = derived_rng(107)
        for n in (0, 1, 2, 3, 30, ROW_BLOCK + 1, 200):
            reds, blues = rng.uniform(0, 5, (n, 2)), rng.uniform(0, 5, (n, 2))
            assert not _check(reds, blues)

    def test_lattices(self):
        rng = derived_rng(109)
        met = 0
        for _ in range(300):
            width = int(rng.integers(2, 7))
            n = int(rng.integers(1, width * width + 1))
            met += _check(_lattice(rng, width, n, distinct=True),
                          _lattice(rng, width, n, distinct=True))
        assert met >= 30

    @pytest.mark.parametrize("side", ["reds", "blues"])
    def test_duplicate_points(self, side):
        rng = derived_rng(113, side == "reds")
        met = 0
        for _ in range(200):
            width = int(rng.integers(2, 7))
            n = int(rng.integers(2, 20))
            dup = _lattice(rng, width, n, distinct=False)
            other = _lattice(rng, width, n, distinct=n <= width * width)
            met += _check(*((dup, other) if side == "reds" else (other, dup)))
        assert met >= 30

    @pytest.mark.parametrize("n", [ROW_BLOCK + 1, 2 * ROW_BLOCK + 7])
    def test_across_row_blocks(self, n):
        rng = derived_rng(127, n)
        met = 0
        for width in (2, 3, 4, 5, 6):
            met += _check(_lattice(rng, width, n, distinct=False),
                          _lattice(rng, width, n, distinct=False))
        assert not _check(rng.uniform(0, 9, (n, 2)), rng.uniform(0, 9, (n, 2)))
        assert met >= 3

    @pytest.mark.parametrize("lattice", [False, True], ids=["random", "lattice"])
    def test_saturating_with_reserves(self, lattice):
        rng = derived_rng(131, lattice)
        both = met = 0
        shapes = [rng.integers(0, 9, size=4) for _ in range(200)]
        shapes += [(50, 30, 40, 70), (100, 90, 50, 80), (20, 70, 90, 5)]
        for sizes in shapes:
            if lattice:
                reds, blues, rres, bres = (_lattice(rng, 6, int(k), distinct=False)
                                           for k in sizes)
            else:
                reds, blues, rres, bres = (rng.uniform(0, 4, (int(k), 2)) for k in sizes)
            if len(reds) > len(blues) + len(bres) or len(blues) > len(reds) + len(rres):
                continue
            met += _check(np.concatenate([reds, rres]), np.concatenate([blues, bres]),
                          (len(reds), len(blues)))
            both += len(rres) > 0 and len(bres) > 0
        assert both >= 100 and (met >= 30 if lattice else met == 0)


class TestTiedInputs:
    """``_check`` on perfect problems, most of them full of ties, and, up to
    BRUTE_FORCE_MAX points, a total within EPS_TIE of ``brute_force_min``'s,
    a second oracle that enumerates."""

    @staticmethod
    def _check_enumerated(reds, blues) -> bool:
        met = _check(reds, blues)
        if len(reds) <= BRUTE_FORCE_MAX:
            total = min_cost_perfect(reds, blues).total_length
            assert abs(total - brute_force_min(reds, blues)[1]) <= EPS_TIE
        return met

    def test_matches_reference_on_lattices(self):
        rng = derived_rng(53)
        met = 0
        for _ in range(300):
            width = int(rng.integers(2, 7))
            n = int(rng.integers(1, min(width * width, 12) + 1))
            met += self._check_enumerated(_lattice(rng, width, n, distinct=True),
                                          _lattice(rng, width, n, distinct=True))
        assert met >= 30

    def test_matches_reference_with_duplicate_blues(self):
        rng = derived_rng(59)
        met = 0
        for _ in range(200):
            width = int(rng.integers(2, 7))
            n = int(rng.integers(2, 15))
            met += self._check_enumerated(_lattice(rng, width, n, distinct=n <= width * width),
                                          _lattice(rng, width, n, distinct=False))
        assert met >= 30

    def test_matches_reference_across_row_blocks(self):
        rng = derived_rng(61)
        met = 0
        for width in (2, 3, 4, 5, 6):
            for n in (ROW_BLOCK + 1, 2 * ROW_BLOCK + 7):
                met += _check(_lattice(rng, width, n, distinct=False),
                              _lattice(rng, width, n, distinct=False))
        assert met >= 5

    def test_random_reals_pass_unchanged(self):
        rng = derived_rng(67)
        n = 3 * ROW_BLOCK
        assert not _check(rng.uniform(0, 5, (n, 2)), rng.uniform(0, 5, (n, 2)))

    def test_tied_three_cycle_is_not_undone(self):
        # Three matchings of equal length: min_cost_perfect and brute force
        # each return one of least total, the same one on every call.
        reds = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]])
        blues = np.array([[1.0, 1.0], [0.0, 2.0], [1.0, 0.0]])
        fast = min_cost_perfect(reds, blues)
        slow = Matching(reds, blues, brute_force_min(reds, blues)[0])
        assert fast.total_length == slow.total_length and self._check_enumerated(reds, blues)
        assert minimality_certificate(fast).passed and minimality_certificate(slow).passed
        assert all(min_cost_perfect(reds, blues).edges == fast.edges for _ in range(5))
        assert all(brute_force_min(reds, blues)[0] == slow.edges for _ in range(5))


class TestMinCostPairsInSolverOrder:
    """``_check`` on rectangular problems, untied and tied."""

    def test_random_rectangular_inputs(self):
        rng = derived_rng(97)
        for _ in range(200):
            nr, nb = (int(k) for k in rng.integers(0, 12, 2))
            assert not _check(rng.uniform(0, 3, (nr, 2)), rng.uniform(0, 3, (nb, 2)))

    def test_lattice_ties(self):
        rng = derived_rng(101)
        met = 0
        for _ in range(200):
            width = int(rng.integers(2, 5))
            nr, nb = (int(k) for k in rng.integers(1, width * width + 1, 2))
            met += _check(_lattice(rng, width, nr, distinct=True),
                          _lattice(rng, width, nb, distinct=True))
        assert met >= 30


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
            assert m.total_length == pytest.approx(injection_totals(blues, reds)[0][0], abs=1e-12)
            assert len(m.edges) == 3 and not m.unmatched_blues

    def test_pairs_are_the_matching_edges(self):
        rng = derived_rng(29)
        reds = rng.uniform(0, 1, (6, 2))
        blues = rng.uniform(0, 1, (4, 2))
        pairs = max_cardinality_min_cost(reds, blues).edges
        assert pairs == sorted(pairs) == oracle_pairs(reds, blues)

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


class TestMinCostSaturating:
    def test_matches_enumeration_oracle(self):
        rng = derived_rng(47)
        for _ in range(60):
            sizes = rng.integers(0, 3, size=4)
            if sizes.sum() > 6:
                continue
            reds, blues, rres, bres = (rng.uniform(0, 1, (int(n), 2)) for n in sizes)
            if len(reds) > len(blues) + len(bres) or len(blues) > len(reds) + len(rres):
                with pytest.raises(ValueError):
                    min_cost_saturating(reds, blues, rres, bres)
                continue
            pairs = min_cost_saturating(reds, blues, rres, bres)
            all_r = np.concatenate([reds, rres])
            all_b = np.concatenate([blues, bres])
            assert not check_solve(all_r, all_b, pairs, (len(reds), len(blues)))
            assert Matching(all_r, all_b, pairs).total_length == pytest.approx(
                saturating_least(reds, blues, rres, bres), abs=1e-12)

    def test_reserve_absorbs_excess(self):
        # two mandatory reds, one mandatory blue: the far red takes the reserve blue
        pairs = min_cost_saturating([[0, 0], [5, 0]], [[0.1, 0]], np.empty((0, 2)),
                                    [[5, 0.2], [9, 9]])
        assert pairs == [(0, 0), (1, 1)]

    def test_no_mandatory_points_solves_nothing(self, monkeypatch):
        def no_solve(cost):
            raise AssertionError("solved a problem with no mandatory point")

        monkeypatch.setattr(assignment, "_assign", no_solve)
        assert min_cost_saturating(np.empty((0, 2)), np.empty((0, 2)),
                                   [[0, 0], [1, 1]], [[0, 1]]) == []


class TestDenseSolvePeakMemory:
    """A dense solve holds one n-by-n cost matrix: no reordered copy, and
    only row blocks besides (the index-order path peaked at two matrices)."""

    N = 600

    @staticmethod
    def _traced_peak(solve, *args) -> int:
        solve(*(a[:3] for a in args))  # load scipy outside the trace
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solve(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    @pytest.mark.parametrize("solve", [min_cost_partners, min_cost_perfect])
    def test_perfect_solves(self, solve):
        rng = derived_rng(137)
        reds, blues = rng.uniform(0, 25, (self.N, 2)), rng.uniform(0, 25, (self.N, 2))
        assert self._traced_peak(solve, reds, blues) < 1.3 * self.N * self.N * 8

    def test_saturating(self):
        rng = derived_rng(139)
        reds, rres = rng.uniform(0, 25, (300, 2)), rng.uniform(0, 25, (300, 2))
        blues, bres = rng.uniform(0, 25, (250, 2)), rng.uniform(0, 25, (320, 2))
        peak = self._traced_peak(min_cost_saturating, reds, blues, rres, bres)
        assert peak < 1.3 * self.N * self.N * 8


def _cost_matrices():
    """Cost matrices of random reals, tie-rich lattices, rectangular shapes,
    and the empty and one-row edge cases."""
    rng = derived_rng(71)
    for n in (2, 7, 40, 150):
        yield rng.uniform(0.0, 10.0, (n, n))
    for width, n in ((2, 6), (3, 9), (5, 25), (6, 60)):
        yield cdist(_lattice(rng, width, n, False), _lattice(rng, width, n, False))
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
        """The partners of perfect, rectangular and saturating solves, on
        random and lattice points."""
        rng = derived_rng(73)
        problems = [(rng.uniform(0, 10, (n, 2)), rng.uniform(0, 10, (n, 2)))
                    for n in (1, 5, 30, 120)]
        problems += [(_lattice(rng, w, n, False), _lattice(rng, w, n, False))
                     for w, n in ((3, 9), (5, 25))]
        reserves = [rng.uniform(0, 10, (k, 2)) for k in (4, 9)]
        return ([min_cost_perfect(r, b).edges for r, b in problems],
                [max_cardinality_min_cost(r, b[:len(b) // 2 + 1]).edges for r, b in problems],
                [min_cost_saturating(r[:2], b[:1], *reserves) for r, b in problems])

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


def _laid(groups):
    """Point lists laid end to end, and their offsets."""
    groups = [points(g) for g in groups]
    return np.concatenate(groups), np.cumsum([0] + [len(g) for g in groups])


def _grouped_pairs(monkeypatch, reds, blues, must=None):
    """Solve the problems (reds[g], blues[g]) in one assign_in_groups call.
    Returns each problem's (red, blue) pairs, as indices within the
    problem, and the mask of the problems its small-problem pass
    (``assignment._settle_small``, recorded) settled: all it was offered."""
    (r, rs), (b, bs) = _laid(reds), _laid(blues)
    calls, settle = [], assignment._settle_small
    with monkeypatch.context() as patch:
        patch.setattr(assignment, "_settle_small",
                      lambda *args: calls.append(settle(*args)) or calls[-1])
        partner = assign_in_groups(r, rs, b, bs, must)
    assert len(calls) == 1  # one pass per call
    settled = np.zeros(len(reds), dtype=bool)
    settled[calls[0]] = True
    pairs = [[(i, int(partner[rs[g] + i] - bs[g])) for i in range(rs[g + 1] - rs[g])
              if partner[rs[g] + i] >= 0] for g in range(len(reds))]
    return pairs, settled


def _check_four_ways(monkeypatch, small, large, extras):
    """Solve every problem (small[g], large[g]) in groups four ways:
    with ``must`` None, the small sides as the reds and as the blues, and
    with the small side mandatory, ``extras[g]`` as reserve of its color
    and the large side all reserve, again as either color. Each
    way the pass settles the same problems, a settled problem gets the same
    pairs, at its least total to the bit, and every problem's pairs are the
    oracle's where it is not tied, and a least matching where it is
    (``cases.check_solve``). Returns the settled mask and each problem's
    pairs, (small, large) indices within the problem."""
    k = np.array([len(x) for x in small])
    zero = np.zeros_like(k)
    padded = [np.concatenate([points(s), points(e)]) for s, e in zip(small, extras)]
    pairs, settled = _grouped_pairs(monkeypatch, small, large)
    for g, (s, t) in enumerate(zip(small, large)):
        check_solve(s, t, pairs[g])
        if settled[g]:
            cost = cdist(s, t)
            assert added(cost[i, j] for i, j in pairs[g]) == injection_totals(s, t)[0][0]
    for reds, blues, must in ((large, small, None), (padded, large, (k, zero)),
                              (large, padded, (zero, k))):
        got, mask = _grouped_pairs(monkeypatch, reds, blues, must)
        assert np.array_equal(mask, settled)
        for g in range(len(small)):
            if settled[g]:
                assert sorted(got[g] if reds is padded else [(i, j) for j, i in got[g]]) == pairs[g]
            else:
                check_solve(reds[g], blues[g], got[g], (must[0][g], must[1][g]) if must else None)
    return settled, pairs


def _one_point_groups(rng, lattice, groups=400):
    """Per group a source, 1-6 targets and 0-3 points of the source's color
    (the saturating problem's other reserve), all distinct within the group:
    uniform reals, or integer points of a 5x5 lattice, where ties are
    common. Returns (sources, targets, extras), a list of each."""
    sources, targets, extras = [], [], []
    for _ in range(groups):
        k, e = int(rng.integers(1, 7)), int(rng.integers(0, 4))
        if lattice:
            cells = rng.choice(25, size=1 + k + e, replace=False)
            pts = np.column_stack([cells // 5, cells % 5]).astype(float)
        else:
            pts = rng.uniform(-3, 3, (1 + k + e, 2))
        sources.append(pts[:1])
        targets.append(pts[1:1 + k])
        extras.append(pts[1 + k:])
    return sources, targets, extras


class TestNearestInGroups:
    """The one-point problems of the small-problem pass: a nearest-point
    query per problem, with no limit on the problem's size."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 50.0, 1e4])
    def test_distances_equal_cdist_bitwise(self, scale):
        rng = derived_rng(61)
        p = rng.uniform(-scale, scale, (300, 2))
        q = rng.uniform(-scale, scale, (300, 2))
        want = cdist(p, q)
        assert np.array_equal(_pair_distances(p[:, None], q), want)
        rows, cols = np.indices(want.shape).reshape(2, -1)
        got = _pair_distances(p[rows], q[cols])
        assert np.array_equal(got, want.ravel())

    @pytest.mark.parametrize("lattice", [False, True], ids=["random", "lattice"])
    def test_matches_the_one_point_solves(self, monkeypatch, lattice):
        # every one-point problem is settled; the lattice's have tied nearest points
        rng = derived_rng(62, lattice)
        sources, targets, extras = _one_point_groups(rng, lattice)
        settled, _ = _check_four_ways(monkeypatch, sources, targets, extras)
        assert settled.all()
        assert any(tied(src, group) for src, group in zip(sources, targets)) == lattice

    def test_single_target_and_no_group(self, monkeypatch):
        # the second source is 1 from both its targets: it takes one of them
        sources, targets = [[[0, 0]], [[1, 1]]], [[[5, 5]], [[1, 2], [1, 0]]]
        pairs, settled = _grouped_pairs(monkeypatch, sources, targets)
        assert settled.tolist() == [True, True]
        assert pairs[0] == [(0, 0)] and pairs[1] in ([(0, 0)], [(0, 1)])
        none = np.empty((0, 2))
        assert len(assign_in_groups(none, [0], none, [0])) == 0


def _small_groups(rng, lattice, groups=300):
    """Per group 1-4 small points, as many to 8 large points and 0-3 points
    of the small side's color (the saturating problem's other reserve), all
    distinct within the group: uniform reals, or integer points of a 4x4
    lattice, where tied totals are common. Returns (small, large, extras),
    a list of each."""
    small, large, extras = [], [], []
    for _ in range(groups):
        s = int(rng.integers(1, 5))
        n, e = int(rng.integers(s, 9)), int(rng.integers(0, 4))
        if lattice:
            cells = rng.choice(16, size=min(s + n + e, 16), replace=False)
            pts = np.column_stack([cells // 4, cells % 4]).astype(float)
            n = min(n, 16 - s)
        else:
            pts = rng.uniform(-3, 3, (s + n + e, 2))
        small.append(pts[:s])
        large.append(pts[s:s + n])
        extras.append(pts[s + n:])
    return small, large, extras


class TestSmallProblemPass:
    """The small-problem pass of assign_in_groups: every problem of up to
    SMALL_MAX points on the small side is settled at its least total, to
    the bit; where no other injection is within EPS_TIE of it, its partners
    are the ones every solver gives it."""

    @pytest.mark.parametrize("lattice", [False, True], ids=["random", "lattice"])
    def test_against_enumeration_and_the_solvers(self, monkeypatch, lattice):
        rng = derived_rng(64, lattice)
        small, large, extras = _small_groups(rng, lattice)
        settled, pairs = _check_four_ways(monkeypatch, small, large, extras)
        sizes, tied_met = {True: set(), False: set()}, 0
        for g, (S, L) in enumerate(zip(small, large)):
            assert settled[g] == (len(S) <= SMALL_MAX), g
            sizes[bool(settled[g])].add(len(S))
            if not settled[g]:
                continue
            if len(S) == len(L):
                least_like(S, L, pairs[g], brute_force_min(S, L)[0])
                assert list(enumerate(min_cost_partners(S, L).tolist())) == pairs[g]
            if tied(S, L):
                tied_met += 1
            else:
                assert pairs[g] == list(enumerate(injection_totals(S, L)[0][1]))
        # every small size is settled and four points never are; the
        # lattice's settled problems include tied ones
        assert sizes == {True: set(range(1, SMALL_MAX + 1)), False: {SMALL_MAX + 1}}
        assert (tied_met > 0) == lattice

    @pytest.mark.parametrize("gap", [0.0, 0.5 * EPS_TIE, 1.5 * EPS_TIE, 4 * EPS_TIE])
    def test_near_ties_settle_at_the_least_total(self, monkeypatch, gap):
        # one problem of each small size whose runner-up costs ``gap`` more:
        # the point at (0, 0) has a second candidate 1 + gap away; each is
        # settled at its least total, and with a gap that is the identity
        groups = [([[0, 0]], [[1, 0], [0, -1 - gap]]),
                  ([[0, 0], [10, 0]], [[1, 0], [10, 1], [0, -1 - gap]]),
                  ([[0, 0], [10, 0], [20, 0]],
                   [[1, 0], [10, 1], [20, 1], [0, -1 - gap], [30, 30]])]
        small = [np.array(S, float) for S, _ in groups]
        large = [np.array(L, float) for _, L in groups]
        pairs, settled = _grouped_pairs(monkeypatch, small, large)
        assert settled.tolist() == [True] * 3
        for S, L, p in zip(small, large, pairs):
            cost = cdist(S, L)
            assert added(cost[i, j] for i, j in p) == injection_totals(S, L)[0][0]
        if gap:
            assert pairs == [[(i, i) for i in range(s)] for s in (1, 2, 3)]

    @pytest.mark.parametrize("small,large", [
        ([[0, 0], [3, 0]], [[1, 0], [-1.2, 0], [5.5, 0]]),
        ([[0, 0], [1, 0], [2, 0]], [[1, 0.1], [1, -0.2], [-2, 0], [5, 0], [1, 3]]),
    ], ids=["two", "three"])
    def test_shared_nearest_needs_the_sth_nearest(self, monkeypatch, small, large):
        # every point's nearest candidate is candidate 0, and the one least
        # injection gives a point of the s-point side its s-th nearest
        S, L = np.array(small, float), np.array(large, float)
        cost = cdist(S, L)
        assert (cost.argmin(axis=1) == 0).all()
        totals = injection_totals(S, L)
        assert not tied(S, L)
        ranks = [np.argsort(cost[i], kind="stable").tolist().index(j)
                 for i, j in enumerate(totals[0][1])]
        assert max(ranks) == len(S) - 1
        pairs, settled = _grouped_pairs(monkeypatch, [S], [L])
        assert settled.tolist() == [True]
        assert pairs == [list(enumerate(totals[0][1]))]

    def test_choices_give_each_point_one_of_its_s_nearest(self):
        for s in range(1, SMALL_MAX + 1):
            ways = assignment._choices(s).tolist()
            assert ways == [list(w) for w in itertools.product(range(s), repeat=s)]
            assert len(ways) == s ** s

    def test_many_candidates_against_enumeration(self, monkeypatch):
        # small sides of one to three points against 50 to 60 candidates,
        # in one call, each problem's pairs the least of every injection
        rng = derived_rng(68)
        small = [rng.uniform(0, 6, (s, 2)) for s in (1, 2, 3, 3)]
        large = [rng.uniform(0, 6, (n, 2)) for n in (60, 55, 50, 52)]
        pairs, settled = _grouped_pairs(monkeypatch, small, large)
        assert settled.all()
        for S, L, p in zip(small, large, pairs):
            totals = injection_totals(S, L)
            assert not tied(S, L)
            assert p == list(enumerate(totals[0][1]))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_batches_change_nothing(self, block, monkeypatch):
        # problems go in batches of about PAIR_BLOCK point pairs; with a
        # block of one pair every problem of at most SMALL_MAX points is a
        # batch
        rng = derived_rng(66)
        small, large, _ = _small_groups(rng, lattice=True)
        want = _grouped_pairs(monkeypatch, small, large)
        batches = []
        settle = assignment._settle_batch
        monkeypatch.setattr(assignment, "PAIR_BLOCK", block)
        monkeypatch.setattr(assignment, "_settle_batch",
                            lambda *a: batches.append(len(a[5])) or settle(*a))
        got = _grouped_pairs(monkeypatch, small, large)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        n_small = np.array([len(S) for S in small])
        pairs = n_small * np.array([len(L) for L in large])
        assert sum(batches) == (n_small <= SMALL_MAX).sum()
        assert len(batches) >= pairs[n_small <= SMALL_MAX].sum() / (block + 8 * SMALL_MAX)
        if block == 1:
            assert batches == [1] * len(batches)

    def test_no_limit_on_the_large_side(self, monkeypatch):
        rng = derived_rng(65)
        for s in range(1, SMALL_MAX + 1):
            S, L = rng.uniform(0, 50, (s, 2)), rng.uniform(0, 50, (400, 2))
            pairs, settled = _grouped_pairs(monkeypatch, [S], [L])
            assert settled.tolist() == [True]
            assert pairs == [oracle_pairs(S, L)]

    def test_a_batch_over_pair_block_holds_one_problem(self, monkeypatch):
        # 1, 8000 and 100 point pairs: the middle problem is over PAIR_BLOCK,
        # so it is a batch alone, and the last problem one of its own
        rng = derived_rng(67)
        small = [rng.uniform(0, 50, (s, 2)) for s in (1, 2, 1)]
        large = [rng.uniform(0, 50, (n, 2)) for n in (1, 4000, 100)]
        batches, settle = [], assignment._settle_batch

        def settling(*args):
            small_start, large_start, groups = args[2], args[4], args[5]
            pairs = (np.diff(small_start) * np.diff(large_start))[groups]
            batches.append((groups.tolist(), int(pairs.sum())))
            settle(*args)

        monkeypatch.setattr(assignment, "_settle_batch", settling)
        pairs, settled = _grouped_pairs(monkeypatch, small, large)
        assert settled.tolist() == [True] * 3
        assert pairs == [oracle_pairs(S, L) for S, L in zip(small, large)]
        assert [groups for groups, _ in batches] == [[0], [1], [2]]
        assert all(len(groups) == 1 for groups, n in batches if n > assignment.PAIR_BLOCK)


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


def _reference_improvable_pair(m):
    """The first edge pair, in scan order, whose partner swap shortens the
    matching by more than EPS_TIE, as a plain loop over every edge pair: a
    2-swap oracle for the cycle certificate, to which such a pair is a
    shortening 2-cycle."""
    bs = m.blues if m.color_mode == TWO_COLOR else m.reds
    for a in range(len(m.edges)):
        i, j = m.edges[a]
        for b in range(a + 1, len(m.edges)):
            u, v = m.edges[b]
            cur = math.hypot(*(m.reds[i] - bs[j])) + math.hypot(*(m.reds[u] - bs[v]))
            alt = math.hypot(*(m.reds[i] - bs[v])) + math.hypot(*(m.reds[u] - bs[j]))
            if alt < cur - EPS_TIE:
                return (a, b)
    return None


def _crossed(reds, blues, a):
    """min_cost_perfect's edges with the partners of edge a and of the edge
    whose red is nearest to a's exchanged: a local defect, which a 2-swap
    undoes, wherever edge a sits in the edge list."""
    edges = list(min_cost_perfect(reds, blues).edges)  # edge k has red k
    near = np.hypot(*(reds - reds[a]).T)
    near[a] = np.inf
    a, b = sorted((a, int(np.argmin(near))))
    (i, x), (j, y) = edges[a], edges[b]
    edges[a], edges[b] = (i, y), (j, x)
    return Matching(reds, blues, edges)


class TestCycleCertificateAgainstTwoSwaps:
    """The cycle certificate (``verify.minimality_certificate``) against the
    2-swap reference: wherever a partner swap shortens a matching, the
    certificate fails, with a cycle that shortens it."""

    def test_crossed_square_improvable(self):
        m = Matching(SQUARE_REDS, SQUARE_BLUES, [(0, 1), (1, 0)])
        v = assert_cycle_witness(m)
        assert v["edges"] == [0, 1]
        assert v["change"] == pytest.approx(2 - 2 * math.sqrt(2))
        improvement = m.total_length - 2.0
        assert improvement == pytest.approx(2 * math.sqrt(2) - 2)

    def test_solver_output_never_improvable(self):
        rng = derived_rng(31)
        for _ in range(50):
            reds = rng.uniform(0, 1, (20, 2))
            blues = rng.uniform(0, 1, (20, 2))
            m = min_cost_perfect(reds, blues)
            assert minimality_certificate(m).passed
            assert _reference_improvable_pair(m) is None

    def test_swap_never_decreases_optimal_cost(self):
        rng = derived_rng(37)
        reds = rng.uniform(0, 1, (8, 2))
        blues = rng.uniform(0, 1, (8, 2))
        m = min_cost_perfect(reds, blues)
        base = m.total_length
        for a in range(len(m.edges)):
            for b in range(a + 1, len(m.edges)):
                edges = list(m.edges)
                (i, x), (j, y) = edges[a], edges[b]
                edges[a], edges[b] = (i, y), (j, x)
                swapped = Matching(reds, blues, edges)
                assert swapped.total_length >= base - 1e-9

    def test_matches_reference_on_random_inputs(self):
        # one crossed pair in a minimum: the reference finds a pair, and the
        # certificate a cycle, in every block of rows, not only the first
        rng = derived_rng(71)
        found = 0
        for _ in range(40):
            n = int(rng.integers(2, 3 * ROW_BLOCK))
            reds = rng.uniform(0, 10, (n, 2))
            blues = rng.uniform(0, 10, (n, 2))
            m = _crossed(reds, blues, int(rng.integers(n)))
            assert _reference_improvable_pair(m) is not None
            found += max(assert_cycle_witness(m)["edges"]) >= ROW_BLOCK
        assert found >= 5

    def test_matches_reference_on_lattices(self):
        # permutations of lattice points, with ties: a pair the reference
        # finds means a failure; a failure without one is a longer cycle
        rng = derived_rng(73)
        found = 0
        for _ in range(200):
            width = int(rng.integers(2, 7))
            n = int(rng.integers(2, min(width * width, 12) + 1))
            reds = _lattice(rng, width, n, distinct=True)
            blues = _lattice(rng, width, n, distinct=True)
            m = Matching(reds, blues, list(enumerate(rng.permutation(n).tolist())))
            want = _reference_improvable_pair(m)
            rep = minimality_certificate(m)
            if want is not None or not rep.passed:
                v = assert_cycle_witness(m, rep)
                assert want is not None or len(v["edges"]) >= 3
            found += want is not None
        assert 20 <= found < 200

    def test_matches_reference_one_color(self):
        rng = derived_rng(79)
        for _ in range(30):
            n = 2 * int(rng.integers(1, ROW_BLOCK))
            reds = rng.uniform(0, 10, (n, 2))
            ends = rng.permutation(n).reshape(-1, 2).tolist()
            m = Matching(reds, np.empty((0, 2)), [tuple(e) for e in ends], color_mode=ONE_COLOR)
            rep = minimality_certificate(m)
            if _reference_improvable_pair(m) is not None or not rep.passed:
                assert_cycle_witness(m, rep)


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
