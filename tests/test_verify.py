import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from poisson_matching import verify
from poisson_matching.assignment import (EPS_TIE, ROW_BLOCK, _stable_order, brute_force_min,
                                         min_cost_perfect)
from poisson_matching.geometry import EPS_GEOM, DegenerateGeometryError, Disk, Domain, Rect
from poisson_matching.hierarchy import ChernoffParams, chernoff_bound, chernoff_tail
from poisson_matching.matching import ONE_COLOR, Matching
from poisson_matching.sampling import (ColoredPointSet, SampleConfig, canonical_order,
                                       derived_rng, sample)
from poisson_matching.verify import (_arc_arrays, _box_pairs, _pairwise_hits,
                                     box_rematch_experiment, check_arc_disjointness,
                                     check_planarity, crossing_stats,
                                     estimate_eta, interior_window,
                                     minimality_certificate, minimality_certificate_d1)
from poisson_matching.walks import (ArcSpec, excursion_matching,
                                    laminate_strips, one_color_pairing, polygonal_arcs,
                                    zero_block_matching)
from test_geometry import Point, Segment, scalar_edge_crosses_region, scalar_segments_intersect
from test_hierarchy import hierarchical_case
from test_walks import _rematched, replaced, table_of


def square_ps(seed, side=20.0, lam=1.0):
    dom = Domain.plane(0.0, side, 0.0, side)
    return sample(SampleConfig(lam, lam, dom, seed))


def balanced(ps):
    """Truncate to equal color counts so perfect matchings apply."""
    n = min(ps.n_red, ps.n_blue)
    return ColoredPointSet(ps.domain, ps.reds[:n], ps.blues[:n], seed=ps.seed), n


class TestPlanarity:
    def test_crossed_pair_detected(self):
        reds = np.array([[0.0, 0.0], [1.0, 0.0]])
        blues = np.array([[1.0, 1.0], [0.0, 1.0]])
        bad = Matching(reds, blues, [(0, 0), (1, 1)])
        report = check_planarity(bad)
        assert not report.passed
        assert report.violations == [{"edges": [0, 1]}]

    def test_uncrossed_pair_passes(self):
        reds = np.array([[0.0, 0.0], [1.0, 0.0]])
        blues = np.array([[1.0, 1.0], [0.0, 1.0]])
        good = Matching(reds, blues, [(0, 1), (1, 0)])
        assert check_planarity(good).passed

    def test_near_flat_crossing_detected(self):
        # the two edges cross at (1, 1e-9); all orientation determinants are
        # tiny, so this exercises the sign prefilter rather than magnitudes
        reds = np.array([[0.0, 0.0], [0.0, 2e-9]])
        blues = np.array([[2.0, 2e-9], [2.0, 0.0]])
        m = Matching(reds, blues, [(0, 0), (1, 1)])
        assert not check_planarity(m).passed

    def test_min_cost_is_planar(self):
        for seed in range(10):
            ps = square_ps(seed, side=6.0)
            n = min(ps.n_red, ps.n_blue)
            if n < 2:
                continue
            m = min_cost_perfect(ps.reds[:n], ps.blues[:n])
            assert check_planarity(m).passed

    def test_trial_count_is_pair_count(self):
        ps = square_ps(1, side=5.0)
        n = min(ps.n_red, ps.n_blue)
        m = min_cost_perfect(ps.reds[:n], ps.blues[:n])
        assert check_planarity(m).trials == n * (n - 1) // 2


def _matching_segments(m):
    """Each edge of m as a straight Segment, in edge order."""
    p, q = m.endpoint_arrays()
    return [Segment(Point(*a), Point(*b)) for a, b in zip(p, q)]


def _dense_hits(segs, skip_same_group=None):
    """The all-pairs scan the sweep replaced, kept verbatim as the oracle:
    n x n orientation arrays, then confirmation in (i, j) order by the
    scalar oracle ``scalar_segments_intersect``, independent of the
    package's array predicate."""
    n = len(segs)
    if n < 2:
        return []
    P = np.asarray([[s.a.x, s.a.y] for s in segs])
    Q = np.asarray([[s.b.x, s.b.y] for s in segs])

    def cross3(A, B, C):
        return ((B[:, None, 0] - A[:, None, 0]) * (C[None, :, 1] - A[:, None, 1])
                - (B[:, None, 1] - A[:, None, 1]) * (C[None, :, 0] - A[:, None, 0]))

    d1 = cross3(P, Q, P)  # orient(Pi,Qi,Pj)
    d2 = cross3(P, Q, Q)

    def sgn(d):
        return (d > EPS_GEOM).astype(np.int8) - (d < -EPS_GEOM).astype(np.int8)

    s1, s2 = sgn(d1), sgn(d2)
    s3, s4 = s1.T, s2.T
    proper = (s1 * s2 == -1) & (s3 * s4 == -1)
    touchy = (s1 == 0) | (s2 == 0) | (s3 == 0) | (s4 == 0)
    candidate = proper | touchy
    hits = []
    ii, jj = np.nonzero(np.triu(candidate, k=1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        if skip_same_group is not None and skip_same_group[i] == skip_same_group[j]:
            continue
        if scalar_segments_intersect(segs[i], segs[j]):
            hits.append((i, j))
    return hits


def _sweep_hits(segs, skip_same_group=None):
    """The sweep on the segments' endpoint arrays, called like the oracle."""
    P = np.asarray([s.a for s in segs], dtype=float).reshape(-1, 2)
    Q = np.asarray([s.b for s in segs], dtype=float).reshape(-1, 2)
    return _pairwise_hits(P, Q, skip_same_group)


def _arc_pieces(arcs):
    """Every ``ArcSpec.segments`` piece of the arcs, and its arc's index."""
    pieces = [(Segment(Point(*a), Point(*b)), k) for k, arc in enumerate(arcs)
              for a, b in arc.segments()]
    return [s for s, _ in pieces], [k for _, k in pieces]


def _outcome(scan, segs, groups=None):
    """The hit list, or the DegenerateGeometryError message."""
    try:
        return scan(segs, groups)
    except DegenerateGeometryError as e:
        return ("degenerate", str(e))


def _segments(coords):
    return [Segment(Point(a, b), Point(c, d)) for a, b, c, d in coords
            if (a, b) != (c, d)]


def _random_segments(rng, n, scale, length):
    starts = rng.uniform(0.0, scale, size=(n, 2))
    ends = starts + rng.uniform(-length, length, size=(n, 2)) * scale
    return _segments(np.hstack([starts, ends]).tolist())


def _lattice_segments(rng, k):
    """One horizontal per row and one vertical per column of a k x k grid,
    plus a star of non-collinear arms from one lattice point: crossings,
    T-junctions and shared endpoints, but no collinear overlaps."""
    coords = []
    for r in range(k):
        a, b = sorted(rng.choice(k, size=2, replace=False).tolist())
        coords.append((a, r, b, r))
        a, b = sorted(rng.choice(k, size=2, replace=False).tolist())
        coords.append((r, a, r, b))
    cx, cy = rng.integers(0, k, size=2).tolist()
    for dx, dy in [(1, 1), (1, -1), (-1, 1), (-1, -1), (2, 1), (1, 2)]:
        coords.append((cx, cy, cx + dx, cy + dy))
    order = rng.permutation(len(coords))
    return _segments([tuple(float(v) for v in coords[o]) for o in order])


def _touch(s, t):
    """How two intersecting lattice segments meet."""
    if {s.a, s.b} & {t.a, t.b}:
        return "shared endpoint"

    def inside(p, u):
        cross = (u.b.x - u.a.x) * (p.y - u.a.y) - (u.b.y - u.a.y) * (p.x - u.a.x)
        return cross == 0 and min(u.a.x, u.b.x) <= p.x <= max(u.a.x, u.b.x) \
            and min(u.a.y, u.b.y) <= p.y <= max(u.a.y, u.b.y)

    if any(inside(p, t) for p in (s.a, s.b)) or any(inside(p, s) for p in (t.a, t.b)):
        return "t-junction"
    return "crossing"


def _assert_same_as_dense(families):
    """Sweep against oracle on (segments, groups) inputs; the oracle must
    find hits somewhere, so the family cannot pass vacuously."""
    found = 0
    for segs, groups in families:
        want = _outcome(_dense_hits, segs, groups)
        assert _outcome(_sweep_hits, segs, groups) == want
        found += len(want) if isinstance(want, list) else 0
    assert found > 0


class TestSweepAgainstDenseScan:
    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0, 1000.0])
    def test_random_segments(self, scale):
        rng = derived_rng(31, int(scale))
        _assert_same_as_dense(
            (_random_segments(rng, int(rng.integers(2, 150)), scale, 0.3), None)
            for _ in range(20))

    def test_lattice_shared_endpoints_and_t_junctions(self):
        rng = derived_rng(32)
        families = [(_lattice_segments(rng, int(rng.integers(3, 9))), None)
                    for _ in range(40)]
        _assert_same_as_dense(families)
        kinds = {_touch(segs[i], segs[j]) for segs, _ in families
                 for i, j in _dense_hits(segs)}
        assert {"shared endpoint", "t-junction"} <= kinds

    def test_random_lattice_segments(self):
        # integer endpoints on a small grid: shared endpoints, T-junctions and
        # collinear overlaps mixed; both scans raise on the same first pair
        rng = derived_rng(33)
        families = [(_segments(rng.integers(0, 5, size=(int(rng.integers(2, 12)), 4))
                               .astype(float).tolist()), None) for _ in range(200)]
        _assert_same_as_dense(families)
        raised = [segs for segs, _ in families
                  if isinstance(_outcome(_dense_hits, segs), tuple)]
        assert 0 < len(raised) < len(families)

    @pytest.mark.parametrize("coords", [
        [(0, 0, 2, 0), (1, 0, 3, 0)],                  # horizontal overlap
        [(5, 1, 5, 4), (5, 3, 5, 2)],                  # vertical containment
        [(0, 0, 2, 2), (3, 3, 1, 1)],                  # diagonal overlap
        # a crossing first, then an overlap among other segments
        [(0, 0, 4, 1), (9, 9, 7, 7), (2, 5, 6, 9), (0, 4, 4, 0), (6, 6, 8, 8)],
    ])
    def test_collinear_overlap_raises_on_both(self, coords):
        segs = _segments([tuple(map(float, c)) for c in coords])
        with pytest.raises(DegenerateGeometryError):
            _dense_hits(segs)
        assert _outcome(_sweep_hits, segs) == _outcome(_dense_hits, segs)

    def test_first_degenerate_pair_in_index_order_raises(self):
        # two overlaps: (1, 2) lies leftmost, so the sweep meets it first,
        # but (0, 3) comes first in (i, j) order, and its message is raised
        segs = _segments([(10.0, 10.0, 12.0, 12.0), (0.0, 0.0, 2.0, 0.0),
                          (1.0, 0.0, 3.0, 0.0), (11.0, 11.0, 13.0, 13.0)])
        want = ("degenerate", "collinear segments with overlapping interiors: "
                f"{segs[0]} / {segs[3]}")
        assert _outcome(_dense_hits, segs) == want
        assert _outcome(_sweep_hits, segs) == want
        # exempt by owner, the first overlap gives way to the second
        groups = [0, 1, 2, 0]
        assert _outcome(_sweep_hits, segs, groups) == _outcome(_dense_hits, segs, groups)
        assert f"{segs[1]} / {segs[2]}" in _outcome(_sweep_hits, segs, groups)[1]

    def test_collinear_touch_and_gap(self):
        touch = _segments([(0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 3.0, 3.0)])
        gap = _segments([(0.0, 0.0, 1.0, 1.0), (1.5, 1.5, 3.0, 3.0)])
        assert _sweep_hits(touch) == _dense_hits(touch) == [(0, 1)]
        assert _sweep_hits(gap) == _dense_hits(gap) == []

    def test_near_flat_crossing(self):
        # the chords cross at (1, 1e-9) with every determinant tiny, and
        # their boxes are 2e-9 tall
        segs = _segments([(0.0, 0.0, 2.0, 2e-9), (0.0, 2e-9, 2.0, 0.0)])
        assert _sweep_hits(segs) == _dense_hits(segs) == [(0, 1)]

    def test_touch_within_eps_across_box_edges(self):
        # a vertical EPS_GEOM / 4 right of a horizontal's end, and a
        # horizontal EPS_GEOM / 4 above a vertical's end: the boxes are
        # disjoint, the padded boxes are not, and both scans report the touch
        gap = 1.0 + EPS_GEOM / 4
        segs = _segments([(0.0, 0.0, 1.0, 0.0), (gap, 0.0, gap, 1.0),
                          (5.0, 0.0, 5.0, 1.0), (4.0, gap, 6.0, gap)])
        assert _sweep_hits(segs) == _dense_hits(segs) == [(0, 1), (2, 3)]

    def test_owner_groups(self):
        rng = derived_rng(34)
        families = []
        for _ in range(20):
            segs = _random_segments(rng, int(rng.integers(2, 120)), 10.0, 0.3)
            families.append((segs, rng.integers(0, 4, size=len(segs)).tolist()))
            families.append((segs, None))
        _assert_same_as_dense(families)
        # grouping really removes hits
        assert any(len(_dense_hits(s, g)) < len(_dense_hits(s))
                   for s, g in families[::2])

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_small_chunks(self, chunk, monkeypatch):
        rng = derived_rng(35, chunk)
        families = [(_random_segments(rng, 80, 10.0, 0.3), None) for _ in range(5)]
        families += [(_lattice_segments(rng, 6), None) for _ in range(5)]
        monkeypatch.setattr(verify, "PAIR_CHUNK", chunk)
        _assert_same_as_dense(families)

    def test_more_box_pairs_than_one_chunk(self):
        # 420 segments across one square: every x-range overlaps every
        # other, 87990 pairs, so the sweep expands them in two chunks
        rng = derived_rng(36)
        left = rng.uniform([0.0, 0.0], [0.1, 1.0], size=(420, 2))
        right = rng.uniform([0.9, 0.0], [1.0, 1.0], size=(420, 2))
        segs = _segments(np.hstack([left, right]).tolist())
        P = np.asarray([[s.a.x, s.a.y] for s in segs])
        Q = np.asarray([[s.b.x, s.b.y] for s in segs])
        chunks = [len(a) for a, _ in _box_pairs(P, Q)]
        assert 420 * 419 // 2 > verify.PAIR_CHUNK and len(chunks) == 2
        _assert_same_as_dense([(segs, None)])

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 16])
    def test_box_pairs_each_overlap_once(self, chunk, monkeypatch):
        monkeypatch.setattr(verify, "PAIR_CHUNK", chunk)
        rng = derived_rng(37, chunk)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            P = rng.integers(0, 8, size=(n, 2)).astype(float)
            Q = rng.integers(0, 8, size=(n, 2)).astype(float)
            got = [tuple(sorted(p)) for a, b in _box_pairs(P, Q)
                   for p in zip(a.tolist(), b.tolist())]
            lo, hi = np.minimum(P, Q), np.maximum(P, Q)
            want = [(i, j) for i in range(n) for j in range(i + 1, n)
                    if (lo[i] <= hi[j]).all() and (lo[j] <= hi[i]).all()]
            assert len(got) == len(set(got))
            assert sorted(got) == want

    def test_strip_excursion_chords(self):
        # nested excursion edges drawn as straight chords cross one another
        families = []
        for seed in range(4):
            ps = sample(SampleConfig(1, 1, Domain.strip(0, 150), seed))
            families.append((_matching_segments(excursion_matching(ps)), None))
        _assert_same_as_dense(families)


def _crossing_arcs(seed, n=80, length=40.0):
    """A random matching on the strip, and the table of four-vertex arcs for
    it at random heights below both endpoints: the arcs cross one another."""
    rng = derived_rng(seed, 38)
    reds = rng.uniform([0.0, 0.2], [length, 1.0], size=(n, 2))
    blues = np.column_stack([reds[:, 0] + rng.uniform(0.1, 6.0, n),
                             rng.uniform(0.2, 1.0, n)])
    m = Matching(reds, blues, [(i, i) for i in range(n)])
    arcs = []
    for (rx, ry), (bx, by), h in zip(reds.tolist(), blues.tolist(),
                                     rng.uniform(0.0, 0.2, n).tolist()):
        arcs.append(ArcSpec(edge=(len(arcs), len(arcs)), height=h, lowest=h,
                            depth=1, vertices=[(rx, ry), (rx, h), (bx, h), (bx, by)]))
    return m, table_of(arcs)


class TestReportsPinned:
    def test_planarity_chords_literal(self):
        # four chords through one point: every pair crosses
        reds = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        blues = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
        m = Matching(reds, blues, [(0, 3), (1, 2), (2, 1), (3, 0)])
        rep = check_planarity(m)
        assert rep.trials == 6
        assert rep.violations == [{"edges": [i, j]} for i in range(4)
                                  for j in range(i + 1, 4)]

    def test_arcs_literal(self):
        # red 1 -> blue 3 (depth 2, height 0.35) and red 2 -> blue 4 (depth
        # 1, height 0.5, no right leg): the second arc's horizontal crosses
        # the first one's right leg at (3, 0.5)
        ps = ColoredPointSet(Domain.strip(0, 10), reds=[[1, 0.8], [2, 0.7]],
                             blues=[[3, 0.9], [4, 0.5]], seed=0)
        m = Matching(ps.reds, ps.blues, [(0, 0), (1, 1)])
        arcs = polygonal_arcs(m, ps)
        assert check_planarity(m, arcs=arcs).to_json() == {
            "format": 1, "property": "planarity", "trials": 1, "pass": False,
            "violations": [{"edges": [0, 1]}]}
        rep = check_arc_disjointness(arcs)
        assert rep.trials == 10  # 5 segments
        assert rep.violations == [{"arcs": [0, 1]}]

    def test_arc_witnesses_name_edge_positions(self):
        # the literal's crossing pair and a third arc right of them, the
        # table in another order than the edges: the arcs that cross are
        # rows 1 and 2, the edges they draw are at positions 0 and 1
        ps = ColoredPointSet(Domain.strip(0, 10), reds=[[1, 0.8], [2, 0.7], [6, 0.5]],
                             blues=[[3, 0.9], [4, 0.5], [7, 0.5]], seed=0)
        m = Matching(ps.reds, ps.blues, [(0, 0), (1, 1), (2, 2)])
        rows = list(polygonal_arcs(m, ps))
        table = table_of([rows[2], rows[0], rows[1]])
        assert check_arc_disjointness(table).violations == [{"arcs": [1, 2]}]
        assert check_planarity(m, arcs=table).to_json() == {
            "format": 1, "property": "planarity", "trials": 3, "pass": False,
            "violations": [{"edges": [0, 1]}]}

    def test_reports_follow_dense_order(self):
        found = 0
        for seed in range(3):
            m, arcs = _crossing_arcs(seed)
            segs, owner = _arc_pieces(arcs)
            raw = _dense_hits(segs, owner)
            found += len(raw)
            report = check_arc_disjointness(arcs).to_json()
            assert report["violations"] == [{"arcs": [owner[i], owner[j]]} for i, j in raw]
            assert json.loads(json.dumps(report)) == report  # plain ints, not numpy
            assert check_arc_disjointness(arcs).trials == len(segs) * (len(segs) - 1) // 2
            planar = check_planarity(m, arcs=arcs)
            json.dumps(planar.to_json())
            assert planar.violations == [{"edges": [i, j]} for i, j in
                                         sorted({(owner[i], owner[j]) for i, j in raw})]
            assert planar.trials == len(arcs) * (len(arcs) - 1) // 2
            chords = check_planarity(m)
            assert chords.violations == [{"edges": [i, j]} for i, j in
                                         _dense_hits(_matching_segments(m))]
            assert chords.trials == len(m.edges) * (len(m.edges) - 1) // 2
        assert found > 0


def _strip_arcs(seed, length=150.0):
    ps = sample(SampleConfig(1, 1, Domain.strip(0, length), seed))
    m = excursion_matching(ps)
    return ps, m, polygonal_arcs(m, ps)


def _arc(vertices):
    return ArcSpec(edge=(0, 0), height=0.5, lowest=1.0, depth=1, vertices=vertices)


class TestArcArrays:
    """``_arc_arrays`` against the pieces that ``ArcSpec.segments`` lists."""

    @staticmethod
    def _check(arcs):
        segs, owner = _arc_pieces(arcs)
        P, Q, got = _arc_arrays(arcs)
        assert P.shape == Q.shape == (len(segs), 2)
        assert P.tolist() == [list(s.a) for s in segs]
        assert Q.tolist() == [list(s.b) for s in segs]
        assert got.tolist() == owner
        return len(segs)

    def test_seeded_strips(self):
        for seed in range(4):
            _, _, arcs = _strip_arcs(seed)
            # an end leg has zero length where the endpoint is its arc's
            # lowest point at depth 1; those pieces are dropped
            assert 0 < self._check(arcs) < 3 * len(arcs)

    def test_laminated_strips(self):
        _, _, arcs = laminate_strips([_strip_arcs(seed, 60.0) for seed in range(3)],
                                     shift=0.4)
        assert 0 < self._check(arcs) < 3 * len(arcs)

    def test_rows_list_the_flattened_pieces(self):
        # a row's segments are the table's pieces: perfbench counts the
        # verifiers' segments (verify.segments) from the rows
        strip = _strip_arcs(1)[2]
        laminate = laminate_strips([_strip_arcs(seed, 60.0) for seed in range(2)], shift=0.3)[2]
        for table in (strip, laminate):
            assert sum(len(a.segments()) for a in table) == len(_arc_arrays(table)[0]) > 0

    def test_no_arcs(self):
        assert self._check(table_of([])) == 0
        assert check_arc_disjointness(table_of([])).to_json()["trials"] == 0

    @pytest.mark.parametrize("vertices", [
        [(0.0, 1.0), (0.0, 0.5), (1.0, 1.0)],
        [(0.0, 1.0), (0.0, 0.5), (1.0, 0.5), (1.0, 1.0), (2.0, 1.0)],
        [(0.0, 1.0), (0.0, math.nan), (1.0, 0.5), (1.0, 1.0)],
        [(0.0, 1.0), (0.0, 0.5), (math.inf, 0.5), (1.0, 1.0)],
        [(0.0, 1.0, 0.0), (0.0, 0.5, 0.0), (1.0, 0.5, 0.0), (1.0, 1.0, 0.0)],
    ])
    def test_malformed_arc_rejected(self, vertices):
        good = _arc([(0.0, 1.0), (0.0, 0.5), (1.0, 0.5), (1.0, 1.0)])
        assert self._check(table_of([good, good])) == 6
        with pytest.raises(ValueError):
            table_of([good, _arc(vertices)])
        with pytest.raises(ValueError):
            table_of([_arc(vertices)])

    def test_three_vertex_arcs_are_not_regrouped(self):
        # four three-vertex arcs hold as many vertices as three four-vertex
        # ones; they must be rejected, not read as three arcs
        arcs = [_arc([(k, 1.0), (k, 0.5), (k + 0.5, 1.0)]) for k in range(4)]
        with pytest.raises(ValueError):
            table_of(arcs)

    def test_zero_length_chord_rejected(self):
        # far from every other chord, so no candidate pair would build it
        reds = np.array([[1.0, 0.5], [5.0, 0.5]])
        blues = np.array([[1.0, 0.5], [6.0, 0.5]])
        with pytest.raises(ValueError):
            check_planarity(Matching(reds, blues, [(0, 0), (1, 1)]))


class TestSharedArcHits:
    """``check_arc_disjointness`` and ``check_planarity(arcs=...)`` report
    from one hit list per ``ArcTable``."""

    @staticmethod
    def _reports(m, arcs):
        return (check_arc_disjointness(arcs).to_json(),
                check_planarity(m, arcs=arcs).to_json())

    def test_hits_found_once_per_table(self, monkeypatch):
        calls = []
        sweep = verify._pairwise_hits
        monkeypatch.setattr(verify, "_pairwise_hits",
                            lambda *a, **k: calls.append(1) or sweep(*a, **k))
        m, table = _crossing_arcs(1)
        want = self._reports(m, table)
        assert not want[0]["pass"]
        assert self._reports(m, table) == want  # again, from the kept hits
        assert len(calls) == 1

    def test_hits_never_reach_another_table(self):
        m, crossed = _crossing_arcs(2)
        _, good_m, good = _strip_arcs(0)
        assert not check_arc_disjointness(crossed).passed
        # a copy of a table finds its hits afresh and reports alike
        twin = table_of(crossed)
        assert check_planarity(m, arcs=twin).to_json() == check_planarity(m, arcs=crossed).to_json()
        assert check_arc_disjointness(good).passed
        assert check_planarity(good_m, arcs=good).passed
        # tables made and dropped in turn each report their own hits
        for k in range(20):
            t = table_of(crossed) if k % 2 else table_of(good)
            assert check_arc_disjointness(t).passed == (k % 2 == 0)
            del t


def _tampered(rows, how, n_reds):
    """The arc rows of a matching, changed so that they no longer draw it."""
    rows = list(rows)
    first, second = rows[0], rows[1]
    if how == "empty":
        return []
    if how == "one_missing":
        return rows[:-1]
    if how == "moved":
        return [replaced(a, vertices=[(x + 1000.0, y) for x, y in a.vertices]) for a in rows]
    if how == "end_moved":
        rows[0] = replaced(first, vertices=[*first.vertices[:3], (
            first.vertices[3][0], first.vertices[3][1] - 0.01)])
    elif how == "reversed":
        rows[0] = replaced(first, vertices=first.vertices[::-1])
    elif how == "not_an_edge":
        rows[0] = replaced(first, edge=(first.edge[0], second.edge[1]))
    elif how == "red_out_of_range":
        rows[0] = replaced(first, edge=(n_reds, first.edge[1]))
    else:  # "twice"
        rows[1] = first
    return rows


TAMPERINGS = ("empty", "one_missing", "moved", "end_moved", "reversed", "not_an_edge",
              "red_out_of_range", "twice")


class TestArcsDrawTheMatching:
    """``check_planarity(m, arcs)`` reads the table as the drawing of ``m``:
    one arc per edge, from the edge's red to its partner, in any order."""

    def test_any_row_order_reports_alike(self):
        for seed in range(3):
            _, m, arcs = _strip_arcs(seed, 60.0)
            rows = list(arcs)
            want = check_planarity(m, arcs=arcs).to_json()
            assert want["pass"] and want["trials"] == len(rows) * (len(rows) - 1) // 2
            order = derived_rng(seed, 3).permutation(len(rows)).tolist()
            assert check_planarity(m, arcs=table_of([rows[k] for k in order])).to_json() == want

    def test_one_color_edges_are_found_by_their_first_red(self):
        ps = sample(SampleConfig(1, 1, Domain.strip(0, 40), 5))
        m = one_color_pairing(ps, 1)
        rows = list(polygonal_arcs(m, ps))
        rep = check_planarity(m, arcs=table_of(rows[::-1]))
        assert rep.passed and rep.trials == len(rows) * (len(rows) - 1) // 2 > 0
        with pytest.raises(ValueError):
            check_planarity(m, arcs=table_of(_tampered(rows, "not_an_edge", ps.n_red)))

    @pytest.mark.parametrize("how", TAMPERINGS)
    def test_arcs_that_draw_something_else_rejected(self, how):
        ps, m, arcs = _strip_arcs(1, 60.0)
        tampered = table_of(_tampered(arcs, how, ps.n_red))
        with pytest.raises(ValueError, match="arc") as rejected:
            check_planarity(m, arcs=tampered)
        # rejected as a drawing, not for the segments that overlap once drawn
        assert not isinstance(rejected.value, DegenerateGeometryError)
        assert check_planarity(m, arcs=arcs).passed


class TestArcDisjointness:
    def test_random_strip_arcs(self):
        dom = Domain.strip(0.0, 40.0)
        for seed in range(5):
            ps = sample(SampleConfig(1.0, 1.0, dom, seed))
            m = excursion_matching(ps)
            arcs = polygonal_arcs(m, ps)
            assert check_arc_disjointness(arcs).passed


def assert_cycle_witness(m, rep=None):
    """``minimality_certificate`` fails ``m`` (``rep``, its report, if given)
    on one cycle of distinct edges, from the least, whose rematch, each red
    taking the next edge's partner, shortens the matching by more than
    EPS_TIE: by its ``change``, summed again here with math.hypot. Returns
    the witness."""
    rep = minimality_certificate(m) if rep is None else rep
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


class TestCycleCertificate:
    def test_passes_exactly_at_the_brute_force_minimum(self):
        # every size up to 7, on uniform points and on 3 x 3 lattices, whose
        # points repeat and whose lengths tie; the matching a random
        # permutation or the solver's
        rng = derived_rng(83)
        failed = 0
        for trial in range(600):
            n = trial % 8
            if trial % 3:
                reds, blues = (rng.integers(0, 3, (n, 2)).astype(float) for _ in range(2))
            else:
                reds, blues = rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (n, 2))
            m = (min_cost_perfect(reds, blues) if trial % 4 == 0 else
                 Matching(reds, blues, list(enumerate(rng.permutation(n).tolist()))))
            rep = minimality_certificate(m)
            least = brute_force_min(reds, blues).total_length
            assert rep.passed == (m.total_length <= least + EPS_TIE)
            if not rep.passed:
                assert_cycle_witness(m, rep)
                failed += 1
        assert 200 < failed < 500

    def test_catches_a_rematch_no_two_swap_makes(self):
        # no partner swap of two edges shortens this matching, but moving
        # every partner one edge along a 4-cycle does
        rng = derived_rng(41, 106)
        reds, blues = rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (4, 2))
        m = Matching(reds, blues, [(0, 2), (1, 3), (2, 1), (3, 0)])
        for a, b in itertools.combinations(range(4), 2):
            edges = list(m.edges)
            edges[a], edges[b] = (a, m.edges[b][1]), (b, m.edges[a][1])
            assert Matching(reds, blues, edges).total_length > m.total_length
        v = assert_cycle_witness(m)
        assert v["edges"] == [0, 2, 1, 3]
        assert m.total_length + v["change"] == pytest.approx(
            brute_force_min(reds, blues).total_length)

    def test_agrees_with_the_line_certificate(self):
        for seed in range(4):
            ps = sample(SampleConfig(1, 1, Domain.line(0, 150), seed=seed))
            m = excursion_matching(ps)
            for case in (m, _rematched(m, [3, 40], [40, 3]),
                         _rematched(m, [3, 20, 40], [20, 40, 3]), zero_block_matching(ps)):
                rep = minimality_certificate(case)
                assert rep.passed == minimality_certificate_d1(case).passed
                if not rep.passed:
                    assert_cycle_witness(case, rep)

    def test_catches_a_swapped_pair_and_a_three_cycle_in_the_plane(self):
        ps, n = balanced(square_ps(5, side=8.0))
        m = min_cost_perfect(ps.reds[:n], ps.blues[:n])
        assert n > 40 and minimality_certificate(m).passed
        assert_cycle_witness(_rematched(m, [3, 40], [40, 3]))
        assert_cycle_witness(_rematched(m, [3, 20, 40], [20, 40, 3]))

    def test_hierarchy_matching_fails(self):
        # the N=4 hierarchy of seed 0 is no min-cost matching of its edges' ends
        *_, (m, _, _) = hierarchical_case(seed=0, N=4)
        assert_cycle_witness(m)

    def test_one_color_reads_first_end_against_second(self):
        # as a pairing, (0, 1) and (2, 3) is shorter; first ends against
        # second ends, taking each other's second ends ties
        reds = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        m = Matching(reds, np.empty((0, 2)), [(0, 2), (1, 3)], color_mode=ONE_COLOR)
        assert minimality_certificate(m).passed
        m = Matching(reds, np.empty((0, 2)), [(0, 2), (3, 1)], color_mode=ONE_COLOR)
        assert assert_cycle_witness(m)["edges"] == [0, 1]

    def test_no_arc_without_two_edges(self):
        ps = square_ps(1)
        for edges in ([], [(0, 0)]):
            rep = minimality_certificate(Matching(ps.reds, ps.blues, edges))
            assert rep.passed and rep.trials == 0 and rep.violations == []

    @pytest.mark.parametrize("n", [50, 200, 500])
    def test_certifies_the_solver_beyond_brute_force(self, n):
        # an oracle for the kernel path where brute force cannot run: it
        # shares no code with assign_in_groups
        rng = derived_rng(89, n)
        m = min_cost_perfect(rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (n, 2)))
        rep = minimality_certificate(m)
        assert rep.passed and rep.trials == n * (n - 1)

    def test_kept_rows_change_no_report(self, monkeypatch):
        # every block's distance rows kept, only the first two, or none:
        # the same reports, passing and failing, on the plane and a strip
        rng = derived_rng(89, 300)
        m = min_cost_perfect(rng.uniform(0, 1, (300, 2)), rng.uniform(0, 1, (300, 2)))
        strip = excursion_matching(sample(SampleConfig(1, 1, Domain.strip(0, 3000), seed=3)))
        cases = [m, _rematched(m, [3, 100, 250], [100, 250, 3]), strip]
        reports = []
        for spare in (verify.SPARE_ENTRIES, 2 * ROW_BLOCK * 300, 0):
            monkeypatch.setattr(verify, "SPARE_ENTRIES", spare)
            reports.append([json.dumps(minimality_certificate(case).to_json())
                            for case in cases])
        assert [json.loads(r)["pass"] for r in reports[0]] == [True, False, False]
        assert reports[0] == reports[1] == reports[2]

    def test_holds_no_square_array(self):
        # row blocks: a strip matching of ~10**4 edges needs no (n, n) array
        m = excursion_matching(sample(SampleConfig(1, 1, Domain.strip(0, 1e4), seed=3)))
        n = len(m._edge_array())
        tracemalloc.start()
        try:
            assert_cycle_witness(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 16


def chernoff_frequency(p, draws, seed):
    """The Monte Carlo frequency of X - X' >= Y over ``draws`` seeded draws
    of X, X' ~ Poisson(lam) and Y ~ Poisson(mu): the oracle of the exact
    ``chernoff_tail``."""
    rng = derived_rng(seed, 7)
    x, x2, y = (rng.poisson(mean, size=draws) for mean in (p.lam, p.lam, p.mu))
    return float(np.mean(x - x2 >= y))


def triple_sum_tail(p, top=60):
    """P(X - X' >= Y) summed directly over every (x, x', y) up to ``top``,
    a term of which is P(X = x) P(X' = x') P(Y = y) where x - x' >= y."""
    def pmf(mean):
        return [math.exp(k * math.log(mean) - mean - math.lgamma(k + 1)) for k in range(top)]
    px, py = pmf(p.lam), pmf(p.mu)
    return math.fsum(px[x] * px[x2] * py[y] for x in range(top) for x2 in range(x + 1)
                     for y in range(x - x2 + 1))


class TestChernoff:
    def test_spot_value_equal_means(self):
        assert abs(chernoff_bound(ChernoffParams(6, 6)) - math.exp(-1)) < 1e-6

    def test_spot_value_half_mean(self):
        want = math.exp(-25.0 / 60.0)
        assert abs(chernoff_bound(ChernoffParams(10, 5)) - want) < 1e-6

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ChernoffParams(5, 6)  # mu > lam
        with pytest.raises(ValueError):
            ChernoffParams(5, 0)

    def test_tail_window_bounded(self):
        # a window about inf, or of more than MAX_TAIL_COUNTS counts
        for lam in (math.inf, 1e12):
            with pytest.raises(ValueError, match="no exact tail"):
                chernoff_tail(ChernoffParams(lam, lam / 2))

    @pytest.mark.parametrize("lam,mu", [(1, 1), (5, 2.5), (10, 5), (20, 20)])
    def test_mc_within_bound(self, lam, mu):
        # the Monte Carlo frequency lies within 4 sigma of the exact tail,
        # and the tail below the bound
        p = ChernoffParams(lam, mu)
        tail, draws = chernoff_tail(p), 200_000
        sigma = math.sqrt(tail * (1.0 - tail) / draws)
        assert abs(chernoff_frequency(p, draws, seed=4) - tail) <= 4 * sigma
        assert tail <= chernoff_bound(p)

    @pytest.mark.parametrize("lam,mu", [(0.01, 0.01), (0.5, 0.25), (1, 1), (2, 0.5), (3, 3),
                                        (5, 1.25), (5, 5)])
    def test_tail_equals_the_triple_sum(self, lam, mu):
        p = ChernoffParams(lam, mu)
        assert abs(chernoff_tail(p) - triple_sum_tail(p)) <= 1e-12


def _eta_by_edge(pairs, fraction=0.5):
    """``estimate_eta``'s payload by a loop over the edges, one red at a time."""
    per_window, pooled, matched, skipped = [], 0.0, 0, 0
    for ps, m in pairs:
        s = interior_window(ps, fraction)

        def inside(p):
            return s.x0 <= p[0] < s.x1 and s.y0 <= p[1] < s.y1

        partners = ps.reds if m.color_mode == ONE_COLOR else ps.blues
        total = 0.0
        for i, j in m.edges:
            red, partner = ps.reds[i].tolist(), partners[j].tolist()
            if inside(red):
                total += math.hypot(red[0] - partner[0], red[1] - partner[1])
                matched += 1
        pooled += total
        skipped += sum(1 for i in m.unmatched_reds if inside(ps.reds[i].tolist()))
        per_window.append(total / s.area)
    return {"eta_hat": float(np.mean(per_window)) if per_window else 0.0,
            "eta_per_matched_red": pooled / max(matched, 1), "per_window": per_window,
            "unmatched_reds_in_interior": skipped, "fraction": fraction}


class TestEta:
    def test_payload_equals_a_loop_over_the_edges(self):
        strip = sample(SampleConfig(1.3, 1.0, Domain.strip(0, 80), 5))
        line = sample(SampleConfig(1.2, 1.0, Domain.line(0, 80), 6))
        plane, _ = balanced(square_ps(3, side=6.0))
        pairs = [(strip, excursion_matching(strip)), (strip, one_color_pairing(strip, 1)),
                 (line, excursion_matching(line)),
                 (plane, min_cost_perfect(plane.reds, plane.blues)),
                 (strip, Matching(strip.reds, strip.blues, []))]
        # unmatched reds both inside and outside the interior windows
        inner = [interior_window(ps).contains(ps.reds[m.unmatched_reds].T) for ps, m in pairs]
        assert np.concatenate(inner).any() and not np.concatenate(inner).all()
        for chosen in [pairs, *([pair] for pair in pairs), []]:
            for fraction in (0.5, 0.8):
                assert estimate_eta(chosen, fraction).payload == _eta_by_edge(chosen, fraction)

    def test_interior_window_centered(self):
        ps = square_ps(0, side=10.0)
        s = interior_window(ps, 0.5)
        assert s == Rect(2.5, 7.5, 2.5, 7.5)

    def test_translation_covariance(self):
        ps, n = balanced(square_ps(2, side=10.0))
        m = min_cost_perfect(ps.reds, ps.blues)
        base = estimate_eta([(ps, m)]).payload["eta_hat"]

        shift = np.array([37.0, -12.0])
        dom2 = Domain.plane(0.0 + shift[0], 10.0 + shift[0],
                            0.0 + shift[1], 10.0 + shift[1])
        ps2 = ColoredPointSet(dom2, ps.reds + shift, ps.blues + shift, seed=ps.seed)
        m2 = Matching(ps2.reds, ps2.blues, m.edges)
        moved = estimate_eta([(ps2, m2)]).payload["eta_hat"]
        assert abs(base - moved) < 1e-9

    def test_handcrafted_density(self):
        # one edge of length 2 with its red endpoint inside the interior
        # half-window of a 4x4 square: eta_hat = 2 / 4
        dom = Domain.plane(0.0, 4.0, 0.0, 4.0)
        ps = ColoredPointSet(dom, [[2.0, 2.0]], [[2.0, 0.5]], seed=0)
        m = Matching(ps.reds, ps.blues, [(0, 0)])
        rep = estimate_eta([(ps, m)], fraction=0.5)
        assert abs(rep.payload["eta_hat"] - 1.5 / 4.0) < 1e-12

    def test_unmatched_reds_reported(self):
        dom = Domain.plane(0.0, 4.0, 0.0, 4.0)
        ps = ColoredPointSet(dom, [[2.0, 2.0]], [], seed=0)
        m = Matching(ps.reds, ps.blues, [])
        assert m.unmatched_reds == [0]
        rep = estimate_eta([(ps, m)])
        assert rep.payload["unmatched_reds_in_interior"] == 1


class TestCrossingStats:
    def test_handcrafted_counts(self):
        reds = np.array([[0.0, 0.0], [0.0, 2.0]])
        blues = np.array([[4.0, 0.0], [4.0, 2.0]])
        m = Matching(reds, blues, [(0, 0), (1, 1)])
        regions = [Disk(2.0, 0.0, 0.5),          # crosses edge 0 only
                   Disk(2.0, 1.0, 1.5),          # crosses both
                   Rect(1.0, 3.0, 5.0, 6.0)]     # crosses neither
        rep = crossing_stats(m, regions)
        assert rep.payload["counts"] == [1, 2, 0]
        assert rep.payload["max"] == 2
        assert rep.payload["tail_ge_10"] == 0

    def test_counts_equal_the_per_edge_loop(self):
        # random chords, lattice chords (touching the rectangles, vertical
        # ones running along their sides), and a chord through the bottom
        # side of the first Rect with both ends outside it
        rng = derived_rng(44)
        reds = np.vstack([rng.uniform(0.0, 4.0, (150, 2)),
                          rng.integers(0, 5, (150, 2)).astype(float), [[-1.0, 1.0]]])
        blues = np.vstack([rng.uniform(0.0, 4.0, (150, 2)),
                           rng.integers(0, 5, (150, 2)).astype(float) + [[0.0, 0.5]],
                           [[5.0, 1.0]]])
        m = Matching(reds, blues, [(i, i) for i in range(len(reds))])
        regions = [Disk(2.0, 2.0, 1.0), Disk(1.0, 1.0, 0.5),
                   Rect(1.0, 3.0, 1.0, 2.0), Rect(0.0, 4.0, 0.5, 1.5)]
        segs = _matching_segments(m)
        want = [sum(scalar_edge_crosses_region(s, r) for s in segs) for r in regions]
        assert crossing_stats(m, regions).payload["counts"] == want
        assert all(0 < c < len(segs) for c in want)

    def test_zero_length_edge_rejected(self):
        m = Matching(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]), [(0, 0)])
        with pytest.raises(ValueError):
            crossing_stats(m, [Disk(0.0, 0.0, 1.0)])


class TestBoxRematch:
    def test_crossed_square_improves_by_exact_amount(self):
        dom = Domain.plane(0.0, 2.0, 0.0, 2.0)
        ps = ColoredPointSet(dom, [[0.0, 0.0], [1.0, 0.0]],
                             [[1.0, 1.0], [0.0, 1.0]], seed=0)
        # crossing matching: both diagonals of the unit square, length 2*sqrt(2)
        # (blue arrays are canonically sorted: blue 0 = (0,1), blue 1 = (1,1))
        m = Matching(ps.reds, ps.blues, [(0, 1), (1, 0)])
        res = box_rematch_experiment(ps, m, t=2.0)
        assert abs(res.improvement - (2 * math.sqrt(2) - 2)) < 1e-9
        assert abs(res.length_after - 2.0) < 1e-9
        assert check_planarity(res.matching).passed

    def test_boundary_crossing_edges_untouched(self):
        dom = Domain.plane(0.0, 4.0, 0.0, 4.0)
        # edge spans two side-2 cells; it must come back unchanged
        ps = ColoredPointSet(dom, [[0.5, 0.5], [1.5, 1.5]],
                             [[3.5, 0.5], [1.5, 0.5]], seed=0)
        m = Matching(ps.reds, ps.blues, [(0, 0), (1, 1)])
        res = box_rematch_experiment(ps, m, t=2.0)
        assert (0, 0) in res.matching.edges
        assert res.improvement == 0.0

    def test_never_increases_length(self):
        for seed in range(6):
            ps, n = balanced(square_ps(seed, side=8.0))
            if n == 0:
                continue
            # deliberately suboptimal: pair in canonical order
            m = Matching(ps.reds, ps.blues, [(i, i) for i in range(n)])
            for t in (1.0, 2.0, 4.0):
                res = box_rematch_experiment(ps, m, t)
                assert res.length_after <= res.length_before + 1e-9
                # and no cell of the oracle lengthens its own edges
                assert all(imp >= -1e-9 for imp in _box_rematch_loop(ps, m, t)[0])

    def test_optimal_matching_is_fixed_point(self):
        ps, n = balanced(square_ps(3, side=6.0))
        m = min_cost_perfect(ps.reds, ps.blues)
        res = box_rematch_experiment(ps, m, t=3.0)
        assert abs(res.improvement) < 1e-9

    def test_rejects_nonpositive_side(self):
        ps, n = balanced(square_ps(0, side=4.0))
        m = Matching(ps.reds, ps.blues, [(i, i) for i in range(n)])
        with pytest.raises(ValueError):
            box_rematch_experiment(ps, m, t=0.0)

    @pytest.mark.parametrize("t,x1", [pytest.param(math.nan, 4.0, id="nan"),
                                      pytest.param(math.inf, 4.0, id="inf"),
                                      pytest.param(5e-324, 4.0, id="5e-324"),
                                      pytest.param(6.0, 1e308, id="window_2e308_wide")])
    def test_rejects_side_not_finite(self, t, x1):
        # NaN passes a plain `t <= 0` test, and then no edge lies in any cell.
        # 2**53 squares or more across, cell numbers are no exact floats: at
        # 5e-324 both ends' cells overflowed to inf, which made them one cell
        ps = ColoredPointSet(Domain.strip(-x1, x1), [[0.5, 0.5]], [[1.0, 0.5]])
        m = Matching(ps.reds, ps.blues, [(0, 0)])
        with pytest.raises(ValueError, match="square side"):
            box_rematch_experiment(ps, m, t=t)


def _min_cost_perfect(reds, blues):
    """min_cost_perfect as a single-problem solve, independent of the
    package's grouped one: public ``cdist`` and ``linear_sum_assignment``,
    the rows in golden-ratio order."""
    reds, blues = np.asarray(reds, float).reshape(-1, 2), np.asarray(blues, float).reshape(-1, 2)
    n = len(reds)
    order = np.argsort(np.arange(n) * ((math.sqrt(5.0) - 1.0) / 2.0) % 1.0, kind="stable")
    assign = np.empty(n, dtype=int)
    assign[order] = linear_sum_assignment(cdist(reds[order], blues))[1]
    return Matching(reds, blues, list(enumerate(assign.tolist())))


def _added(values):
    """``values`` added one by one from 0.0, in order."""
    total = 0.0
    for x in values:
        total += x
    return total


def _box_rematch_loop(ps, m, t):
    """box_rematch_experiment as a plain loop over the edges, kept verbatim
    as the oracle for the grouped version, with its own single-problem
    solve: (improvements, new edges)."""
    d = ps.domain
    cell_of = {}
    for k, (i, j) in enumerate(m.edges):
        r, b = ps.reds[i], ps.blues[j]
        cr = (int((r[0] - d.x0) // t), int((r[1] - d.y0) // t))
        cb = (int((b[0] - d.x0) // t), int((b[1] - d.y0) // t))
        if cr == cb:
            cell_of.setdefault(cr, []).append(k)
    new_edges = list(m.edges)
    improvements = []
    for cell, ks in sorted(cell_of.items()):
        ridx = [m.edges[k][0] for k in ks]
        bidx = [m.edges[k][1] for k in ks]
        before = _added(math.hypot(*(ps.reds[i] - ps.blues[j])) for i, j in zip(ridx, bidx))
        sub = _min_cost_perfect(ps.reds[ridx], ps.blues[bidx])
        after = sub.total_length
        improvements.append(before - after)
        for (a, b) in sub.edges:
            new_edges[ks[a]] = (ridx[a], bidx[b])
    return improvements, new_edges


class TestBoxRematchAgainstLoop:
    @staticmethod
    def _same(ps, m, t):
        res = box_rematch_experiment(ps, m, t)
        improvements, edges = _box_rematch_loop(ps, m, t)
        assert res.cells_rematched == len(improvements)
        assert res.matching.edges == edges
        # bit-identical totals: the oracle's matching summed in edge order
        assert res.length_before == m.total_length
        assert res.length_after == Matching(ps.reds, ps.blues, edges).total_length
        return len(improvements)

    def test_random_matchings(self):
        rng = np.random.default_rng(71)
        cells = 0
        for seed in range(8):
            ps, n = balanced(square_ps(seed, side=10.0))
            m = Matching(ps.reds, ps.blues, list(enumerate(rng.permutation(n).tolist())))
            near = min_cost_perfect(ps.reds, ps.blues)
            for t in (0.7, 2.0, 3.5, 25.0):
                cells += self._same(ps, m, t) + self._same(ps, near, t)
        assert cells > 100

    def test_edges_on_and_across_cell_boundaries(self):
        # lattice points lie on the side-2 cell edges: each half-open cell
        # takes its lower-left edges, and edges between cells stay as they are
        dom = Domain.plane(0.0, 6.0, 0.0, 6.0)
        rng = np.random.default_rng(5)
        pts = np.array([(x, y) for x in range(6) for y in range(6)], dtype=float)
        cells = 0
        for _ in range(5):
            perm = rng.permutation(len(pts))
            ps = ColoredPointSet(dom, pts[perm[:18]], pts[perm[18:]], seed=0)
            m = Matching(ps.reds, ps.blues, [(i, i) for i in range(18)])  # x-order pairs
            cells += self._same(ps, m, 2.0)
        assert cells >= 5

    def test_no_edges(self):
        ps, _ = balanced(square_ps(1, side=4.0))
        m = Matching(ps.reds, ps.blues, [])
        assert self._same(ps, m, 2.0) == 0

    def test_window_of_2_15_cells_or_more(self, monkeypatch):
        # three edges in each of 60 cells scattered over a 256-by-256 grid
        # of side 1, so the cells' numbers sort as int64 (``_cell_order``)
        bounds = []
        monkeypatch.setattr(verify, "_stable_order",
                            lambda key, bound: bounds.append(bound) or _stable_order(key, bound))
        rng = np.random.default_rng(73)
        cell = rng.choice(256 * 256, 60, replace=False)
        corner = np.repeat(np.column_stack([cell // 256, cell % 256]), 3, axis=0).astype(float)
        reds, blues = (corner + rng.uniform(0, 1, corner.shape) for _ in range(2))
        ps = ColoredPointSet(Domain.plane(0.0, 256.0, 0.0, 256.0), reds, blues, seed=0)
        # red k shares its cell with blue k; each cell's blues go in reverse
        at_r, at_b = (np.argsort(canonical_order(pts)) for pts in (reds, blues))
        blue_of = np.arange(len(reds)).reshape(-1, 3)[:, ::-1].ravel()
        m = Matching(ps.reds, ps.blues, np.column_stack([at_r, at_b[blue_of]]))
        assert self._same(ps, m, 1.0) == 60
        assert bounds and min(bounds) >= 2 ** 15


class TestCellOrder:
    """``_cell_order`` against ``np.lexsort``: by int16 cell numbers, by
    int64 ones past 2**15 cells, and by the lexsort itself past 2**53 cells
    or for an infinite cell."""

    def test_each_way_is_the_lexsort(self, monkeypatch):
        bounds = []
        monkeypatch.setattr(verify, "_stable_order",
                            lambda key, bound: bounds.append(bound) or _stable_order(key, bound))
        rng = np.random.default_rng(74)
        lexsorts = 0
        for lo, hi in ((0, 3), (-7, 100), (1000, 1400), (-2 ** 40, 2 ** 40), (0, 2 ** 60)):
            for n in (0, 1, 50, 500):
                x, y = (rng.integers(lo, hi, n).astype(float) for _ in range(2))
                calls = len(bounds)
                assert np.array_equal(verify._cell_order(x, y), np.lexsort((y, x)))
                lexsorts += len(bounds) == calls
        x = np.array([3.0, np.inf, -np.inf, 3.0, np.inf, 0.0])
        y = np.array([1.0, 0.0, 2.0, 0.0, 0.0, -np.inf])
        calls = len(bounds)
        with np.errstate(invalid="ignore"):  # inf - inf
            assert np.array_equal(verify._cell_order(x, y), np.lexsort((y, x)))
        lexsorts += len(bounds) == calls
        # the two widest ranges at 50 and 500 cells, and the infinite cells
        assert min(bounds) < 2 ** 15 < max(bounds) < 2 ** 53 and lexsorts == 5
