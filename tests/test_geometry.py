import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_matching.geometry import (EPS_GEOM, DegenerateGeometryError, Disk,
                                       Domain, Rect, _crosses_region, _intersections,
                                       orientation)
from poisson_matching.arcs import ArcSpec
from poisson_matching.hierarchy import BlockRecord, ChernoffParams
from poisson_matching.sampling import SampleConfig
from poisson_matching.verify import _pairwise_hits
from oracles import (Overlap, Point, Segment, scalar_edge_crosses_region,
                     scalar_is_parallel_free, scalar_orientation, scalar_segments_intersect)


def seg(ax, ay, bx, by):
    return Segment(Point(ax, ay), Point(bx, by))


HIT, MISS, OVERLAP = (True, False), (False, False), (False, True)


def one_pair(s1: Segment, s2: Segment):
    """``_intersections`` on the one pair of segments, as (hit, degenerate)."""
    hit, degenerate = _intersections(*([p] for p in (s1.a, s1.b, s2.a, s2.b)))
    return bool(hit[0]), bool(degenerate[0])


def crosses(s: Segment, region) -> bool:
    """``_crosses_region`` on the one segment, as (1, 2) endpoint arrays."""
    return bool(_crosses_region(np.array([s.a], dtype=float),
                                np.array([s.b], dtype=float), region)[0])


class TestSegmentsIntersect:
    def test_square_diagonals_meet(self):
        assert one_pair(seg(0, 0, 1, 1), seg(0, 1, 1, 0)) == HIT

    def test_parallel_horizontals_disjoint(self):
        assert one_pair(seg(0, 0, 1, 0), seg(0, 1, 1, 1)) == MISS

    def test_shared_endpoint_counts(self):
        # closed-segment semantics
        assert one_pair(seg(0, 0, 1, 1), seg(1, 1, 2, 0)) == HIT

    def test_t_junction(self):
        assert one_pair(seg(0, 0, 2, 0), seg(1, 0, 1, 1)) == HIT

    def test_collinear_overlap_flagged(self):
        assert one_pair(seg(0, 0, 2, 0), seg(1, 0, 3, 0)) == OVERLAP

    def test_collinear_endpoint_touch(self):
        assert one_pair(seg(0, 0, 1, 0), seg(1, 0, 2, 0)) == HIT

    def test_collinear_disjoint(self):
        assert one_pair(seg(0, 0, 1, 0), seg(2, 0, 3, 0)) == MISS

    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, cs):
        a, b = Point(cs[0], cs[1]), Point(cs[2], cs[3])
        c, d = Point(cs[4], cs[5]), Point(cs[6], cs[7])
        if a == b or c == d:
            return
        s1, s2 = Segment(a, b), Segment(c, d)
        assert one_pair(s1, s2) == one_pair(s2, s1)

    @pytest.mark.parametrize("swap", [False, True])
    def test_collinear_tie_of_low_ends_in_either_order(self, swap):
        # every orientation at this scale is within EPS_GEOM, so the pair is
        # collinear; both low ends are (-8.89e-188, 0), and the overlap up to
        # the smaller high end, (0, 0), is one point within EPS_GEOM: a touch
        pair = [seg(0, 1, -8.89e-188, 0), seg(-8.89e-188, 0, 0, 0)]
        s1, s2 = pair[::-1] if swap else pair
        assert scalar_segments_intersect(s1, s2)
        assert one_pair(s1, s2) == HIT


class TestParallelFree:
    # the scalar oracle the other test modules check their samples with
    def test_unit_square_corners_not(self):
        assert not scalar_is_parallel_free([(0, 0), (1, 0), (0, 1), (1, 1)])

    def test_three_points(self):
        assert scalar_is_parallel_free([(0, 0), (1, 0), (0, 1)])

    def test_random_points_almost_surely(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 1, size=(20, 2))
        assert scalar_is_parallel_free(pts)

    def test_never_degenerate_for_parallel_free(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(12, 2))
        assert scalar_is_parallel_free(pts)
        segs = [Segment(Point(*pts[2 * i]), Point(*pts[2 * i + 1])) for i in range(6)]
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                assert not one_pair(segs[i], segs[j])[1]


# --- Array forms against the scalar oracles ---------------------------------

def _pair_rows(kind, seed, n=10_000):
    """n coordinate rows (ax, ay, bx, by, cx, cy, dx, dy) of segment pairs,
    less those with a zero-length segment: uniform in the unit square,
    on a 4 x 4 integer grid (collinear, touching and overlapping pairs),
    that grid moved by up to 2 EPS_GEOM per coordinate (signs and touches
    at the tolerance), or uniform scaled by 1e5."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        c = rng.uniform(0.0, 1.0, (n, 8))
    elif kind == "grid":
        c = rng.integers(0, 4, (n, 8)).astype(float)
    elif kind == "grid_eps":
        c = rng.integers(0, 4, (n, 8)) + rng.uniform(-2.0, 2.0, (n, 8)) * EPS_GEOM
    else:
        c = rng.uniform(0.0, 1.0, (n, 8)) * 1e5
    return c[(c[:, 0:2] != c[:, 2:4]).any(axis=1) & (c[:, 4:6] != c[:, 6:8]).any(axis=1)]


def _scalar_outcomes(rows):
    """Per row: the oracle's answer, or None where it raises."""
    out = []
    for ax, ay, bx, by, cx, cy, dx, dy in rows.tolist():
        try:
            out.append(scalar_segments_intersect(seg(ax, ay, bx, by), seg(cx, cy, dx, dy)))
        except Overlap:
            out.append(None)
    return out


PAIR_KINDS = ["random", "grid", "grid_eps", "scaled"]


class TestArrayFormsAgainstScalar:
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_intersections_row_by_row(self, kind):
        rows = _pair_rows(kind, seed=PAIR_KINDS.index(kind))
        want = _scalar_outcomes(rows)
        hit, degenerate = _intersections(rows[:, 0:2], rows[:, 2:4], rows[:, 4:6], rows[:, 6:8])
        assert hit.tolist() == [w is True for w in want]
        assert degenerate.tolist() == [w is None for w in want]
        # every family decides both ways; the grids also raise
        assert 0 < hit.sum() < len(rows)
        if kind.startswith("grid"):
            assert degenerate.sum() > 0

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_segments_intersect_answers_and_raises_alike(self, kind):
        # one pair at a time, and a pair the oracle raises on raises its
        # message in the segment sweep too
        rows = _pair_rows(kind, seed=10 + PAIR_KINDS.index(kind), n=1500)
        for ax, ay, bx, by, cx, cy, dx, dy in rows.tolist():
            s1, s2 = seg(ax, ay, bx, by), seg(cx, cy, dx, dy)
            try:
                want = scalar_segments_intersect(s1, s2)
            except Overlap as e:
                assert one_pair(s1, s2) == OVERLAP
                with pytest.raises(DegenerateGeometryError) as got:
                    _pairwise_hits(np.array([[ax, ay], [cx, cy]]), np.array([[bx, by], [dx, dy]]))
                assert str(got.value) == str(e)
            else:
                assert one_pair(s1, s2) == (want, False)

    def test_integer_segments_keep_their_message(self):
        s1, s2 = seg(0, 0, 2, 0), seg(1, 0, 3, 0)
        with pytest.raises(DegenerateGeometryError) as got:
            _pairwise_hits(np.array([[0, 0], [1, 0]]), np.array([[2, 0], [3, 0]]))
        assert str(got.value) == ("collinear segments with overlapping interiors: "
                                  f"{s1} / {s2}")
        assert str(got.value).endswith(": (0, 0)-(2, 0) / (1, 0)-(3, 0)")

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_orientation_signs(self, kind):
        rows = _pair_rows(kind, seed=20 + PAIR_KINDS.index(kind))
        A, B, C = rows[:, 0:2], rows[:, 2:4], rows[:, 4:6]
        got = orientation(A, B, C)
        assert got.dtype == np.int8
        assert got.tolist() == [scalar_orientation(a, b, c)
                                for a, b, c in zip(A.tolist(), B.tolist(), C.tolist())]
        assert {-1, 1} <= set(got.tolist())

    def test_sides_broadcast_against_rows(self):
        rows = _pair_rows("grid", seed=30, n=2000)
        c, d = (1.0, 1.0), (1.0, 3.0)
        hit, degenerate = _intersections(rows[:, 0:2], rows[:, 2:4], c, d)
        want = _scalar_outcomes(np.hstack([rows[:, :4], np.tile([*c, *d], (len(rows), 1))]))
        assert hit.tolist() == [w is True for w in want]
        assert degenerate.tolist() == [w is None for w in want]

    def test_no_rows(self):
        empty = np.zeros((0, 2))
        hit, degenerate = _intersections(empty, empty, empty, empty)
        assert hit.shape == degenerate.shape == (0,)
        assert _crosses_region(empty, empty, Rect(0, 1, 0, 1)).shape == (0,)
        assert _crosses_region(empty, empty, Disk(0, 0, 1)).shape == (0,)


REGIONS = [Disk(1.0, 1.0, 1.0), Disk(0.3, -0.2, 0.05), Rect(0.0, 2.0, 0.0, 1.0),
           Rect(1.0, 2.0, 1.0, 3.0)]


class TestRegionsAgainstScalar:
    @staticmethod
    def _segments():
        """Random and grid segments, with hand cases: along a rectangle side
        (ends outside), collinear with a side but apart, tangent to a disk,
        and one whose squared length underflows to zero."""
        rng = np.random.default_rng(40)
        coords = np.vstack([rng.uniform(-1.0, 3.0, (400, 4)),
                            rng.integers(-1, 4, (400, 4)).astype(float)]).tolist()
        coords += [(-1, 0, 3, 0), (1, -1, 1, 4), (-1, 1, 3, 1), (3, 0, 4, 0),
                   (0, 2, 2, 2), (0, 0, 1e-200, 0), (0.25, -0.2, 0.3, -0.1)]
        return [seg(*c) for c in coords if (c[0], c[1]) != (c[2], c[3])]

    @pytest.mark.parametrize("region", REGIONS, ids=repr)
    def test_edge_crosses_region(self, region):
        segs = self._segments()
        want = [scalar_edge_crosses_region(s, region) for s in segs]
        assert [crosses(s, region) for s in segs] == want
        P = np.array([s.a for s in segs], dtype=float)
        Q = np.array([s.b for s in segs], dtype=float)
        assert _crosses_region(P, Q, region).tolist() == want
        assert 0 < sum(want) < len(segs)

    def test_hand_cases(self):
        square = Rect(0, 2, 0, 1)
        assert crosses(seg(-1, 0, 3, 0), square)  # along the bottom
        assert crosses(seg(2, -1, 2, 4), square)  # along the right side
        assert not crosses(seg(3, 0, 4, 0), square)  # collinear, apart
        assert crosses(seg(0, 2, 2, 2), Disk(1, 1, 1))  # tangent


@pytest.mark.parametrize("cx,cy,r", [(math.nan, 1, 1), (1, math.nan, 1), (1, 1, math.nan),
                                     (math.inf, 1, 1), (1, 1, math.inf), (1, 1, 0), (1, 1, -1)])
def test_disk_rejects_values_not_finite_or_radius_not_positive(cx, cy, r):
    with pytest.raises(ValueError):
        Disk(cx, cy, r)


# a constructor or method call on values it rejects, and a part of its message
SHAPE_ERRORS = {
    "degenerate_segment": (lambda: _pairwise_hits(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])),
                           "zero-length segment"),
    "empty_rect_in_x": (lambda: Rect(1, 1, 0, 1), "empty rectangle"),
    "empty_rect_in_y": (lambda: Rect(0, 1, 2, 1), "empty rectangle"),
    "unknown_domain_kind": (lambda: Domain("disk", 0, 1), "unknown domain kind 'disk'"),
    "window_rect_of_a_line": (lambda: Domain.line(0, 5).window_rect(), "no planar window"),
}


@pytest.mark.parametrize("name", sorted(SHAPE_ERRORS))
def test_empty_or_unknown_shapes_rejected(name):
    make, message = SHAPE_ERRORS[name]
    with pytest.raises(ValueError, match=message):
        make()


# the immutable value classes: two builds of one value, a field name, and
# another value of the class
FROZEN = {
    "Rect": (lambda: Rect(0, 1, 0, 1), "x0", Rect(0, 1, 0, 2)),
    "Disk": (lambda: Disk(0, 0, 1), "radius", Disk(0, 0, 2)),
    "Domain": (lambda: Domain.strip(0, 1), "kind", Domain.line(0, 1)),
    "SampleConfig": (lambda: SampleConfig(1.0, 1.0, Domain.strip(0, 1), 7), "seed",
                     SampleConfig(1.0, 1.0, Domain.strip(0, 1), 8)),
    "ChernoffParams": (lambda: ChernoffParams(2.0, 1.0), "mu", ChernoffParams(2.0, 0.5)),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
class TestFrozenValues:
    def test_fields_cannot_change(self, name):
        make, field, _ = FROZEN[name]
        value = make()
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == before

    def test_equal_values_are_equal_and_hash_alike(self, name):
        make, _, other = FROZEN[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other and not a == other
        assert a != (a,) and len({a, b, other}) == 2


# the row types the benchmark reads, ArcSpec's list field leaving it
# unhashable: a row, a field name, another row of the type, and the row's
# repr, fields in order
VERTICES = [(0.0, 1.0), (0.0, 0.25), (1.0, 0.25), (1.0, 0.5)]
ROWS = {
    "ArcSpec": (lambda: ArcSpec(edge=(0, 1), height=0.25, lowest=0.5, depth=2, vertices=VERTICES),
                "vertices",
                ArcSpec(edge=(0, 1), height=0.25, lowest=0.5, depth=1, vertices=VERTICES),
                f"ArcSpec(edge=(0, 1), height=0.25, lowest=0.5, depth=2, vertices={VERTICES!r})"),
    "BlockRecord": (lambda: BlockRecord(key=(2, 0, 1), n_red=3, n_blue=2, unmatched=1, bad=False,
                                        dodgy=True),
                    "bad",
                    BlockRecord(key=(2, 0, 1), n_red=3, n_blue=2, unmatched=1, bad=True,
                                dodgy=True),
                    "BlockRecord(key=(2, 0, 1), n_red=3, n_blue=2, unmatched=1, bad=False, "
                    "dodgy=True)"),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_rows_are_frozen_values(name):
    make, field, other, text = ROWS[name]
    row = make()
    with pytest.raises(AttributeError):
        setattr(row, field, getattr(row, field))
    with pytest.raises(AttributeError):
        row.extra = 1
    assert row == make() and row != other and row != (row,)
    assert type(row)(**vars(row)) == row  # built by keyword from its fields
    assert repr(row) == text


def test_frozen_values_read_as_their_constructor_calls():
    # Rect reprs appear in error messages
    assert repr(Rect(0, 1, 0, 1)) == "Rect(x0=0, x1=1, y0=0, y1=1)"
    assert repr(Domain.strip(0, 1)) == "Domain(kind='strip', x0=0, x1=1, y0=0.0, y1=1.0)"
    assert repr(Disk(0.5, 0, 1)) == "Disk(cx=0.5, cy=0, radius=1)"
    assert repr(ChernoffParams(2.0, 1)) == "ChernoffParams(lam=2.0, mu=1)"
    assert repr(SampleConfig(1.0, 2, Domain.line(0, 3), 7)) == (
        "SampleConfig(lambda_red=1.0, lambda_blue=2, "
        "domain=Domain(kind='line', x0=0, x1=3, y0=0.0, y1=0.0), seed=7)")
    with pytest.raises(ValueError, match=re.escape("empty rectangle Rect(x0=1, x1=1, y0=0, y1=1)")):
        Rect(1, 1, 0, 1)


class TestRectContains:
    def test_columns_equal_the_point_form(self):
        # every edge and corner of [1, 3) x [-2, 0.5), and points either side
        r = Rect(1.0, 3.0, -2.0, 0.5)
        pts = [[x, y] for x in (0.5, 1.0, 2.0, 3.0, 3.5) for y in (-2.5, -2.0, 0.0, 0.5, 1.0)]
        inside = [bool(r.contains(p)) for p in pts]
        assert [p for p, hit in zip(pts, inside) if hit] == [
            [1.0, -2.0], [1.0, 0.0], [2.0, -2.0], [2.0, 0.0]]
        mask = r.contains(np.array(pts).T)
        assert mask.dtype == bool and mask.tolist() == inside


class TestEdgeCrossesRegion:
    def test_segment_through_disk(self):
        assert crosses(seg(0, 0, 2, 0), Disk(1, 0, 0.5))

    def test_far_segment_misses_disk(self):
        assert not crosses(seg(0, 5, 2, 5), Disk(1, 0, 0.5))

    def test_endpoint_inside_rect(self):
        assert crosses(seg(0.5, 0.5, 5, 5), Rect(0, 1, 0, 1))

    def test_segment_spanning_rect(self):
        assert crosses(seg(-1, 0.5, 2, 0.5), Rect(0, 1, 0, 1))

    def test_sampled_oracle_agreement(self):
        # oracle: dense sampling of points along each segment
        rng = np.random.default_rng(3)
        square = Rect(0, 1, 0, 1)
        for _ in range(100):
            a = rng.uniform(-2, 3, 2)
            b = rng.uniform(-2, 3, 2)
            if np.allclose(a, b):
                continue
            s = Segment(Point(*a), Point(*b))
            ts = np.linspace(0, 1, 10_000)
            pts = a[None, :] + ts[:, None] * (b - a)[None, :]
            dense = bool(np.any((pts[:, 0] >= 0) & (pts[:, 0] <= 1)
                                & (pts[:, 1] >= 0) & (pts[:, 1] <= 1)))
            got = crosses(s, square)
            # dense sampling can miss grazing touches but never invent a hit
            if dense:
                assert got

    @given(st.lists(st.floats(-3, 3), min_size=4, max_size=4),
           st.floats(0.1, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_region(self, cs, r, grow):
        if (cs[0], cs[1]) == (cs[2], cs[3]):
            return
        s = seg(*cs)
        small = Disk(0, 0, r)
        big = Disk(0, 0, r + grow)
        if crosses(s, small):
            assert crosses(s, big)


class TestDomain:
    def test_line_measure(self):
        assert Domain.line(0, 10).measure == 10

    def test_strip_measure(self):
        assert Domain.strip(-5, 5).measure == 10

    def test_plane_measure(self):
        assert Domain.plane(0, 4, 0, 3).measure == 12

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Domain.line(1, 1)

    def test_json_round_trip(self):
        d = Domain.plane(0, 24, 0, 6)
        assert Domain.from_json(d.to_json()) == d

    @pytest.mark.parametrize("bounds", [(0, math.inf), (-math.inf, 0)])
    def test_unbounded_window_rejected(self, bounds):
        with pytest.raises(ValueError, match="must be finite"):
            Domain.line(*bounds)

    def test_huge_int_bound_is_finite(self):
        # compared with inf, not converted to a float, so no OverflowError
        assert Domain.line(0, 10**400).x1 == 10**400

    @pytest.mark.parametrize("kind,y0,y1", [("strip", 0.0, 7.0), ("strip", 1.0, 2.0),
                                            ("strip", 0.0, float("nan")),
                                            ("line", 0.0, 1.0), ("line", -1.0, 0.0)])
    def test_fixed_y_range_required(self, kind, y0, y1):
        # a strip's area is its length and a line's y is 0: a file with
        # another y-range would scale the eta estimate or move the points
        d = (Domain.strip if kind == "strip" else Domain.line)(0, 5).to_json()
        assert Domain.from_json(d).kind == kind
        with pytest.raises(ValueError, match=f"a {kind} domain has y0, y1"):
            Domain.from_json({**d, "y0": y0, "y1": y1})
