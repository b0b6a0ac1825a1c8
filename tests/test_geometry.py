import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_matching.geometry import (DegenerateGeometryError, Disk, Domain,
                                       Point, Rect, Segment,
                                       edge_crosses_region, is_parallel_free,
                                       segments_intersect)


def seg(ax, ay, bx, by):
    return Segment(Point(ax, ay), Point(bx, by))


class TestSegmentsIntersect:
    def test_square_diagonals_meet(self):
        assert segments_intersect(seg(0, 0, 1, 1), seg(0, 1, 1, 0))

    def test_parallel_horizontals_disjoint(self):
        assert not segments_intersect(seg(0, 0, 1, 0), seg(0, 1, 1, 1))

    def test_shared_endpoint_counts(self):
        # closed-segment semantics
        assert segments_intersect(seg(0, 0, 1, 1), seg(1, 1, 2, 0))

    def test_t_junction(self):
        assert segments_intersect(seg(0, 0, 2, 0), seg(1, 0, 1, 1))

    def test_collinear_overlap_flagged(self):
        with pytest.raises(DegenerateGeometryError):
            segments_intersect(seg(0, 0, 2, 0), seg(1, 0, 3, 0))

    def test_collinear_endpoint_touch(self):
        assert segments_intersect(seg(0, 0, 1, 0), seg(1, 0, 2, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect(seg(0, 0, 1, 0), seg(2, 0, 3, 0))

    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, cs):
        a, b = Point(cs[0], cs[1]), Point(cs[2], cs[3])
        c, d = Point(cs[4], cs[5]), Point(cs[6], cs[7])
        if a == b or c == d:
            return
        s1, s2 = Segment(a, b), Segment(c, d)
        try:
            assert segments_intersect(s1, s2) == segments_intersect(s2, s1)
        except DegenerateGeometryError:
            pass


class TestParallelFree:
    def test_unit_square_corners_not(self):
        assert not is_parallel_free([(0, 0), (1, 0), (0, 1), (1, 1)])

    def test_three_points(self):
        assert is_parallel_free([(0, 0), (1, 0), (0, 1)])

    def test_random_points_almost_surely(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 1, size=(20, 2))
        assert is_parallel_free(pts)

    def test_never_degenerate_for_parallel_free(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(12, 2))
        assert is_parallel_free(pts)
        segs = [Segment(Point(*pts[2 * i]), Point(*pts[2 * i + 1])) for i in range(6)]
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                segments_intersect(segs[i], segs[j])  # must not raise


@pytest.mark.parametrize("cx,cy,r", [(math.nan, 1, 1), (1, math.nan, 1), (1, 1, math.nan),
                                     (math.inf, 1, 1), (1, 1, math.inf), (1, 1, 0), (1, 1, -1)])
def test_disk_rejects_values_not_finite_or_radius_not_positive(cx, cy, r):
    with pytest.raises(ValueError):
        Disk(cx, cy, r)


class TestEdgeCrossesRegion:
    def test_segment_through_disk(self):
        assert edge_crosses_region(seg(0, 0, 2, 0), Disk(1, 0, 0.5))

    def test_far_segment_misses_disk(self):
        assert not edge_crosses_region(seg(0, 5, 2, 5), Disk(1, 0, 0.5))

    def test_endpoint_inside_rect(self):
        assert edge_crosses_region(seg(0.5, 0.5, 5, 5), Rect(0, 1, 0, 1))

    def test_segment_spanning_rect(self):
        assert edge_crosses_region(seg(-1, 0.5, 2, 0.5), Rect(0, 1, 0, 1))

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
            got = edge_crosses_region(s, square)
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
        if edge_crosses_region(s, small):
            assert edge_crosses_region(s, big)


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
