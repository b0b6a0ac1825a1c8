"""The tests' independent oracles, each written once.

They are built from numpy, scipy's public ``cdist`` and
``linear_sum_assignment`` and the standard library, and import nothing from
``poisson_matching``, so a fault in the package cannot reach them
(``test_structure`` checks this). The shared inputs and checkers that do
call the package are in ``cases.py``.

An exact solve returns a least matching, and on tied inputs any of them, so
no oracle copies the solver's row order: a test compares partners with
``min_cost_pairs`` where the input is not ``tied``, and checks for a least
matching where it is.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

# the package's tolerances, restated (``test_structure`` checks they agree)
EPS_TIE = 1e-9
EPS_GEOM = 1e-12


def points(pts) -> np.ndarray:
    return np.asarray(pts, dtype=float).reshape(-1, 2)


def added(values) -> float:
    """``values`` added one by one from 0.0, in order."""
    total = 0.0
    for x in values:
        total += x
    return total


# --- Exact solves -----------------------------------------------------------

def cost_matrix(reds, blues, must=None) -> np.ndarray:
    """A problem's cost matrix in index order, from the public ``cdist``.

    A RECTANGULAR problem (``must`` None) is the reds against the blues. A
    SATURATING one, ``must = (mr, mb)`` naming its first mr reds and mb
    blues mandatory and the rest reserve, is padded in the textbook way to a
    square of side max(reds, blues): a point paired with a dummy row or
    column stays unmatched, which is forbidden (inf) for a mandatory point
    and free for a reserve one, and two reserve points pair at no cost."""
    cost = cdist(points(reds), points(blues))
    if must is None:
        return cost
    (nr, nb), (mr, mb) = cost.shape, must
    padded = np.zeros((max(nr, nb),) * 2)
    padded[:nr, :nb] = cost
    padded[mr:nr, mb:nb] = 0.0
    padded[:mr, nb:] = math.inf
    padded[nr:, :mb] = math.inf
    return padded


def min_cost_pairs(reds, blues, must=None) -> list:
    """The (red, blue) pairs, by red, of a least matching of the problem
    (``cost_matrix``): RECTANGULAR, the smaller side matched in full;
    SATURATING, every mandatory point matched and no two reserve points
    paired. One public ``linear_sum_assignment`` call on the matrix."""
    cost = cost_matrix(reds, blues, must)
    nr, nb = len(points(reds)), len(points(blues))
    mr, mb = must or (nr, nb)  # RECTANGULAR: every pair is kept
    if 0 in cost.shape or mr + mb == 0:
        return []
    rows, cols = linear_sum_assignment(cost)
    return [(i, j) for i, j in zip(rows.tolist(), cols.tolist())
            if i < nr and j < nb and (i < mr or j < mb)]


def tied(reds, blues, must=None) -> bool:
    """Whether the problem has another least matching, within EPS_TIE of
    the least total, than ``min_cost_pairs``'. Any other matching of the
    problem lacks one of that matching's pairs: a pair it added would share
    an end with one of them, as they cover the small side (RECTANGULAR) or
    every mandatory point (SATURATING). So the problem is tied exactly when,
    for one of those pairs, the least matching without it is within
    EPS_TIE."""
    pairs = min_cost_pairs(reds, blues, must)
    cost = cost_matrix(reds, blues, must)
    least = added(cost[i, j] for i, j in pairs)
    for i, j in pairs:
        without = cost.copy()
        without[i, j] = math.inf
        try:
            rows, cols = linear_sum_assignment(without)
        except ValueError:  # every matching takes this pair
            continue
        if added(without[rows, cols]) <= least + EPS_TIE:
            return True
    return False


BRUTE_FORCE_MAX = 9


def brute_force_min(reds, blues):
    """Exhaustive minimum over all permutations: (edges, total).

    The distances are its own numpy expression: per pair, the squared
    differences summed in column order, then the root, as ``cdist`` rounds
    them. The permutations, in lexicographic order, are scored at once, each
    total added column by column from 0.0, and the first of least total is
    returned, with that total."""
    reds, blues = points(reds), points(blues)
    dx, dy = (reds[:, None, k] - blues[None, :, k] for k in (0, 1))
    cost = np.sqrt(dx * dx + dy * dy)
    n = len(cost)
    if cost.shape != (n, n):
        raise ValueError("size mismatch")
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX}")
    # in lexicographic order, those of range(k) are each first f followed by
    # those of range(k - 1), their values from f up raised by one
    perms = np.zeros((1, 0), np.int8)
    for k in range(1, n + 1):
        perms = np.concatenate([np.insert(perms + (perms >= f), 0, f, axis=1) for f in range(k)])
    total = np.zeros(len(perms))
    for i in range(n):
        total += cost[i].take(perms[:, i])
    best = int(np.argmin(total))
    return list(enumerate(perms[best].tolist())), float(total[best])


def injection_totals(small, large) -> list:
    """Every injection of ``small`` into ``large`` with its total length,
    the sum in point order of ``cdist``'s entries; ascending."""
    cost = cdist(points(small), points(large))
    return sorted((added(cost[i, j] for i, j in enumerate(perm)), perm)
                  for perm in itertools.permutations(range(len(cost.T)), len(cost)))


def saturating_least(reds, blues, reserve_reds, reserve_blues) -> float:
    """Least length over every set of disjoint pairs that covers all
    mandatory points and pairs no two reserve points, by enumeration."""
    all_r = np.concatenate([points(reds), points(reserve_reds)])
    all_b = np.concatenate([points(blues), points(reserve_blues)])
    nr1, nb1 = len(points(reds)), len(points(blues))
    best = math.inf
    for k in range(min(len(all_r), len(all_b)) + 1):
        for rs in itertools.combinations(range(len(all_r)), k):
            for bs in itertools.permutations(range(len(all_b)), k):
                pairs = list(zip(rs, bs))
                if any(i >= nr1 and j >= nb1 for i, j in pairs):
                    continue
                if not (set(range(nr1)) <= set(rs) and set(range(nb1)) <= set(bs)):
                    continue
                best = min(best, sum(math.hypot(*(all_r[i] - all_b[j])) for i, j in pairs))
    return best


def least_line_cost(p, q) -> float:
    """The integral of |S| over the line, S being the first ends ``p`` minus
    the second ends ``q`` to the left: the least cost of matching them."""
    xs = np.concatenate([p[:, 0], q[:, 0]])
    order = np.argsort(xs, kind="stable")
    s = np.cumsum(np.repeat([1, -1], len(p))[order])
    return float(np.sum(np.abs(s[:-1]) * np.diff(xs[order])))


# --- Scalar geometry ----------------------------------------------------------
#
# The one-pair predicates the package's array forms (``orientation`` on
# arrays, ``_intersections``, ``_crosses_region``) must agree with row by
# row, on their own point and segment.

class Point(NamedTuple):
    x: float
    y: float


class Segment(NamedTuple):
    """A segment as the scalar oracles take it. A plain pair of vertex
    tuples compares equal to it, and it reads as the package's overlap
    message names a segment."""

    a: Point
    b: Point

    def __str__(self):
        return f"{tuple(self.a)}-{tuple(self.b)}"


class Overlap(ValueError):
    """Collinear segments with overlapping interiors."""


def scalar_orientation(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a); 0 within EPS_GEOM."""
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if det > EPS_GEOM:
        return 1
    if det < -EPS_GEOM:
        return -1
    return 0


def scalar_on_segment(a, b, p) -> bool:
    """Whether collinear point p lies on the closed segment ab."""
    return (
        min(a[0], b[0]) - EPS_GEOM <= p[0] <= max(a[0], b[0]) + EPS_GEOM
        and min(a[1], b[1]) - EPS_GEOM <= p[1] <= max(a[1], b[1]) + EPS_GEOM
    )


def scalar_segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Closed-segment intersection test via orientation signs.

    Raises ``Overlap``, with the package's message, for collinear segments
    with overlapping interiors (impossible for parallel-free input).
    """
    a, b = s1.a, s1.b
    c, d = s2.a, s2.b
    o1 = scalar_orientation(a, b, c)
    o2 = scalar_orientation(a, b, d)
    o3 = scalar_orientation(c, d, a)
    o4 = scalar_orientation(c, d, b)

    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True

    if o1 == o2 == 0 and o3 == o4 == 0:
        # Collinear: the overlap runs from the larger low end to the smaller
        # high end, the ends compared as tuples.
        late = max(min(a, b), min(c, d))
        high = min(max(a, b), max(c, d))
        if late > high:
            return False
        if abs(late[0] - high[0]) <= EPS_GEOM and abs(late[1] - high[1]) <= EPS_GEOM:
            return True  # touch at a single shared endpoint
        raise Overlap(f"collinear segments with overlapping interiors: {s1} / {s2}")

    # Mixed cases: one endpoint lies on the other (closed) segment.
    if o1 == 0 and scalar_on_segment(a, b, c):
        return True
    if o2 == 0 and scalar_on_segment(a, b, d):
        return True
    if o3 == 0 and scalar_on_segment(c, d, a):
        return True
    if o4 == 0 and scalar_on_segment(c, d, b):
        return True
    return False


def scalar_is_parallel_free(pts) -> bool:
    """Whether no two distinct unordered point pairs span parallel vectors.

    Quartic scan over pairs of pairs; intended for desk-scale inputs.
    """
    pts = [(float(p[0]), float(p[1])) for p in pts]
    n = len(pts)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k, (i, j) in enumerate(pairs):
        vx = pts[j][0] - pts[i][0]
        vy = pts[j][1] - pts[i][1]
        for (u, v) in pairs[k + 1:]:
            wx = pts[v][0] - pts[u][0]
            wy = pts[v][1] - pts[u][1]
            if abs(vx * wy - vy * wx) <= EPS_GEOM:
                return False
    return True


def scalar_segment_point_distance(a, b, p) -> float:
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    px, py = p[0], p[1]
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    t = 0.0 if denom == 0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    return math.hypot(ax + t * dx - px, ay + t * dy - py)


def scalar_edge_crosses_region(s: Segment, region) -> bool:
    """Whether the closed segment intersects the closed region, a disk
    (``cx``, ``cy``, ``radius``) or a rectangle (``x0``, ``x1``, ``y0``,
    ``y1``)."""
    if hasattr(region, "radius"):
        return scalar_segment_point_distance(s.a, s.b, (region.cx, region.cy)) <= region.radius
    r = region
    if (r.x0 <= s.a.x <= r.x1 and r.y0 <= s.a.y <= r.y1) or (
        r.x0 <= s.b.x <= r.x1 and r.y0 <= s.b.y <= r.y1
    ):
        return True
    corners = [
        Point(r.x0, r.y0),
        Point(r.x1, r.y0),
        Point(r.x1, r.y1),
        Point(r.x0, r.y1),
    ]
    for i in range(4):
        edge = Segment(corners[i], corners[(i + 1) % 4])
        try:
            if scalar_segments_intersect(s, edge):
                return True
        except Overlap:
            return True  # segment runs along a rectangle side: still touches
    return False


def dense_hits(segs, skip_same_group=None) -> list:
    """The all-pairs scan the package's sweep replaced: n x n orientation
    arrays, then confirmation in (i, j) order by ``scalar_segments_intersect``,
    which raises ``Overlap`` at the first overlapping pair."""
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
