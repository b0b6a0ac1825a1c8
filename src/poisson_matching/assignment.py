"""Exact min-cost bipartite matchings on finite point sets.

Every solve in the package goes through this module, and within it through
one door, ``assign_in_groups``: it alone scores an assignment problem or
calls a scipy kernel. It takes many independent problems at once, as
points laid end to end with offsets. A problem's mandatory points must all
be matched, and the rest, its reserve, pair only with mandatory points; by
default its smaller side is mandatory. Mandatory points of one color make
an injection into the other color, as their color's reserve can pair only
with reserve, so its matrix needs no padding. The cost matrices are written
by the ``cdist`` kernel into one reused buffer, and the assignment routine
is called once per problem, so the Python around each problem is a few
slices and two kernel calls; the partners come back as one array.
``min_cost_perfect`` and ``max_cardinality_min_cost`` are one-problem calls
of it. The hierarchy's blocks, the box-rematch cells and the walks' zero
and cut-time blocks each go to it in one call per step.

A problem with at most SMALL_MAX = 3 mandatory points, all of one color,
has few enough injections to score outright. ``assign_in_groups``' first
step, its small-problem pass (``_settle_small``), settles every problem of
that size at its least total, in one numpy pass per size, with the cost
matrix's floats; the larger problems reach the kernel.

``verify.minimality_certificate`` solves nothing: its distances are
``_pair_distances``', in numpy, the kernel's bit for bit, so it is
independent of the kernel loader and loads no scipy.

Of scipy, only two compiled functions are used, and ``_kernel`` loads
them at the first solve, not when this module is imported:
``linear_sum_assignment`` from the extension module ``scipy.optimize._lsap``
and ``cdist_euclidean`` from ``scipy.spatial._distance_pybind``, the
function ``cdist`` itself calls for the Euclidean metric. ``_extension``
finds each module in its subpackage's directory below the top-level
package's and runs it alone, so no scipy init runs, not even the top
level's. The load imports the two modules and nothing else, in about 1 ms
and 0.5 MB of peak RSS (median of 15 fresh processes after importing the
CLI); running the top-level init as well made it 23 modules, about 9 ms and
1.7 MB, and the public imports load 571 modules in about 0.6 s and 48 MB
(2-CPU Xeon, scipy 1.17.1).
The functions are the ones the public imports reach, so costs, partners and
output bytes are the same. Where a scipy lays its modules out otherwise (a
module missing, not compiled, without the function, or failing to load
without the top-level init, as where that init adds a DLL directory),
``_kernel`` falls back to ``scipy.optimize.linear_sum_assignment`` and
``scipy.spatial.distance.cdist``. Sampling, the walk constructions, the
verifiers and rendering never load scipy at all.

Poisson points tie in length with probability 0, and the constructions
need a minimum, not a canonical one. So every solve returns a least
matching, the same on every run: on tied inputs the small-problem pass and
the kernel may each return another one of equal length.

The assignment routine dominates the time of a dense solve. It takes its
rows in golden-ratio order (see ``_assign``), and every dense solve builds
its cost matrix in that order to begin with, so none makes a reordered copy:
at n=1000 that is one 7.6 MiB matrix, where the copy made it 15.3 MiB. Row
k of every matrix, padded (``_pad``) or not, is point sc[k] of the rows'
side, sc = ``_scattered(n)``.

Every cost matrix of a call is a prefix view ``work[:n*m].reshape(n, m)``
of one float64 buffer, taken from the module's one-slot spare (``_spare``),
grown if too small and put back when the call is done, so two concurrent
calls never write one buffer. A buffer of at most SPARE_ENTRIES = 2**22
entries (32 MiB) is kept. A matrix freed after its solve raises glibc's
dynamic mmap threshold to its size, so the next goes on the heap, where the
freed pages stay resident beside it: with no buffer kept, the
``exact_assignment`` benchmark peaked at 60.0-60.4 MB, against 54.2-54.6 MB
with it (seeds 0 and 7). Above 32 MiB, glibc's largest threshold, malloc
maps each matrix anyway, and a kept one would only hold memory: the N=6
hierarchy's level-6 matrix is 116 MB.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from typing import Iterator, Tuple

import numpy as np

from .geometry import _two_columns
from .matching import Matching, partner_edges

EPS_TIE = 1e-9
BIG = 1e15  # forbidden-cell cost in padded assignment problems
ROW_BLOCK = 64  # rows per block of _pad and the cycle search; bounds their temporaries
SMALL_MAX = 3  # largest small side the small-problem pass settles
PAIR_BLOCK = 4096  # point pairs per batch of the small-problem pass
SPARE_ENTRIES = 1 << 22  # 32 MiB: largest kept solve buffer (module doc)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_spare: list = []  # at most one float64 buffer, free for the next solve


# the compiled module and function behind each kernel, and its public import
_KERNELS = {
    "assign": ("scipy.optimize._lsap", "linear_sum_assignment",
               "scipy.optimize", "linear_sum_assignment"),
    "cdist": ("scipy.spatial._distance_pybind", "cdist_euclidean",
              "scipy.spatial.distance", "cdist"),
}


def _extension(name: str):
    """The compiled module ``name`` (``top.sub.module``), run without any
    package's init, the top level's included; None if the subpackage's
    directory holds no compiled module of that name, or it fails to load
    alone. A module imported already is taken as it is."""
    if name in sys.modules:
        return sys.modules[name]
    top, _, rest = name.partition(".")
    package = importlib.util.find_spec(top)  # a top-level lookup runs no init
    if package is None or not package.submodule_search_locations:
        return None
    where = [os.path.join(root, *rest.split(".")[:-1])
             for root in package.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        return None
    try:  # a wheel whose top-level init adds the DLL directory cannot load it alone
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[name] = module  # as an import would; a later public import reuses it
    return module


@functools.lru_cache(maxsize=None)
def _kernel(key: str):
    """The compiled function ``_KERNELS[key]`` names, loaded at its first use
    with no scipy init (about 1 ms for both, see module doc), or its public
    import where this scipy has no such compiled function or it does not
    load alone."""
    module, name, public, public_name = _KERNELS[key]
    function = getattr(_extension(module), name, None)
    if function is None:
        function = getattr(importlib.import_module(public), public_name)
    return function


def _pair_distances(p: np.ndarray, q: np.ndarray, out=(None, None)) -> np.ndarray:
    """Distance from each point of ``p`` to the point of ``q`` it meets when
    the two (..., 2) arrays broadcast, so ``p[:, None]`` against ``q`` gives
    the whole cost matrix: the float ``cdist`` gives for the pair, bit for
    bit, as both sum the squared differences in coordinate order and take
    the root (``np.hypot`` rounds differently). ``out``, two arrays of the
    broadcast shape, takes the work in place of fresh ones, and its first
    is returned."""
    dx = np.subtract(q[..., 0], p[..., 0], out=out[0])  # no (..., 2) difference array
    dy = np.subtract(q[..., 1], p[..., 1], out=out[1])
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


@functools.lru_cache(maxsize=128)  # the hierarchy solves thousands of tiny problems
def _scattered(n: int) -> np.ndarray:
    """0..n-1 in golden-ratio order: consecutive entries lie far apart."""
    return np.argsort(np.arange(n) * GOLDEN % 1.0, kind="stable")


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column of each row of ``cost`` (no more rows than columns) in a
    min-cost assignment, from scipy's routine. Every solve builds ``cost``
    with its rows in golden-ratio order (``_scattered``); see
    ``assign_in_groups``.

    The routine adds rows to the matching one at a time, in index order. The
    package's point sets are sorted by x, so in that order each new row finds
    the columns near it taken by its left neighbours, and its augmenting path
    pushes a chain of reassignments through them: how long the chains get,
    and so the time, varies widely with the input. In golden-ratio order the
    chains stay short (30 windows of ~1000 points per color, 2-CPU Xeon:
    0.33 +/- 0.17 s per square solve in index order, 0.19 +/- 0.06 s in this
    order). On inputs with tied minima the order picks which minimum the
    routine returns.

    The routine is ``linear_sum_assignment`` of scipy's compiled module
    ``scipy.optimize._lsap``, loaded by ``_kernel`` at the first solve
    without any scipy init, ``scipy``'s and ``scipy.optimize``'s alike; where
    that module is missing, not compiled, lacks the function or does not
    load alone, it is the public ``scipy.optimize.linear_sum_assignment``,
    the same routine."""
    return _kernel("assign")(cost)[1]


def _pad(cost: np.ndarray, reds: np.ndarray, blues: np.ndarray,
         must_r: int, must_b: int, sc: np.ndarray) -> None:
    """Write a problem's padded square matrix into ``cost``, in the
    solver's row order ``sc = _scattered(len(cost))``: row k holds red
    sc[k], or a dummy row where sc[k] >= len(reds). The first ``must_r`` reds
    and ``must_b`` blues, both nonzero, are mandatory. The rows come a block
    at a time, so no temporary as large as the matrix is made; a dummy row
    takes the last red's distances (``mode="clip"``), which the masks on sc
    overwrite."""
    nr, nb = len(reds), len(blues)
    distances, row = _kernel("cdist"), sc[:, None]
    for r0 in range(0, len(sc), ROW_BLOCK):
        pts = reds.take(sc[r0:r0 + ROW_BLOCK], axis=0, mode="clip")
        cost[r0:r0 + ROW_BLOCK, :nb] = distances(pts, blues)
    cost[:, nb:] = np.where(row < must_r, BIG, 0.0)  # mandatory reds cannot go unmatched
    np.copyto(cost[:, must_b:nb], 0.0, where=row >= must_r)  # reserve or dummy row: unused
    np.copyto(cost[:, :must_b], BIG, where=row >= nr)  # mandatory blues cannot go unmatched


def assign_in_groups(reds, red_start, blues, blue_start, must=None) -> np.ndarray:
    """Exact solves of many independent problems in one call. Problem g has
    the reds ``reds[red_start[g]:red_start[g + 1]]`` and the blues
    ``blues[blue_start[g]:blue_start[g + 1]]``. Returns the partner of every
    red, as an index into ``blues``, or -1 where it is left unmatched.

    ``must = (red_must, blue_must)`` gives per problem the counts of its
    mandatory points: the first ``red_must[g]`` reds and ``blue_must[g]``
    blues of problem g, the rest being its reserve. Every mandatory point
    is matched, no pair joins two reserve points, and the total length is
    the least of all such matchings; a problem without mandatory points has
    no pairs. More mandatory points of a color than points of either is a
    ValueError. With ``must`` None, each problem's smaller side is
    mandatory, its reds where the sides are equal: the smaller side fully
    matched (``max_cardinality_min_cost``, and ``min_cost_perfect`` where
    the sides are equal), and a problem with an empty side has no pairs.

    A problem whose mandatory points are all of one color is an injection
    of them into the other color: a reserve point of their color can pair
    only with reserve, so it is never used. A problem with at most
    SMALL_MAX such points is settled by the small-problem pass
    (``_settle_small``) and reaches no kernel. Each other one's cost matrix
    is its mandatory points against every point of the other color, written
    by the compiled ``cdist`` kernel; a problem with mandatory points of
    both colors needs the padded square matrix of ``_pad``. Every matrix
    has its rows in golden-ratio order (``_scattered``), is a prefix view
    of one buffer, the module's spare (see module doc), and the assignment
    routine is called once per problem."""
    reds = _two_columns(reds, "reds")
    blues = _two_columns(blues, "blues")
    red_start = np.asarray(red_start, dtype=np.int64)
    blue_start = np.asarray(blue_start, dtype=np.int64)
    n_r, n_b = red_start[1:] - red_start[:-1], blue_start[1:] - blue_start[:-1]
    if len(n_r) != len(n_b):
        raise ValueError("need as many groups of blues as of reds")
    if must is None:
        fewer = n_r <= n_b
        must = np.where(fewer, n_r, 0), np.where(fewer, 0, n_b)
    must_r, must_b = (np.asarray(m, dtype=np.int64) for m in must)
    if ((must_r > n_r) | (must_b > n_b)).any():  # _pad's dummy rows need must_r <= n_r
        raise ValueError("more mandatory points than points in a problem")
    if ((must_r > n_b) | (must_b > n_r)).any():
        raise ValueError("reserve pools too small to saturate the mandatory points")
    solve = must_r + must_b > 0  # every pair needs a mandatory end
    partner = np.full(len(reds), -1, dtype=np.int64)
    solve[_settle_small(reds, red_start, blues, blue_start, solve, must_r, must_b, partner)] = False
    g = solve.nonzero()[0]
    if not len(g):
        return partner
    both = (must_r > 0) & (must_b > 0)
    n_rows = np.where(both, np.maximum(n_r, n_b), must_r + must_b)
    n_cols = np.where(both, np.maximum(n_r, n_b), np.where(must_r > 0, n_b, n_r))
    problems = zip(red_start[g].tolist(), n_r[g].tolist(), blue_start[g].tolist(),
                   n_b[g].tolist(), must_r[g].tolist(), must_b[g].tolist(),
                   n_rows[g].tolist(), n_cols[g].tolist())
    need = int((n_rows * n_cols)[g].max())
    try:  # list.pop is atomic: no other call gets this buffer
        work = _spare.pop()
    except IndexError:
        work = np.empty(0)
    if len(work) < need:
        try:
            work = np.empty(need)
        except MemoryError:  # a usage error (the CLI's exit 2), not a property violation
            k = g[np.argmax((n_rows * n_cols)[g])]
            raise ValueError(f"a {n_rows[k]} x {n_cols[k]} cost matrix needs "
                             f"{need * 8 / 2 ** 30:.1f} GiB, more than could be allocated") from None
    distances, assign = _kernel("cdist"), _assign  # looked up once, not per problem
    # problem by problem, in order, each row's red and blue within its problem
    red_ends, blue_ends = [], []
    try:
        for a, nr, b, nb, mr, mb, n, m in problems:
            cost = work[:n * m].reshape(n, m)
            sc = _scattered(n)
            if mr and mb:  # row k of the matrix is padded row sc[k]
                _pad(cost, reds[a:a + nr], blues[b:b + nb], mr, mb, sc)
                red_ends.append(sc)
                blue_ends.append(assign(cost))
            elif mr:  # the mandatory reds are the rows
                red_ends.append(sc)
                blue_ends.append(assign(distances(reds[a:a + mr][sc], blues[b:b + nb], out=cost)))
            else:
                blue_ends.append(sc)
                red_ends.append(assign(distances(blues[b:b + mb][sc], reds[a:a + nr], out=cost)))
    finally:
        if len(work) <= SPARE_ENTRIES:
            _spare[:] = [work]  # one assignment: the spare never holds two

    def each_row(x: np.ndarray) -> np.ndarray:
        return np.repeat(x[g], n_rows[g])

    # a padded matrix's dummy and reserve-reserve pairs go; every other pair is the problem's
    r, q = np.concatenate(red_ends), np.concatenate(blue_ends)
    keep = ((r < each_row(n_r)) & (q < each_row(n_b))
            & ((r < each_row(must_r)) | (q < each_row(must_b))))
    partner[r[keep] + each_row(red_start[:-1])[keep]] = q[keep] + each_row(blue_start[:-1])[keep]
    return partner


def _settle_small(reds, red_start, blues, blue_start, solve, must_r, must_b, partner
                  ) -> np.ndarray:
    """The small-problem pass: settle in numpy, without a kernel, the small
    problems among those to ``solve`` (see ``assign_in_groups``); write
    their partners and return their indices.

    A problem is small when its mandatory points (``must_r`` reds and
    ``must_b`` blues) are all of one color and at most SMALL_MAX: they go
    against every point of the other color. Both colors' problems go in one
    pass, and each is settled at the least total length of an injection of
    its small side into its other side.

    The distances are the cost matrix's floats (``_pair_distances``), and an
    injection's total is their sum in point order. A problem with s points
    on its small side scores only the injections that give each point one of
    its s nearest points, s**s of them, so all problems of one size go in
    one padded pass and the work is linear in the pairs of points, however
    many points the other side has. The least total is among them: the other
    s - 1 points take at most s - 1 of a point's s nearest, so one is free,
    and moving the point there gives an injection whose total is no larger
    (a float sum never grows when a term shrinks)."""
    n_r, n_b = np.diff(red_start), np.diff(blue_start)
    g = np.flatnonzero(solve & (np.minimum(must_r, must_b) == 0) & (must_r + must_b <= SMALL_MAX))
    if not len(g):
        return g
    # both colors' points in one array, the blues after the reds; red marks
    # the problems whose small side is red
    pts, first_b, red = np.concatenate([reds, blues]), blue_start[g] + len(reds), must_r[g] > 0
    small, small_start = _spans(np.where(red, red_start[g], first_b), (must_r + must_b)[g])
    large, large_start = _spans(np.where(red, first_b, red_start[g]),
                                np.where(red, n_b[g], n_r[g]))
    # batches of at most PAIR_BLOCK point pairs, or one larger problem,
    # bound the temporaries, which hold every pair of a batch
    for p0, p1 in _runs(np.diff(small_start) * np.diff(large_start), PAIR_BLOCK):
        _settle_batch(pts, small, small_start, large, large_start, np.arange(p0, p1),
                      len(reds), partner)
    return g


def min_cost_perfect(reds, blues) -> Matching:
    """Perfect matching of minimum total Euclidean length: the size check,
    then ``max_cardinality_min_cost``."""
    if len(reds) != len(blues):
        raise ValueError(f"size mismatch: {len(reds)} reds vs {len(blues)} blues")
    return max_cardinality_min_cost(reds, blues)


def _spans(first: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ranges ``first[k] .. first[k] + count[k] - 1`` laid end to end, and
    their offsets."""
    at = _offsets(count)
    return np.repeat(first - at[:-1], count) + np.arange(at[-1]), at


def _offsets(count: np.ndarray) -> np.ndarray:
    """The offsets of groups of sizes ``count`` laid end to end."""
    at = np.zeros(len(count) + 1, dtype=np.int64)
    np.cumsum(count, out=at[1:])
    return at


def _runs(sizes: np.ndarray, cap: int) -> Iterator[Tuple[int, int]]:
    """The runs [p0, p1) of consecutive items whose ``sizes`` total at most
    ``cap``, in order, each as long as it can be; an item over ``cap`` is a
    run alone."""
    ends, p1 = np.cumsum(sizes), 0
    while p1 < len(ends):
        p0, done = p1, (int(ends[p1 - 1]) if p1 else 0)
        p1 = max(p0 + 1, int(np.searchsorted(ends, done + cap, side="right")))
        yield p0, p1


def _inverse(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation ``order``: where each index went."""
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    return inv


def _stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for integer keys in [-bound, bound):
    as int16 where they fit, for which numpy's stable sort is a radix sort."""
    return np.argsort(key.astype(np.int16) if bound <= 2 ** 15 else key, kind="stable")


@functools.lru_cache(maxsize=None)
def _choices(s: int) -> np.ndarray:
    """Every way to give each of ``s`` points one of its s nearest
    candidates, one way per row."""
    return np.array(list(itertools.product(range(s), repeat=s)), dtype=np.intp)


def _settle_batch(pts, small, small_start, large, large_start, groups, n_reds, partner):
    """``_settle_small`` for the problems ``groups``: problem g matches its
    points ``small[small_start[g]:small_start[g + 1]]`` of ``pts`` (the
    reds, then the blues; ``n_reds`` of them reds) to distinct ones of
    ``large[large_start[g]:large_start[g + 1]]``. Writes their partners."""
    n, n_large = np.diff(small_start)[groups], np.diff(large_start)[groups]
    # each small point of those problems against every point of its other side
    point, at = _spans(small_start[groups], n)
    size, count = np.repeat(n, n), np.repeat(n_large, n)
    cand, cat = _spans(np.repeat(large_start[groups], n), count)
    point, cand = small[point], large[cand]  # indices into pts
    dist = _pair_distances(np.repeat(pts[point], count, axis=0), pts[cand])
    # each point's SMALL_MAX nearest candidates, its last repeated where it
    # has fewer; a point of an s-point problem has at least s, and only its
    # first s are read, so only a point with more needs them sorted
    order = np.arange(len(dist))
    sort = np.flatnonzero(np.repeat(count > size, count))
    order[sort] = sort[np.lexsort((dist[sort], np.repeat(np.arange(len(point)), count)[sort]))]
    near = order[cat[:-1, None] + np.minimum(np.arange(SMALL_MAX), count[:, None] - 1)]
    near_d, near_c = dist[near], cand[near]

    for s in range(1, SMALL_MAX + 1):
        g = np.flatnonzero(n == s)
        if not len(g):
            continue
        rows = at[g, None] + np.arange(s)                   # (groups, s)
        choice = _choices(s)                                # (ways, s)
        total = near_d[rows[:, 0, None], choice[:, 0]]      # (groups, ways)
        picked = [near_c[rows[:, 0, None], choice[:, 0]]]
        for k in range(1, s):
            total = total + near_d[rows[:, k, None], choice[:, k]]
            picked.append(near_c[rows[:, k, None], choice[:, k]])
        for k in range(1, s):  # a point taken twice is no injection
            for j in range(k):
                total[picked[j] == picked[k]] = np.inf
        best = np.argmin(total, axis=1)
        mine, theirs = point[rows], np.stack([p[np.arange(len(g)), best] for p in picked], axis=1)
        red = mine < n_reds  # the small side is red; a red's partner indexes the blues
        partner[np.where(red, mine, theirs)] = np.where(red, theirs, mine) - n_reds


def max_cardinality_min_cost(reds, blues) -> Matching:
    """Min-length matching of maximum cardinality; the smaller color class is
    fully matched and the excess of the other is left unmatched."""
    reds = _two_columns(reds, "reds")
    blues = _two_columns(blues, "blues")
    partner = assign_in_groups(reds, [0, len(reds)], blues, [0, len(blues)])
    return Matching(reds, blues, partner_edges(partner))

