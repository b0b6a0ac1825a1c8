"""Exact min-cost bipartite matchings on finite point sets.

Every solve in the package goes through this module: the Euclidean cost
matrix, scipy's shortest-augmenting-path assignment routine, and the padding
for reserve pools. The factorial brute-force enumerator is kept fully
independent as the oracle. Cost ties (within EPS_TIE) are broken toward the
edge list that is lexicographically earliest in point coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

FORMAT_VERSION = 1
EPS_TIE = 1e-9
BRUTE_FORCE_MAX = 9
BIG = 1e15  # forbidden-cell cost in padded assignment problems

TWO_COLOR = "two_color"
ONE_COLOR = "one_color"


@dataclass
class Matching:
    """Edges between a red and a blue point list (or red-red pairs when
    color_mode is ONE_COLOR). Partial matchings may leave points unmatched."""

    reds: np.ndarray
    blues: np.ndarray
    edges: List[Tuple[int, int]]
    kind: str = "perfect"  # "perfect" | "partial"
    color_mode: str = TWO_COLOR
    unmatched_reds: List[int] = field(default_factory=list)
    unmatched_blues: List[int] = field(default_factory=list)

    def __post_init__(self):
        self.reds = np.asarray(self.reds, dtype=float).reshape(-1, 2)
        self.blues = np.asarray(self.blues, dtype=float).reshape(-1, 2)
        seen_r, seen_b = set(), set()
        rs = self.reds
        bs = self.blues if self.color_mode == TWO_COLOR else self.reds
        for i, j in self.edges:
            if not (0 <= i < len(rs) and 0 <= j < len(bs)):
                raise ValueError(f"edge ({i},{j}) out of range")
            if i in seen_r or j in seen_b:
                raise ValueError("a point appears in two edges")
            seen_r.add(i)
            seen_b.add(j)
        if self.kind == "perfect" and self.color_mode == TWO_COLOR:
            if len(self.edges) != len(self.reds) or len(self.edges) != len(self.blues):
                raise ValueError("perfect matching must cover all points")

    def endpoint_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        bs = self.blues if self.color_mode == TWO_COLOR else self.reds
        if not self.edges:
            return np.empty((0, 2)), np.empty((0, 2))
        e = np.asarray(self.edges, dtype=int)
        return self.reds[e[:, 0]], bs[e[:, 1]]

    @property
    def total_length(self) -> float:
        p, q = self.endpoint_arrays()
        if not len(p):
            return 0.0
        return float(np.hypot(*(p - q).T).sum())

    def edge_length(self, k: int) -> float:
        bs = self.blues if self.color_mode == TWO_COLOR else self.reds
        i, j = self.edges[k]
        return float(math.hypot(*(self.reds[i] - bs[j])))

    def to_json(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "kind": self.kind,
            "color_mode": self.color_mode,
            "edges": [[int(i), int(j)] for i, j in self.edges],
            "total_length": self.total_length,
            "unmatched_reds": [int(i) for i in self.unmatched_reds],
            "unmatched_blues": [int(i) for i in self.unmatched_blues],
        }

    @staticmethod
    def from_edges(reds, blues, edges) -> "Matching":
        """Two-color matching with the given edges, sorted; every other point
        is unmatched, and the matching is perfect iff none is."""
        m = Matching(reds, blues, sorted((int(i), int(j)) for i, j in edges),
                     kind="partial")
        e = np.asarray(m.edges, dtype=int).reshape(-1, 2)
        used_r = np.zeros(len(m.reds), dtype=bool)
        used_b = np.zeros(len(m.blues), dtype=bool)
        used_r[e[:, 0]] = True
        used_b[e[:, 1]] = True
        m.unmatched_reds = np.flatnonzero(~used_r).tolist()
        m.unmatched_blues = np.flatnonzero(~used_b).tolist()
        if not (m.unmatched_reds or m.unmatched_blues):
            m.kind = "perfect"
        return m

    @staticmethod
    def from_json(d: dict, reds, blues) -> "Matching":
        return Matching(
            reds=reds,
            blues=blues,
            edges=[tuple(e) for e in d["edges"]],
            kind=d["kind"],
            color_mode=d.get("color_mode", TWO_COLOR),
            unmatched_reds=list(d.get("unmatched_reds", [])),
            unmatched_blues=list(d.get("unmatched_blues", [])),
        )


def _points(pts) -> np.ndarray:
    return np.asarray(pts, dtype=float).reshape(-1, 2)


def _cost_matrix(reds: np.ndarray, blues: np.ndarray) -> np.ndarray:
    diff = reds[:, None, :] - blues[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def _edges_cost(cost: np.ndarray, assign: np.ndarray) -> float:
    return float(cost[np.arange(len(assign)), assign].sum())


def _lex_key(reds: np.ndarray, blues: np.ndarray, assign) -> tuple:
    """Edge list ordered by red coordinates; key is the partner sequence."""
    order = np.lexsort((reds[:, 1], reds[:, 0]))
    return tuple((blues[assign[i]][0], blues[assign[i]][1]) for i in order)


def _canonicalize_ties(reds, blues, cost, assign) -> np.ndarray:
    """Pairwise-swap pass: among cost-preserving 2-swaps prefer the
    lexicographically earlier partner sequence. Random-real inputs have no
    ties, so this only matters for handcrafted configurations."""
    assign = assign.copy()
    n = len(assign)
    order = np.lexsort((reds[:, 1], reds[:, 0]))
    changed = True
    while changed:
        changed = False
        for ai in range(n):
            for aj in range(ai + 1, n):
                i, j = order[ai], order[aj]
                cur = cost[i, assign[i]] + cost[j, assign[j]]
                alt = cost[i, assign[j]] + cost[j, assign[i]]
                if abs(alt - cur) <= EPS_TIE:
                    pi = tuple(blues[assign[i]])
                    pj = tuple(blues[assign[j]])
                    if pj < pi:
                        assign[i], assign[j] = assign[j], assign[i]
                        changed = True
    return assign


def min_cost_perfect(reds, blues) -> Matching:
    """Perfect matching of minimum total Euclidean length."""
    reds, blues = _points(reds), _points(blues)
    if len(reds) != len(blues):
        raise ValueError(f"size mismatch: {len(reds)} reds vs {len(blues)} blues")
    if len(reds) == 0:
        return Matching(reds, blues, [], kind="perfect")
    cost = _cost_matrix(reds, blues)
    rows, cols = linear_sum_assignment(cost)
    assign = np.empty(len(reds), dtype=int)
    assign[rows] = cols
    assign = _canonicalize_ties(reds, blues, cost, assign)
    return Matching(reds, blues, [(i, int(assign[i])) for i in range(len(reds))],
                    kind="perfect")


def brute_force_min(reds, blues) -> Matching:
    """Exhaustive minimum over all permutations; independent oracle."""
    reds, blues = _points(reds), _points(blues)
    n = len(reds)
    if n != len(blues):
        raise ValueError("size mismatch")
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX}")
    if n == 0:
        return Matching(reds, blues, [], kind="perfect")
    cost = _cost_matrix(reds, blues)
    rows = cost.tolist()  # plain-float rows keep the n! loop cheap
    best = None
    best_cost = math.inf
    best_key = None
    for perm in itertools.permutations(range(n)):
        c = 0.0
        for i, j in enumerate(perm):
            c += rows[i][j]
        if c < best_cost - EPS_TIE:
            best, best_cost = perm, c
            best_key = _lex_key(reds, blues, perm)
        elif c <= best_cost + EPS_TIE:
            best_cost = min(best_cost, c)
            key = _lex_key(reds, blues, perm)
            if best_key is None or key < best_key:
                best, best_key = perm, key
    return Matching(reds, blues, [(i, int(best[i])) for i in range(n)], kind="perfect")


def min_cost_pairs(reds, blues) -> List[Tuple[int, int]]:
    """Sorted index pairs of a min-length matching of maximum cardinality:
    the smaller color class is fully matched."""
    reds, blues = _points(reds), _points(blues)
    if len(reds) == 0 or len(blues) == 0:
        return []
    rows, cols = linear_sum_assignment(_cost_matrix(reds, blues))
    return list(zip(rows.tolist(), cols.tolist()))  # scipy returns rows sorted


def max_cardinality_min_cost(reds, blues) -> Matching:
    """Min-length matching of maximum cardinality; the smaller color class is
    fully matched and the excess of the other is left unmatched."""
    return Matching.from_edges(reds, blues, min_cost_pairs(reds, blues))


def min_cost_saturating(reds, blues, reserve_reds, reserve_blues
                        ) -> List[Tuple[int, int]]:
    """Sorted index pairs of a min-length matching that covers every point of
    (reds, blues), with partners drawn from them or from the reserve pools.
    Indices run over reds + reserve_reds and blues + reserve_blues; reserve
    points left over, or paired with each other, stay unused."""
    reds, blues = _points(reds), _points(blues)
    all_r = np.concatenate([reds, _points(reserve_reds)])
    all_b = np.concatenate([blues, _points(reserve_blues)])
    nr1, nb1, nr, nb = len(reds), len(blues), len(all_r), len(all_b)
    if nr1 > nb or nb1 > nr:
        raise ValueError("reserve pools too small to saturate the mandatory points")
    size = max(nr, nb)
    cost = np.zeros((size, size))
    if nr and nb:
        cost[:nr, :nb] = _cost_matrix(all_r, all_b)
        cost[nr1:nr, nb1:nb] = 0.0  # reserve-reserve: both unused
    cost[:nr1, nb:] = BIG   # mandatory reds cannot go unmatched
    cost[nr:, :nb1] = BIG   # mandatory blues cannot go unmatched
    rows, cols = linear_sum_assignment(cost)
    return sorted((i, j) for i, j in zip(rows.tolist(), cols.tolist())
                  if i < nr and j < nb and (i < nr1 or j < nb1))


def improvable_pair(m: Matching) -> Optional[Tuple[int, int]]:
    """First edge pair (scan order) whose partner swap strictly shortens the
    matching by more than EPS_TIE; None is necessary for minimality."""
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
