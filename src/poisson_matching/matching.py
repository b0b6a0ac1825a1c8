"""A matching between two point lists, and its JSON form.

A ``Matching`` is built from its edges, and everything else about it
follows from them: its kind, its unmatched points, its length and its
endpoint arrays. It keeps the edges as one validated read-only int64 array
and builds its list of edge tuples only when that is read, so a
construction that has its edges as arrays passes them as they are;
``partner_edges`` gives the edges of a partner array, the form every solve
returns. This module loads no scipy.
"""

from __future__ import annotations

import functools
import math
from typing import List, Tuple

import numpy as np

from .geometry import _two_columns

FORMAT_VERSION = 1  # of every JSON object the package writes and the CLI reads

TWO_COLOR = "two_color"
ONE_COLOR = "one_color"


class Matching:
    """Edges between a red and a blue point list (or red-red pairs when
    color_mode is ONE_COLOR), in the order given. Partial matchings leave
    points unmatched.

    ``edges`` may be a list of (i, j) index pairs or an (E, 2) integer array.
    The matching keeps its validated edges as one read-only (E, 2) int64
    array, which the lengths, the endpoint arrays, the JSON writer and the
    unmatched lists read, and ``edges`` reads as a list of plain-int (i, j)
    tuples in the given order, built from it at its first read.

    ``kind``, ``unmatched_reds`` and ``unmatched_blues`` follow from the
    edges; none is stored. Two-color: the unmatched points of each color are
    the indices in no edge, and the kind is "perfect" iff there are none.
    One-color: the unmatched reds are the reds at neither end of any edge,
    there are no unmatched blues, and the kind is always "partial" (the
    window truncates a pairing of the whole line). ``from_json`` rejects a
    file whose stated kind, length or unmatched lists disagree with its edges."""

    def __init__(self, reds, blues, edges, color_mode: str = TWO_COLOR):
        if color_mode not in (TWO_COLOR, ONE_COLOR):
            raise ValueError(f"unknown color_mode {color_mode!r}")
        self.color_mode = color_mode
        self.reds = _two_columns(reds, "reds")
        self.blues = _two_columns(blues, "blues")
        self._e = self._validated(edges)

    def _validated(self, edges) -> np.ndarray:
        """The edges as a fresh read-only int64 array, after the checks."""
        e = _two_columns(edges, "edge indices", np.int64)  # a copy, not the caller's array
        # the first failing edge decides the error, range before reuse; the
        # edges before an out-of-range one are all in range
        i, j = e.T
        outside = np.flatnonzero((i < 0) | (j < 0) | (i >= len(self.reds))
                                 | (j >= len(self._partners)))
        first = int(outside[0]) if len(outside) else len(e)
        inside = e[:first]
        if self.color_mode == ONE_COLOR:
            if (inside[:, 0] == inside[:, 1]).any():
                raise ValueError("a red is paired with itself")
            reused = np.bincount(inside.ravel()).max(initial=0) > 1  # both ends are reds
        else:
            reused = (np.bincount(inside[:, 0]).max(initial=0) > 1
                      or np.bincount(inside[:, 1]).max(initial=0) > 1)
        if reused:
            raise ValueError("a point appears in two edges")
        if first < len(e):
            i, j = e[first].tolist()
            raise ValueError(f"edge ({i},{j}) out of range")
        e.flags.writeable = False
        return e

    @functools.cached_property
    def edges(self) -> List[Tuple[int, int]]:
        return list(zip(*self._e.T.tolist()))

    @property
    def _partners(self) -> np.ndarray:
        """The points the second index of an edge refers to."""
        return self.blues if self.color_mode == TWO_COLOR else self.reds

    def _edge_array(self) -> np.ndarray:
        """The validated edges, (E, 2) int64, read-only."""
        return self._e

    def endpoint_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The two end points of every edge, in edge order: (red, partner)."""
        return self.reds.take(self._e[:, 0], axis=0), self._partners.take(self._e[:, 1], axis=0)

    @property
    def unmatched_reds(self) -> List[int]:
        # one-color: a red at either end of an edge is matched
        return _unused(len(self.reds), self._e if self.color_mode == ONE_COLOR else self._e[:, 0])

    @property
    def unmatched_blues(self) -> List[int]:
        return [] if self.color_mode == ONE_COLOR else _unused(len(self.blues), self._e[:, 1])

    @property
    def kind(self) -> str:
        # the constructor admits no point in two edges, so a two-color
        # matching leaves no point unmatched exactly when it has as many
        # edges as points of each color
        if self.color_mode == TWO_COLOR and len(self._e) == len(self.reds) == len(self.blues):
            return "perfect"
        return "partial"

    @property
    def total_length(self) -> float:
        return float(_lengths(*self.endpoint_arrays()).sum())

    def to_json(self, rows=np.ndarray.tolist) -> dict:
        """The matching object; ``rows`` gives the value the (E, 2) edge
        array is written as (``fileio.result`` passes ``np.asarray``, and
        ``fileio.json_chunks`` writes the array from its columns)."""
        return {
            "format": FORMAT_VERSION,
            "kind": self.kind,
            "color_mode": self.color_mode,
            "edges": rows(self._e),
            "total_length": self.total_length,
            "unmatched_reds": self.unmatched_reds,
            "unmatched_blues": self.unmatched_blues,
        }

    @staticmethod
    def from_json(d: dict, reds, blues) -> "Matching":
        """The matching a file states; its kind, and its total length and
        unmatched lists where given, must be those its edges give, the
        length to a relative 1e-9. The edges are read as one array, and
        ``edges`` reads them as tuples of plain ints."""
        m = Matching(reds, blues, d["edges"], color_mode=d.get("color_mode", TWO_COLOR))
        if d["kind"] != m.kind:
            raise ValueError(f"stated kind {d['kind']!r} disagrees with the edges ({m.kind!r})")
        for key in ("unmatched_reds", "unmatched_blues"):
            if key in d and list(d[key]) != getattr(m, key):
                raise ValueError(f"stated {key} disagree with the edges")
        if "total_length" in d and not math.isclose(d["total_length"], m.total_length,
                                                    rel_tol=1e-9):
            raise ValueError(f"stated total_length {d['total_length']!r} disagrees with "
                             f"the edges ({m.total_length!r})")
        return m


def _lengths(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The length of each segment p[k] -> q[k], as a matching's total adds them."""
    return np.hypot(*(p - q).T)


def _in_order(lengths) -> float:
    """``lengths`` added one by one from 0.0, in order: ``sum()`` rounds otherwise since 3.12."""
    total = 0.0
    for x in lengths:
        total += x
    return total


def _unused(n: int, used: np.ndarray) -> List[int]:
    """The indices in range(n) that ``used`` does not hold, ascending."""
    seen = np.zeros(n, dtype=bool)
    seen[used] = True
    return np.flatnonzero(~seen).tolist()


def partner_edges(partner: np.ndarray) -> np.ndarray:
    """The (red, partner) edges of a partner array, by red, as an (E, 2)
    array: red i is matched to partner[i], or unmatched where that is -1."""
    ri = np.flatnonzero(partner >= 0)
    return np.column_stack([ri, partner[ri]])
