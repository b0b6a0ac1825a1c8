"""Polygonal arcs of a strip matching, held as one read-only table.

``ArcTable`` keeps E arcs as numpy columns: ``edges`` (E, 2) int64,
``height`` and ``lowest`` (E,) float64, ``depth`` (E,) int64 and
``vertices`` (E, 4, 2) float64. The columns are validated once, when the
table is built, and are read-only, so whatever is computed from a table
holds for as long as the table lives: the verifiers keep their segment
hits on it. A table is the only form in which any function takes arcs.
``ArcSpec`` is the row type that iterating a table gives. It is not part of
the package's public API and remains only because the benchmark iterates
tables; every other reader, the package's and the tests', takes the columns.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from .geometry import NotNumbersError, _Frozen, _two_columns


class ArcSpec(_Frozen):
    """Four-vertex polyline joining a matched pair below all intervening
    arcs: down from the red to height H, across, and up to the blue, where
    H = (lowest intervening point height) / (maximum nesting depth)."""

    def __init__(self, edge: Tuple[int, int], height: float, lowest: float, depth: int,
                 vertices: List[Tuple[float, float]]):
        vars(self).update(edge=edge, height=height, lowest=lowest, depth=depth,
                          vertices=vertices)

    def segments(self) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
        """The polyline's pieces as vertex pairs, less the zero-length ones."""
        return [(a, b) for a, b in zip(self.vertices, self.vertices[1:]) if a != b]

    def to_json(self) -> dict:
        """The row as a result file's arc object: a row from ``ArcTable``
        holds plain ints and floats already, so none is converted."""
        return {"edge": list(self.edge), "height": self.height, "lowest": self.lowest,
                "depth": self.depth, "vertices": [list(v) for v in self.vertices]}


class ArcTable:
    """E arcs as read-only columns (see the module docstring); ``len`` counts
    them, and iteration gives ``ArcSpec`` rows, built when read, with plain
    Python numbers, tuple edges and lists of vertex tuples.

    Every edge index is a non-negative integer, every depth an integer, and
    every height, lowest point and vertex coordinate a finite float; each
    arc has four 2-D vertices. Anything else is a ValueError."""

    def __init__(self, edges, height, lowest, depth, vertices):
        n = None  # the first column's length, which every other must have
        for name, values, dtype, shape, needs in (
                ("edges", edges, np.int64, (2,), "an edge of two indices"),
                ("height", height, float, (), "a finite height"),
                ("lowest", lowest, float, (), "a finite lowest point"),
                ("depth", depth, np.int64, (), "an integer depth"),
                ("vertices", vertices, float, (4, 2), "four finite 2-D vertices")):
            try:
                a = _two_columns(values, f"arc {name}", dtype, (n, *shape))
            except (TypeError, ValueError) as e:  # no number, ragged rows, another shape
                text = f": {e}" if isinstance(e, NotNumbersError) else ""
                raise ValueError(f"every arc needs {needs}{text}") from e
            if a is values:  # the caller's own float array: the table keeps a copy
                a = a.copy()
            a.flags.writeable = False
            setattr(self, name, a)
            n = len(a)
        if (self.edges < 0).any():
            raise ValueError("every arc needs an edge of two indices")
        self._hits = None  # the verifiers' segment hits, found once (verify._arc_hits)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[ArcSpec]:
        coords = self.vertices.reshape(-1, 8).tolist()
        return map(ArcSpec, map(tuple, self.edges.tolist()), self.height.tolist(),
                   self.lowest.tolist(), self.depth.tolist(),
                   [[(v[0], v[1]), (v[2], v[3]), (v[4], v[5]), (v[6], v[7])] for v in coords])
