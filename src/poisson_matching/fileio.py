"""Every file the CLI reads, and every JSON decode in the package.

``load_result`` reads a point-set file or a result file (points, matching,
arcs, diagnostics). It checks that every ``format`` is the int
FORMAT_VERSION, that no point coordinate, edge index or arc value is a JSON
boolean (numpy reads one as 0 or 1), that points lie in their window and
that arcs draw the matching; the objects' ``from_json`` check the rest,
every array through ``geometry._two_columns``, which refuses a string. Of
the diagnostics only ``offsets`` is read (``block_system``). A missing key
is a KeyError and any other fault a ValueError; the CLI exits 2 on either.
"""

from __future__ import annotations

import contextlib
import itertools
import json

import numpy as np

from . import hierarchy, verify
from .arcs import ArcTable
from .matching import FORMAT_VERSION, Matching
from .sampling import ColoredPointSet


def load(path: str) -> dict:
    """The JSON object in the file at ``path``: a result or a ``--config``."""
    with open(path) as f:
        try:
            d = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {e}") from e
    if not isinstance(d, dict):
        raise ValueError(f"{path} is not a JSON object")
    return d


@contextlib.contextmanager
def _fields_of(path: str):
    """Building objects from the file at ``path``: a field of the wrong JSON
    type (null for a list, a list for an object), or a number too large for
    a float, is a ValueError naming the file, and so a usage error."""
    try:
        yield
    except (TypeError, AttributeError, OverflowError) as e:
        raise ValueError(f"malformed input {path}: {e}") from e


def _numbers(values, array: np.ndarray, what: str) -> None:
    """A JSON boolean among ``values``, the decoded lists that numpy read as
    ``array``, is a ValueError. numpy reads one beside numbers as 0 or 1,
    so the lists are scanned only where ``array`` holds a 0 or a 1."""
    if ((array == 0) | (array == 1)).any():
        leaves = values
        for _ in range(array.ndim - 1):  # the lists nest as deep as the array
            leaves = itertools.chain.from_iterable(leaves)
        if bool in set(map(type, leaves)):
            raise ValueError(f"{what} must be numbers, not true or false")


def arc_table(rows) -> ArcTable:
    """The table of the arc objects ``rows``, as a result file holds them."""
    keys = ("edge", "height", "lowest", "depth", "vertices")  # ArcTable's order
    columns = [[a[key] for a in rows] for key in keys]
    table = ArcTable(*columns)
    arrays = (table.edges, table.height, table.lowest, table.depth, table.vertices)
    for key, values, array in zip(keys, columns, arrays):
        _numbers(values, array, f"arc {key}")
    return table


def load_result(path: str):
    """The points, matching and arcs of the result file at ``path``, and its
    dict; a point-set file, the point set alone, has neither matching nor
    arcs. A point outside its domain's closed window, and arcs that do not
    draw the matching (``verify._drawn_edges``), are input errors."""
    d = load(path)
    with _fields_of(path):
        points = d.get("points", d)
        for what, obj in (("", d), ("points ", points), ("matching ", d.get("matching", {}))):
            version = obj.get("format", FORMAT_VERSION)
            if type(version) is not int or version != FORMAT_VERSION:  # True == 1.0 == 1
                raise ValueError(f"unsupported {what}format {version!r} in {path}")
        ps = ColoredPointSet.from_json(points)
        for key in ("reds", "blues"):
            _numbers(points[key], getattr(ps, key), key)
        w = ps.domain
        x, y = np.concatenate([ps.reds, ps.blues]).T
        out = np.flatnonzero((x < w.x0) | (x > w.x1) | (y < w.y0) | (y > w.y1))
        if len(out):
            raise ValueError(f"the point {(float(x[out[0]]), float(y[out[0]]))} in {path} lies "
                             f"outside its window [{w.x0!r}, {w.x1!r}] x [{w.y0!r}, {w.y1!r}]")
        if points is d:
            return ps, None, None, d
        matching = d["matching"]
        m = Matching.from_json(matching, ps.reds, ps.blues)
        _numbers(matching["edges"], m._edge_array(), "matching edges")
        arcs = None
        if "arcs" in d:
            arcs = arc_table(d["arcs"])
            verify._drawn_edges(m, arcs)
        return ps, m, arcs, d


def block_system(d: dict, path: str) -> hierarchy.BlockSystem:
    """The block system a hierarchical result was built on, from the offsets
    its diagnostics state; stated shifts must be those the offsets give."""
    with _fields_of(path):
        offsets = d["diagnostics"]["offsets"]
        system = hierarchy.BlockSystem.from_offsets(offsets["r"])
        if offsets.get("t", system.t) != system.t:
            raise ValueError(f"the block shifts t in {path} disagree with its offsets r")
    return system
