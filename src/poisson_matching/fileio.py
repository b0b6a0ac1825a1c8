"""Every file the CLI reads, every JSON object it writes, and every JSON
decode and encode in the package: the result file's one module.

``load_result`` reads a point-set file or a result file (points, matching,
arcs, diagnostics). It checks that every ``format`` is the int
FORMAT_VERSION, that points lie in their window and that arcs draw the
matching; the objects' ``from_json`` check the rest, every array through
``geometry._two_columns``, which refuses a string or a boolean. Of the
diagnostics only ``offsets`` is read (``block_system``). A missing key is a
KeyError and any other fault a ValueError; the CLI exits 2 on either.

``json_chunks`` writes the bytes of ``json.dumps(obj, indent=1,
sort_keys=True)`` from one walk: ``result`` puts the point and edge arrays
and the arc table in the object as they are, each is written from its numpy
columns, one ``%`` template per row, and only the rest (diagnostics,
reports, scalars) goes through the json encoder, chunk by chunk.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
from typing import Iterator, Optional

import numpy as np

from . import hierarchy, verify
from .arcs import ArcTable
from .matching import FORMAT_VERSION, Matching
from .render import _rows
from .sampling import ColoredPointSet

# one row of each column list, None where a column's value goes
PAIR_ROW = [None, None]  # a point's (x, y), an edge's (red, partner)
ARC_ROW = {"depth": None, "edge": [None, None], "height": None, "lowest": None,
           "vertices": [[None, None]] * 4}  # keys sorted, as json_chunks' columns
ENCODER = json.JSONEncoder(indent=1, sort_keys=True)


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


def arc_table(rows) -> ArcTable:
    """The table of the arc objects ``rows``, as a result file holds them."""
    return ArcTable(*([a[key] for a in rows]  # in ArcTable's order
                      for key in ("edge", "height", "lowest", "depth", "vertices")))


def _check(ps: ColoredPointSet, m=None, arcs=None, path: str = "") -> None:
    """A result file's rules beyond its objects' own, read or written: its
    points lie in their closed window, ``m`` matches them and ``arcs`` draw
    ``m`` (``verify._drawn_edges``). A ValueError names the file ``path``."""
    w = ps.domain
    x, y = np.concatenate([ps.reds, ps.blues]).T
    out = np.flatnonzero((x < w.x0) | (x > w.x1) | (y < w.y0) | (y > w.y1))
    if len(out):
        raise ValueError(f"the point {(float(x[out[0]]), float(y[out[0]]))}"
                         f"{path and ' in ' + path} lies outside its window "
                         f"[{w.x0!r}, {w.x1!r}] x [{w.y0!r}, {w.y1!r}]")
    if m is not None:
        ps.check_matching(m)
    if arcs is not None:
        verify._drawn_edges(m, arcs)


def load_result(path: str):
    """The points, matching and arcs of the result file at ``path``, and its
    dict; a point-set file, the point set alone, has neither matching nor
    arcs. A point outside its domain's closed window, and arcs that do not
    draw the matching, are input errors (``_check``)."""
    d = load(path)
    with _fields_of(path):
        points = d.get("points", d)
        for what, obj in (("", d), ("points ", points), ("matching ", d.get("matching", {}))):
            version = obj.get("format", FORMAT_VERSION)
            if type(version) is not int or version != FORMAT_VERSION:  # True == 1.0 == 1
                raise ValueError(f"unsupported {what}format {version!r} in {path}")
        ps = ColoredPointSet.from_json(points)
        m = None if points is d else Matching.from_json(d["matching"], ps.reds, ps.blues)
        arcs = arc_table(d["arcs"]) if m is not None and "arcs" in d else None
        _check(ps, m, arcs, path)
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


def result(ps: ColoredPointSet, m: Optional[Matching] = None,
           arcs: Optional[ArcTable] = None, diagnostics=None) -> dict:
    """The object of a result file, or of a point-set file, the point set
    alone, where ``m`` is None, as ``load_result`` reads and refuses them;
    the point and edge arrays and the arc table are kept as they are, for
    ``json_chunks`` to write from their columns."""
    _check(ps, m, arcs)
    points = ps.to_json(rows=np.asarray)
    if m is None:
        return points
    out = {"format": FORMAT_VERSION, "points": points, "matching": m.to_json(rows=np.asarray)}
    if arcs is not None:
        out["arcs"] = arcs
    if diagnostics is not None:
        out["diagnostics"] = diagnostics
    return out


def json_chunks(value, level: int = 0) -> Iterator[str]:
    """The text ``json.dumps(value, indent=1, sort_keys=True)`` gives
    ``value`` as the value of a key indented ``level`` spaces, as chunks. An
    (n, 2) array or an ``ArcTable`` is written row by row from its columns,
    ``PAIR_ROW`` or ``ARC_ROW`` filled by ``render._rows``; every float
    column is finite, checked where it was built, so ``%r`` is json's form.
    A dict holding either at any depth, keyed by strings, is walked key by
    key, sorted; any other value is the encoder's chunks, re-indented, as
    they come."""
    if isinstance(value, (np.ndarray, ArcTable)):
        if not len(value):
            return iter(["[]"])
        if isinstance(value, ArcTable):
            prototype, columns = ARC_ROW, (value.depth, *value.edges.T, value.height,
                                           value.lowest, *value.vertices.reshape(-1, 8).T)
        else:
            prototype, columns = PAIR_ROW, value.T
        pad = "\n" + " " * (level + 1)
        template = json.dumps(prototype, indent=1, sort_keys=True).replace("null", "%r")
        rows = _rows("," + pad + template.replace("\n", pad), *columns)
        # the first row has no comma before it
        return itertools.chain(["[" + next(rows)[1:]], rows, ["\n" + " " * level + "]"])
    if isinstance(value, dict) and _holds_rows(value):
        pad = "\n" + " " * (level + 1)
        fields = (itertools.chain([("," if k else "") + pad + json.dumps(key) + ": "],
                                  json_chunks(value[key], level + 1))
                  for k, key in enumerate(sorted(value)))
        return itertools.chain(["{"], itertools.chain.from_iterable(fields),
                               ["\n" + " " * level + "}"])
    chunks = ENCODER.iterencode(value)
    if level:  # the encoder indents from 0
        chunks = map(operator.methodcaller("replace", "\n", "\n" + " " * level), chunks)
    return chunks


def _holds_rows(d: dict) -> bool:
    """Whether ``d`` or a dict nested in it holds an array or an arc table."""
    return any(isinstance(v, (np.ndarray, ArcTable)) or isinstance(v, dict) and _holds_rows(v)
               for v in d.values())
