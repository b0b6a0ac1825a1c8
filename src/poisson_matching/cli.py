"""Command-line interface: sample, match, verify, stats, render, sweep.

Every command is deterministic given its flags/config (all randomness flows
from explicit seeds). Exit codes: 0 success, 1 property violation, 2 usage
or configuration error, including any invalid flag value or input file. A
JSON config file can supply defaults; flags win. The commands are a thin
shell over the API: ``_load_result`` reads every input file (points only
inside their window, arcs only as the drawing of the matching), ``verify``
builds every report, and ``_write`` streams every output, so none is held
whole.

``_dump`` is the one JSON writer. It writes the bytes of ``json.dumps(obj,
indent=1, sort_keys=True)`` and a newline, from one walk (``_json_chunks``):
the commands put the point and edge arrays and the arc table in the dict
themselves, each is written from its numpy columns, one ``%`` template per
row, and only the rest (diagnostics, reports, scalars) goes through the
json encoder, chunk by chunk.

``run`` is the console script's entry: it freezes the import heap with
``gc.freeze()`` before the command runs, so the command's collections and
the interpreter's exit leave those objects alone. In-process callers call
``main`` and never freeze.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import operator
import sys
from typing import Iterable, Iterator, Optional

import click
import numpy as np

from . import hierarchy, verify, walks
from .arcs import ArcTable
from .assignment import max_cardinality_min_cost
from .geometry import Disk, Domain
from .matching import FORMAT_VERSION, Matching
from .render import MARGIN, _rows, render_scene
from .sampling import ColoredPointSet, SampleConfig, derived_rng, sample

CHUNKS_PER_WRITE = 256
# one row of each column list, None where a column's value goes
PAIR_ROW = [None, None]  # a point's (x, y), an edge's (red, partner)
ARC_ROW = {"depth": None, "edge": [None, None], "height": None, "lowest": None,
           "vertices": [[None, None]] * 4}  # keys sorted, as _json_chunks' columns
ENCODER = json.JSONEncoder(indent=1, sort_keys=True)
DRAWABLE = click.IntRange(2 * MARGIN + 1, None)  # leaves a drawing area
CONSTRUCTIONS = ("zero_block", "one_color", "cut_time", "excursion",
                 "min_cost", "hierarchical", "laminate")


def _write(chunks: Iterable[str], path: Optional[str]):
    """Stream the strings ``chunks`` to the file at ``path``, or to standard
    output, joined CHUNKS_PER_WRITE at a time: the JSON encoder's chunks are
    a few bytes each, and a write per chunk costs more than the join."""
    chunks = iter(chunks)
    stdout = contextlib.nullcontext(click.get_text_stream("stdout"))
    with open(path, "w") if path else stdout as f:
        while batch := list(itertools.islice(chunks, CHUNKS_PER_WRITE)):
            f.write("".join(batch))
        f.flush()


def _json_chunks(value, level: int) -> Iterator[str]:
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
                                  _json_chunks(value[key], level + 1))
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


def _dump(value, path: Optional[str]):
    """Stream ``value``'s JSON text (``_json_chunks``) and a newline to
    ``path`` or stdout."""
    _write(itertools.chain(_json_chunks(value, 0), ["\n"]), path)


def _load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _make_domain(kind: str, window: str) -> Domain:
    """The ``kind`` domain on ``window``: 'x0,x1' for a line or strip,
    'x0,x1,y0,y1' for a plane; any other count is a usage error."""
    parts = [float(v) for v in window.split(",")]
    bounds = "x0,x1,y0,y1" if kind == "plane" else "x0,x1"
    if len(parts) != bounds.count(",") + 1:
        raise click.UsageError(f"a {kind} window is {bounds}, got {len(parts)} numbers")
    return getattr(Domain, kind)(*parts)


class InputErrorCommand(click.Command):
    """Command that reports invalid flag values and malformed input files as
    usage errors (exit 2) under its own usage line, instead of tracebacks."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KeyError as e:
            raise click.UsageError(f"input is missing the key {e}", ctx) from e
        except ValueError as e:  # includes json.JSONDecodeError
            raise click.UsageError(str(e), ctx) from e


class InputErrorGroup(click.Group):
    command_class = InputErrorCommand  # every subcommand


@click.group(cls=InputErrorGroup)
def main():
    """Desk-scale Poisson matching constructions and verifiers."""


def config_option(f):
    """``--config FILE``: a JSON object of flag defaults, keyed by the
    command's long flags without their dashes, ``-`` and ``_`` alike
    ("lambda-red" or "lambda_red"); flags win. Any other key is a usage
    error, so a misspelled or removed flag is not silently dropped."""
    def callback(ctx, param, value):
        if value:
            try:
                defaults = _load(value)
            except ValueError as e:  # not JSON
                raise click.BadParameter(f"{value}: {e}", ctx, param) from e
            if not isinstance(defaults, dict):
                raise click.BadParameter(f"{value} is not a JSON object", ctx, param)
            names = {flag[2:].replace("_", "-"): p.name for p in ctx.command.params
                     if p is not param for flag in p.opts if flag.startswith("--")}
            for key in defaults:
                if key.replace("_", "-") not in names:
                    raise click.BadParameter(f"{value}: unknown key {key!r}; the keys are the "
                                             f"long flags {', '.join(names)}", ctx, param)
            ctx.default_map = {**{names[key.replace("_", "-")]: v for key, v in defaults.items()},
                               **(ctx.default_map or {})}
        return value
    return click.option("--config", type=click.Path(exists=True), callback=callback,
                        is_eager=True, expose_value=False,
                        help="JSON file with flag defaults.")(f)


@main.command("sample")
@config_option
@click.option("--seed", type=int, required=True)
@click.option("--domain", "kind", type=click.Choice(["line", "strip", "plane"]),
              default="strip", show_default=True)
@click.option("--window", default="0,50", show_default=True)
@click.option("--lambda-red", type=float, default=1.0, show_default=True)
@click.option("--lambda-blue", type=float, default=1.0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_sample(seed, kind, window, lambda_red, lambda_blue, out):
    """Draw a seeded two-color Poisson configuration."""
    domain = _make_domain(kind, window)
    ps = sample(SampleConfig(lambda_red, lambda_blue, domain, seed))
    _dump(ps.to_json(rows=np.asarray), out)


def _result_json(ps: ColoredPointSet, m: Matching, arcs: Optional[ArcTable] = None,
                 diagnostics=None) -> dict:
    """The result object, its point and edge arrays and its arc table kept
    as they are, for ``_dump`` to write from their columns."""
    out = {
        "format": FORMAT_VERSION,
        "points": ps.to_json(rows=np.asarray),
        "matching": m.to_json(rows=np.asarray),
    }
    if arcs is not None:
        out["arcs"] = arcs
    if diagnostics is not None:
        out["diagnostics"] = diagnostics
    return out


@contextlib.contextmanager
def _fields_of(path: str):
    """Building objects from the file at ``path``: a field of the wrong JSON
    type (null for a list, a list for an object), or a number too large for
    a float, is a ValueError naming the file, and so a usage error."""
    try:
        yield
    except (TypeError, AttributeError, OverflowError) as e:
        raise ValueError(f"malformed input {path}: {e}") from e


def _block_system(d: dict, path: str) -> hierarchy.BlockSystem:
    """The block system a hierarchical result was built on, from the offsets
    its diagnostics state; stated shifts must be those the offsets give."""
    with _fields_of(path):
        offsets = d["diagnostics"]["offsets"]
        system = hierarchy.BlockSystem.from_offsets(offsets["r"])
        if offsets.get("t", system.t) != system.t:
            raise ValueError(f"the block shifts t in {path} disagree with its offsets r")
    return system


def _check_format(d: dict, path: str, what: str = "") -> None:
    if d.get("format", FORMAT_VERSION) != FORMAT_VERSION:
        raise ValueError(f"unsupported {what}format {d['format']!r} in {path}")


def _points_of(d: dict, path: str) -> ColoredPointSet:
    """The point set ``d`` states; a point outside its domain's closed
    window is a ValueError naming the file and the first such point."""
    ps = ColoredPointSet.from_json(d)
    w = ps.domain
    x, y = np.concatenate([ps.reds, ps.blues]).T
    out = np.flatnonzero((x < w.x0) | (x > w.x1) | (y < w.y0) | (y > w.y1))
    if len(out):
        raise ValueError(f"the point {(float(x[out[0]]), float(y[out[0]]))} in {path} lies "
                         f"outside its window [{w.x0!r}, {w.x1!r}] x [{w.y0!r}, {w.y1!r}]")
    return ps


def _load_result(path: str):
    """The points, matching and arcs of the result file at ``path``, and its
    dict; a point-set file has neither matching nor arcs. Points outside the
    file's window (``_points_of``) and arcs that do not draw the matching
    (``verify._drawn_edges``) are input errors."""
    d = _load(path)
    if not isinstance(d, dict):
        raise ValueError(f"malformed input {path}: not a JSON object")
    _check_format(d, path)
    with _fields_of(path):
        if "points" not in d:
            return _points_of(d, path), None, None, d
        _check_format(d["points"], path, "points ")
        _check_format(d["matching"], path, "matching ")
        ps = _points_of(d["points"], path)
        m = Matching.from_json(d["matching"], ps.reds, ps.blues)
        arcs = None
        if "arcs" in d:
            arcs = ArcTable.from_json(d["arcs"])
            verify._drawn_edges(m, arcs)
        return ps, m, arcs, d


@main.command("match")
@config_option
@click.option("--in", "in_path", type=click.Path(exists=True), default=None,
              help="Point-set JSON from 'sample' (walk/min-cost constructions).")
@click.option("--construction", type=click.Choice(CONSTRUCTIONS), required=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Construction randomness (offsets, coin, shift, bands).")
@click.option("--coin", type=click.IntRange(0, 1), default=None,
              help="Phase for one_color (default: derived from seed).")
@click.option("--stages", type=click.IntRange(2, 6), default=4, show_default=True,
              help="Levels N for hierarchical; at N=7 one dense solve would "
                   "need over 56 GB.")
@click.option("--bands", type=int, default=3, show_default=True,
              help="Strip bands for laminate.")
@click.option("--window", default="0,50", show_default=True,
              help="Strip window x0,x1 of laminate's bands.")
@click.option("--lambda-red", type=float, default=1.0, show_default=True)
@click.option("--lambda-blue", type=float, default=1.0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_match(in_path, construction, seed, coin, stages, bands, window,
              lambda_red, lambda_blue, out):
    """Build a matching with the chosen construction."""
    arcs = None
    diagnostics = {}
    if in_path is not None and construction in ("hierarchical", "laminate"):
        raise click.UsageError(f"{construction} samples its own points and reads no --in")
    if construction == "hierarchical":
        system = hierarchy.build_block_system(seed, stages)
        domain = hierarchy.aligned_window(system)
        ps = sample(SampleConfig(lambda_red, lambda_blue, domain, seed))
        m, diagnostics, _ = hierarchy.run_hierarchical(ps, seed, stages, system=system)
    elif construction == "laminate":
        domain = _make_domain("strip", window)
        shift = float(derived_rng(seed, 5).uniform(0.0, 1.0))
        results = []
        for band in range(bands):
            bps = sample(SampleConfig(lambda_red, lambda_blue, domain, seed * 1000 + band))
            bm = walks.excursion_matching(bps)
            results.append((bps, bm, walks.polygonal_arcs(bm, bps)))
        ps, m, arcs = walks.laminate_strips(results, shift)
        diagnostics = {"bands": bands, "shift": shift}
    else:
        if in_path is None:
            raise click.UsageError(f"--in is required for {construction}")
        ps, *_ = _load_result(in_path)
        kind = ps.domain.kind
        if construction in ("zero_block", "one_color", "cut_time") and kind != "strip":
            raise click.UsageError(f"{construction} requires a strip domain")
        if construction == "zero_block":
            m = walks.zero_block_matching(ps)
        elif construction == "one_color":
            if coin is None:
                coin = int(derived_rng(seed, 6).integers(0, 2))
            m = walks.one_color_pairing(ps, coin)
            diagnostics = {"coin": coin}
        elif construction == "cut_time":
            m = walks.cut_time_matching(ps)
        elif construction == "excursion":
            m = walks.excursion_matching(ps)
            if kind == "strip":
                arcs = walks.polygonal_arcs(m, ps)
        else:  # min_cost: the smaller color fully matched, the excess left over
            m = max_cardinality_min_cost(ps.reds, ps.blues)
    result = _result_json(ps, m, arcs, diagnostics)
    diagnostics.update({  # counted from the edge array and the result's lists
        "construction": construction,
        "edges": len(m._edge_array()),
        "unmatched_reds": len(result["matching"]["unmatched_reds"]),
        "unmatched_blues": len(result["matching"]["unmatched_blues"]),
    })
    _dump(result, out)


@main.command("verify")
@config_option
@click.option("--in", "in_path", type=click.Path(exists=True), required=True,
              help="Result JSON from 'match'.")
@click.option("--property", "prop", type=click.Choice(["planarity", "arcs", "minimality"]),
              required=True, help="planarity needs a strip or plane domain.")
@click.option("--out", type=click.Path(), default=None)
def cmd_verify(in_path, prop, out):
    """Check a matching property; exit 1 with witnesses on violation."""
    ps, m, arcs, _ = _load_result(in_path)
    if m is None:
        raise click.UsageError("input has no matching; run 'match' first")
    if prop == "planarity":
        if ps.domain.kind == "line":  # every edge lies on the one line
            raise click.UsageError("planarity requires a strip or plane domain, not a line")
        # results carrying arcs are drawn with them, so planarity is checked
        # on the arc geometry rather than straight chords
        report = verify.check_planarity(m, arcs)
    elif prop == "arcs":
        if arcs is None:
            raise click.UsageError("input has no arcs")
        report = verify.check_arc_disjointness(arcs)
    else:  # minimality: on a line, the O(n log n) count; elsewhere, the cycle search
        report = (verify.minimality_certificate_d1(m) if ps.domain.kind == "line"
                  else verify.minimality_certificate(m))
    _dump(report.to_json(), out)
    if not report.passed:
        sys.exit(1)


@main.command("stats")
@config_option
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--kind", type=click.Choice(["eta", "crossings", "box-rematch"]),
              required=True)
@click.option("--box-side", type=float, default=6.0, show_default=True,
              help="Side of the box-rematch squares; the window must be fewer "
                   "than 2**53 of them across.")
@click.option("--disk", default=None, help="cx,cy,r query disk for crossings.")
@click.option("--out", type=click.Path(), default=None)
def cmd_stats(in_path, kind, box_side, disk, out):
    """Quantitative diagnostics for a matching."""
    ps, m, *_ = _load_result(in_path)
    if m is None:
        raise click.UsageError("input has no matching; run 'match' first")
    if kind == "eta":
        report = verify.estimate_eta([(ps, m)])
    elif kind == "crossings":
        if disk:
            try:
                cx, cy, r = (float(v) for v in disk.split(","))
            except ValueError:  # too few or too many values, or not numbers
                raise click.UsageError(
                    f"--disk cx,cy,r needs three numbers, got {disk!r}") from None
            region = Disk(cx, cy, r)
        else:
            cx = (ps.domain.x0 + ps.domain.x1) / 2
            cy = (ps.domain.y0 + ps.domain.y1) / 2
            region = Disk(cx, cy, 0.5)
        report = verify.crossing_stats(m, [region])
    else:
        report = verify.box_rematch_experiment(ps, m, box_side).report()
    _dump(report.to_json(), out)


@main.command("render")
@config_option
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--width", type=DRAWABLE, default=800, show_default=True)
@click.option("--height", type=DRAWABLE, default=400, show_default=True)
@click.option("--walk/--no-walk", default=False, help="Overlay the counting walk.")
@click.option("--blocks", type=click.IntRange(0, 6), default=0,
              help="Overlay the outlines of the file's own blocks up to this "
                   "level (hierarchical); level 7 would draw over 3M level-1 cells.")
@click.option("--out", type=click.Path(), required=True)
def cmd_render(in_path, width, height, walk, blocks, out):
    """Render a result file to SVG."""
    ps, m, arcs, d = _load_result(in_path)
    w = walks.build_walk(ps) if walk else None
    rects = []
    if blocks:
        system = _block_system(d, in_path)
        if blocks > system.N:
            raise click.UsageError(f"--blocks {blocks} is above the level of the file's "
                                   f"block system (N={system.N})")
        cells = hierarchy.window_grids(system, system.N, ps.domain.window_rect())
        rects = [(n, system.rects(n, cells[n])) for n in range(blocks, 0, -1)]
    _write(render_scene(ps, m, arcs=arcs, walk=w, blocks=rects,
                        width=width, height=height), out)


@main.command("sweep")
@config_option
@click.option("--lambdas", default="1,5,10,20", show_default=True)
@click.option("--ratios", default="0.25,0.5,1.0", show_default=True,
              help="mu as a fraction of lambda.")
@click.option("--out", type=click.Path(), default=None)
def cmd_sweep(lambdas, ratios, out):
    """Exact Poisson-difference tails on a grid; CSV of (lambda, mu, tail, bound, pass)."""
    import csv  # only here, so no other command loads it
    rows = []
    for lam in (float(v) for v in lambdas.split(",")):
        for ratio in (float(v) for v in ratios.split(",")):
            p = hierarchy.ChernoffParams(lam, lam * ratio)
            tail, bound = hierarchy.chernoff_tail(p), hierarchy.chernoff_bound(p)
            rows.append([lam, p.mu, tail, bound, tail <= bound])
    buf = io.StringIO()
    csv.writer(buf).writerows([["lambda", "mu", "tail", "bound", "pass"], *rows])
    _write([buf.getvalue()], out)
    if not all(row[-1] for row in rows):
        sys.exit(1)


def run():
    """The console script: ``main`` on the command line, after freezing the
    objects the imports made, so that neither the command's collections nor
    the interpreter's exit walks them."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
