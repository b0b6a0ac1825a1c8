"""Command-line interface: sample, match, verify, stats, render, sweep.

Every command is deterministic given its flags/config (all randomness flows
from explicit seeds). Exit codes: 0 success, 1 property violation, 2 usage
or configuration error, including any invalid flag value or input file. A
JSON config file can supply defaults; flags win. The commands are a thin
shell over the API: ``fileio`` reads every input file, ``--config`` files
included, and encodes every JSON object, ``verify`` builds every report,
and ``_write`` streams every output, so none is held whole.

``run`` is the console script's entry: it freezes the import heap with
``gc.freeze()`` before the command runs, so the command's collections and
the interpreter's exit leave those objects alone. In-process callers call
``main`` and never freeze.
"""

from __future__ import annotations

import contextlib
import errno
import gc
import itertools
import os
import sys
from typing import Iterable, Optional

import click

from . import fileio, hierarchy, verify, walks
from .assignment import max_cardinality_min_cost
from .geometry import Disk, Domain
from .render import MARGIN, render_scene
from .sampling import SampleConfig, derived_rng, sample

CHUNKS_PER_WRITE = 256
DRAWABLE = click.IntRange(2 * MARGIN + 1, None)  # leaves a drawing area
CONSTRUCTIONS = ("zero_block", "one_color", "cut_time", "excursion",
                 "min_cost", "hierarchical", "laminate")


def _write(chunks: Iterable[str], path: Optional[str]):
    """Stream the strings ``chunks`` to the file at ``path``, or to standard
    output, joined CHUNKS_PER_WRITE at a time: the JSON encoder's chunks are
    a few bytes each, and a write per chunk costs more than the join. A path
    that cannot be opened for writing is a usage error."""
    chunks = iter(chunks)
    stdout = contextlib.nullcontext(click.get_text_stream("stdout"))
    try:
        out = open(path, "w") if path else stdout
    except OSError as e:  # a missing directory, a directory, no permission
        raise click.UsageError(f"cannot write --out {path}: {e.strerror}") from e
    with out as f:
        while batch := list(itertools.islice(chunks, CHUNKS_PER_WRITE)):
            f.write("".join(batch))
        f.flush()


def _dump(value, path: Optional[str]):
    """Stream ``value``'s JSON text (``fileio.json_chunks``) and a newline to
    ``path`` or stdout."""
    _write(itertools.chain(fileio.json_chunks(value), ["\n"]), path)


def _make_domain(kind: str, window: str) -> Domain:
    """The ``kind`` domain on ``window``: 'x0,x1' for a line or strip,
    'x0,x1,y0,y1' for a plane; any other count is a usage error."""
    parts = [float(v) for v in window.split(",")]
    bounds = "x0,x1,y0,y1" if kind == "plane" else "x0,x1"
    if len(parts) != bounds.count(",") + 1:
        raise click.UsageError(f"a {kind} window is {bounds}, got {len(parts)} numbers")
    return getattr(Domain, kind)(*parts)


class InputErrorCommand(click.Command):
    """Command that reports invalid flag values, malformed input files and
    a failed allocation as usage errors (exit 2) under its own usage line,
    instead of tracebacks, and an ``--out`` in no directory, or that is one,
    before its work."""

    def invoke(self, ctx):
        out = ctx.params.get("out")
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            # found before the work, not when _write opens it after; nothing
            # is created or truncated, so an --out that is the --in still works
            code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
            raise click.UsageError(f"cannot write --out {out}: {os.strerror(code)}", ctx)
        try:
            return super().invoke(ctx)
        except KeyError as e:
            raise click.UsageError(f"input is missing the key {e}", ctx) from e
        except ValueError as e:  # includes json.JSONDecodeError
            raise click.UsageError(str(e), ctx) from e
        except MemoryError as e:  # numpy's names the array it could not allocate
            raise click.UsageError(f"out of memory: {str(e) or 'an allocation failed'}",
                                   ctx) from e


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
                defaults = fileio.load(value)
            except ValueError as e:  # not JSON, or not an object
                raise click.BadParameter(str(e), ctx, param) from e
            names = {flag[2:].replace("_", "-"): p.name for p in ctx.command.params
                     if p is not param for flag in p.opts if flag.startswith("--")}
            for key in defaults:
                if key.replace("_", "-") not in names:
                    raise click.BadParameter(f"{value}: unknown key {key!r}; the keys are the "
                                             f"long flags {', '.join(names)}", ctx, param)
            ctx.default_map = {**{names[key.replace("_", "-")]: v for key, v in defaults.items()},
                               **(ctx.default_map or {})}
        return value
    return click.option("--config", type=click.Path(exists=True, dir_okay=False),
                        callback=callback, is_eager=True, expose_value=False,
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
    _dump(fileio.result(ps), out)


@main.command("match")
@config_option
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), default=None,
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
        ps, *_ = fileio.load_result(in_path)
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
    result = fileio.result(ps, m, arcs, diagnostics)
    diagnostics.update({  # counted from the edge array and the result's lists
        "construction": construction,
        "edges": len(m._edge_array()),
        "unmatched_reds": len(result["matching"]["unmatched_reds"]),
        "unmatched_blues": len(result["matching"]["unmatched_blues"]),
    })
    _dump(result, out)


@main.command("verify")
@config_option
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Result JSON from 'match'.")
@click.option("--property", "prop", type=click.Choice(["planarity", "arcs", "minimality"]),
              required=True, help="planarity needs a strip or plane domain.")
@click.option("--out", type=click.Path(), default=None)
def cmd_verify(in_path, prop, out):
    """Check a matching property; exit 1 with witnesses on violation."""
    ps, m, arcs, _ = fileio.load_result(in_path)
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
    else:
        report = verify.minimality_certificate(m)
    _dump(report.to_json(), out)
    if not report.passed:
        sys.exit(1)


@main.command("stats")
@config_option
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--kind", type=click.Choice(["eta", "crossings", "box-rematch"]),
              required=True)
@click.option("--box-side", type=float, default=6.0, show_default=True,
              help="Side of the box-rematch squares; the window must be fewer "
                   "than 2**53 of them across.")
@click.option("--disk", default=None, help="cx,cy,r query disk for crossings.")
@click.option("--out", type=click.Path(), default=None)
def cmd_stats(in_path, kind, box_side, disk, out):
    """Quantitative diagnostics for a matching."""
    ps, m, *_ = fileio.load_result(in_path)
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
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--width", type=DRAWABLE, default=800, show_default=True)
@click.option("--height", type=DRAWABLE, default=400, show_default=True)
@click.option("--walk/--no-walk", default=False, help="Overlay the counting walk.")
@click.option("--blocks", type=click.IntRange(0, 6), default=0,
              help="Overlay the outlines of the file's own blocks up to this "
                   "level (hierarchical); level 7 would draw over 3M level-1 cells.")
@click.option("--out", type=click.Path(), required=True)
def cmd_render(in_path, width, height, walk, blocks, out):
    """Render a result file to SVG."""
    ps, m, arcs, d = fileio.load_result(in_path)
    w = walks.build_walk(ps) if walk else None
    rects = []
    if blocks:
        system = fileio.block_system(d, in_path)
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
    rows = []
    for lam in (float(v) for v in lambdas.split(",")):
        for ratio in (float(v) for v in ratios.split(",")):
            p = hierarchy.ChernoffParams(lam, lam * ratio)
            tail, bound = hierarchy.chernoff_tail(p), hierarchy.chernoff_bound(p)
            rows.append([lam, p.mu, tail, bound, tail <= bound])
    # the rows csv.writer's excel dialect writes: str of each value, CRLF ends
    _write([",".join(map(str, row)) + "\r\n"
            for row in [["lambda", "mu", "tail", "bound", "pass"], *rows]], out)
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
