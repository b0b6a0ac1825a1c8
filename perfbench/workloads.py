"""The benchmark's workloads: seeded inputs, the call chain into the public
API or the CLI, and the checks on their outputs.

Each workload runs instances. ``run`` is the timed call chain of one
instance; ``check`` validates its outputs outside the timed section and
records the per-layer counts; ``record`` is the JSON-able part of the
outputs that the golden digest and the traced-pass comparison cover;
``extras`` runs only in the traced run (smaller sizes for the scaling
exponents, the CLI import probe).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import List

import numpy as np

from poisson_matching import (ColoredPointSet, Matching, SampleConfig, hierarchy,
                              max_cardinality_min_cost, min_cost_perfect, sample,
                              verify, walks)
from poisson_matching.geometry import Disk, Domain

REL_TOL = 1e-9
CLI_TIMEOUT_S = 120


def sub_seed(seed: int, *path: int) -> int:
    """Seed of the input stream identified by (seed, *path)."""
    return int(np.random.SeedSequence([int(seed), *path]).generate_state(1)[0])


def normalized(record):
    """The record as it reads back from JSON (string keys, plain types)."""
    return json.loads(json.dumps(record))


def same(a, b, rel_tol: float = REL_TOL) -> bool:
    """Equality of parsed JSON values; floats agree within a relative
    tolerance, so a last-ulp change is not a difference."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and \
            math.isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and \
            all(same(a[k], b[k], rel_tol) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and \
            all(same(x, y, rel_tol) for x, y in zip(a, b))
    return a == b


def fingerprint(record) -> dict:
    """SHA-256 of the record's discrete part (every float replaced by a
    marker), plus the count and the absolute sum of its floats."""
    floats: List[float] = []

    def skeleton(v):
        if isinstance(v, float):
            floats.append(abs(v))
            return "<float>"
        if isinstance(v, dict):
            return {k: skeleton(x) for k, x in v.items()}
        if isinstance(v, list):
            return [skeleton(x) for x in v]
        return v

    text = json.dumps(skeleton(normalized(record)), sort_keys=True)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "floats": len(floats), "abs_sum": math.fsum(floats)}


def matches_golden(found: dict, golden: dict) -> bool:
    return (found["sha256"] == golden["sha256"] and found["floats"] == golden["floats"]
            and math.isclose(found["abs_sum"], golden["abs_sum"], rel_tol=REL_TOL))


@dataclass
class Result:
    points: int = 0
    steps: List[float] = field(default_factory=list)  # per-command times (CLI only)
    data: dict = field(default_factory=dict)


def _points(*sets: ColoredPointSet) -> int:
    return sum(ps.n_red + ps.n_blue for ps in sets)


def _verdict(rec, what: str, report) -> None:
    rec.check(what, report.passed, report.violations[:3])
    rec.add("verify.pairs_checked", report.trials)
    rec.add("verify.violations", len(report.violations))


def _zero_blocks(rec, ps: ColoredPointSet) -> None:
    """Zero-block counts from the walk, outside the timed section."""
    vals = walks.build_walk(ps).values
    zeros = np.flatnonzero(vals == 0)
    rec.add("walks.zero_blocks", len(zeros))
    if len(zeros):
        steps = np.diff(np.concatenate([[-1], zeros]))
        rec.peak("walks.largest_zero_block_pairs", int(steps.max()) // 2)


def _scaling_exp(busy: dict, counts: dict, full_spans, small_span: str, size: str) -> float:
    """Log-log slope between the full-size and the small-size calls."""
    t_full = sum(busy.get(s, 0.0) for s in full_spans)
    t_small = busy.get(small_span, 0.0)
    n_full, n_small = counts.get(size, 0), counts.get(size + ".small", 0)
    if min(t_full, t_small) <= 0 or min(n_full, n_small) <= 0 or n_full == n_small:
        return 0.0
    return math.log(t_full / t_small) / math.log(n_full / n_small)


class Workload:
    name = ""
    nominal_s = 1.0  # one instance's chain on the reference machine
    rss_of_children = False
    # (metric, spans timed at full size, span timed at the small size, size count)
    scaling: tuple = ()

    def __init__(self, workdir: str):
        self.workdir = workdir

    def instances(self, seconds: float) -> int:
        """Fixed work per run: as many instances as fill ``seconds`` on the
        reference machine, so a faster program finishes sooner."""
        return max(1, round(seconds / self.nominal_s))

    def extras(self, rec, seed: int) -> None:
        pass

    def finish(self, busy: dict, counts: dict) -> dict:
        return {metric: _scaling_exp(busy, counts, *spec) for metric, *spec in self.scaling}


class StripArcs(Workload):
    name = "strip_arcs"
    nominal_s = 1.3
    # The dense verifiers hold n-by-n arrays: L=1500 keeps them near 0.5 GB.
    length = 1500.0
    scaling = (
        ("walks.polygonal_arcs.scaling_exp", ("walks.polygonal_arcs",),
         "scale.walks.polygonal_arcs.small", "scale.points"),
        ("verify.check_arc_disjointness.scaling_exp", ("verify.check_arc_disjointness",),
         "scale.verify.check_arc_disjointness.small", "scale.segments"),
    )

    def warm_up(self, rec) -> None:
        self.run(rec, 0, length=20.0)

    def run(self, rec, seed: int, length: float = length) -> Result:
        strip = Domain.strip(0.0, length)
        ps = rec.call("sampling.sample", sample, SampleConfig(1.0, 1.0, strip, seed))
        m = rec.call("walks.excursion_matching", walks.excursion_matching, ps)
        arcs = rec.call("walks.polygonal_arcs", walks.polygonal_arcs, m, ps)
        disjoint = rec.call("verify.check_arc_disjointness",
                            verify.check_arc_disjointness, arcs)
        planar = rec.call("verify.check_planarity_arcs", verify.check_planarity, m, arcs=arcs)
        profile = rec.call("walks.crossing_profile", walks.crossing_profile, m)
        text = rec.call("cli.json_encode", _encode_result, ps, m, arcs)
        decoded = rec.call("cli.json_decode", _decode_result, text)
        drifted = rec.call("sampling.sample", sample,
                           SampleConfig(1.2, 1.0, strip, sub_seed(seed, 1)))
        cut = rec.call("walks.cut_time_matching", walks.cut_time_matching, drifted)
        return Result(points=_points(ps, drifted), data=dict(
            ps=ps, m=m, arcs=arcs, disjoint=disjoint, planar=planar, profile=profile,
            text=text, decoded=decoded, drifted=drifted, cut=cut))

    def check(self, rec, r: Result) -> None:
        d = r.data
        ps, m = d["ps"], d["m"]
        _verdict(rec, "excursion arcs are disjoint", d["disjoint"])
        _verdict(rec, "excursion arcs are planar", d["planar"])
        back_ps, back_m = d["decoded"]
        rec.check("result JSON round trip",
                  back_m.edges == m.edges and np.array_equal(back_ps.reds, ps.reds)
                  and np.array_equal(back_ps.blues, ps.blues))
        p, q = m.endpoint_arrays()
        x_extent = math.fsum(np.abs(p[:, 0] - q[:, 0]))
        rec.check("crossing profile integrates to the edges' x-extent",
                  math.isclose(d["profile"].integral(), x_extent, rel_tol=REL_TOL,
                               abs_tol=REL_TOL))
        segments = sum(len(a.segments()) for a in d["arcs"])
        rec.add("sampling.points", r.points)
        rec.add("walks.edges", len(m.edges) + len(d["cut"].edges))
        rec.add("walks.arcs", len(d["arcs"]))
        rec.add("walks.cut_blocks", max(len(walks.cut_times(walks.build_walk(d["drifted"]))) - 1, 0))
        rec.add("verify.segments", segments)
        rec.add("cli.bytes_out", len(d["text"].encode()))
        rec.add("scale.points", _points(ps))
        rec.add("scale.segments", segments)

    def record(self, r: Result) -> dict:
        d = r.data
        return {"excursion": d["m"].to_json(), "arcs": [a.to_json() for a in d["arcs"]],
                "verdicts": [d["disjoint"].to_json(), d["planar"].to_json()],
                "profile_integral": d["profile"].integral(), "cut_time": d["cut"].to_json()}

    def extras(self, rec, seed: int) -> None:
        ps = sample(SampleConfig(1.0, 1.0, Domain.strip(0.0, self.length / 2), sub_seed(seed, 2)))
        m = walks.excursion_matching(ps)
        arcs = rec.call("scale.walks.polygonal_arcs.small", walks.polygonal_arcs, m, ps)
        rec.call("scale.verify.check_arc_disjointness.small", verify.check_arc_disjointness, arcs)
        rec.add("scale.points.small", _points(ps))
        rec.add("scale.segments.small", sum(len(a.segments()) for a in arcs))


def _encode_result(ps, m, arcs) -> str:
    return json.dumps({"points": ps.to_json(), "matching": m.to_json(),
                       "arcs": [a.to_json() for a in arcs]}, indent=1, sort_keys=True)


def _decode_result(text: str):
    d = json.loads(text)
    ps = ColoredPointSet.from_json(d["points"])
    return ps, Matching.from_json(d["matching"], ps.reds, ps.blues)


class ExactAssignment(Workload):
    name = "exact_assignment"
    nominal_s = 1.3
    side = 32.0  # about 1000 points per color
    # Zero-block cost follows the largest zero block, which is heavy-tailed:
    # one L=2000 strip took 0.02 s to 9.1 s over ten seeds. Short strips keep
    # the layer in the chain without letting one block set a run's time.
    strip_length = 500.0
    strips = 2
    scaling = (
        ("assignment.min_cost_perfect.scaling_exp", ("assignment.min_cost_perfect",),
         "scale.assignment.min_cost_perfect.small", "scale.pairs"),
    )

    def warm_up(self, rec) -> None:
        self.run(rec, 0, side=4.0, strip_length=20.0)

    def run(self, rec, seed: int, side: float = side, strip_length: float = strip_length) -> Result:
        window = Domain.plane(0.0, side, 0.0, side)
        ps = rec.call("sampling.sample", sample, SampleConfig(1.0, 1.0, window, seed))
        n = min(ps.n_red, ps.n_blue)
        perfect = rec.call("assignment.min_cost_perfect", min_cost_perfect,
                           ps.reds[:n], ps.blues[:n])
        partial = rec.call("assignment.max_cardinality_min_cost", max_cardinality_min_cost,
                           ps.reds, ps.blues)
        planar = rec.call("verify.check_planarity_chords", verify.check_planarity, perfect)
        eta = rec.call("verify.estimate_eta", verify.estimate_eta, [(ps, partial)])
        crossings = rec.call("verify.crossing_stats", verify.crossing_stats, partial,
                             [Disk(side / 2, side / 2, 1.0)])
        strips = []
        for part in range(self.strips):
            config = SampleConfig(1.0, 1.0, Domain.strip(0.0, strip_length),
                                  sub_seed(seed, 1, part))
            sps = rec.call("sampling.sample", sample, config)
            strips.append((sps, rec.call("walks.zero_block_matching",
                                         walks.zero_block_matching, sps)))
        return Result(points=_points(ps, *(s for s, _ in strips)), data=dict(
            ps=ps, n=n, perfect=perfect, partial=partial, planar=planar, eta=eta,
            crossings=crossings, strips=strips))

    def check(self, rec, r: Result) -> None:
        d = r.data
        ps, n, perfect, partial = d["ps"], d["n"], d["perfect"], d["partial"]
        _verdict(rec, "min-cost chords are planar", d["planar"])
        other = max_cardinality_min_cost(ps.reds[:n], ps.blues[:n]).total_length
        rec.check("min_cost_perfect and max_cardinality_min_cost agree on equal counts",
                  math.isclose(perfect.total_length, other, rel_tol=REL_TOL, abs_tol=REL_TOL),
                  f"{perfect.total_length!r} != {other!r}")
        rec.add("sampling.points", r.points)
        rec.add("assignment.calls", 2)
        rec.peak("assignment.largest_n", max(ps.n_red, ps.n_blue))
        rec.add("assignment.pairs", len(perfect.edges) + len(partial.edges))
        rec.add("verify.segments", len(perfect.edges))
        rec.add("scale.pairs", n)
        for sps, zb in d["strips"]:
            rec.add("walks.edges", len(zb.edges))
            _zero_blocks(rec, sps)

    def record(self, r: Result) -> dict:
        d = r.data
        return {"perfect": d["perfect"].to_json(), "partial": d["partial"].to_json(),
                "planarity": d["planar"].to_json(), "eta": d["eta"].to_json(),
                "crossings": d["crossings"].to_json(),
                "zero_block": [zb.to_json() for _, zb in d["strips"]]}

    def extras(self, rec, seed: int) -> None:
        side = self.side / math.sqrt(2.0)
        ps = sample(SampleConfig(1.0, 1.0, Domain.plane(0.0, side, 0.0, side), sub_seed(seed, 2)))
        n = min(ps.n_red, ps.n_blue)
        rec.call("scale.assignment.min_cost_perfect.small", min_cost_perfect,
                 ps.reds[:n], ps.blues[:n])
        rec.add("scale.pairs.small", n)


class HierarchyN5(Workload):
    name = "hierarchy_n5"
    nominal_s = 0.85
    levels = 5
    # The traced pass runs the stages one call at a time; together they do the
    # work of run_hierarchical, which the small size calls directly.
    scaling = (
        ("hierarchy.run_hierarchical.scaling_exp",
         ("hierarchy.init_state",) + tuple(f"hierarchy.stage{n}" for n in range(1, 6)),
         "scale.hierarchy.run_hierarchical.small", "scale.points"),
    )

    def warm_up(self, rec) -> None:
        for keep in (False, True):
            rec.keep = keep
            self.run(rec, 0, levels=2)
        rec.keep = False

    def run(self, rec, seed: int, levels: int = levels) -> Result:
        system = hierarchy.build_block_system(seed, levels)
        window = hierarchy.aligned_window(system)
        ps = rec.call("sampling.sample", sample, SampleConfig(1.0, 1.0, window, seed))
        if rec.keep:
            state = rec.call("hierarchy.init_state", hierarchy.init_state, ps, system)
            rec.call("hierarchy.stage1", hierarchy.stage1, state)
            for n in range(2, levels + 1):
                rec.call(f"hierarchy.stage{n}", hierarchy.run_stage, state, n)
            m = state.to_matching()
        else:
            m, _, state = rec.call("hierarchy.run_hierarchical", hierarchy.run_hierarchical,
                                   ps, seed, levels, system=system)
        box = rec.call("verify.box_rematch_experiment", verify.box_rematch_experiment,
                       ps, m, 6.0)
        return Result(points=_points(ps), data=dict(ps=ps, m=m, state=state, box=box))

    def check(self, rec, r: Result) -> None:
        d = r.data
        records = [b for level in d["state"].records for b in level]
        wrong = [b.key for b in records if b.unmatched != abs(b.n_red - b.n_blue)]
        rec.check("every block leaves |n_red - n_blue| points unmatched", not wrong, wrong[:3])
        box = d["box"]
        rec.check("box rematch never lengthens the matching",
                  box.length_after <= box.length_before + REL_TOL)
        upper = [b for b in records if b.key[0] >= 2]
        rec.add("sampling.points", r.points)
        rec.add("hierarchy.blocks", len(records))
        rec.add("hierarchy.bad_blocks", sum(b.bad for b in records))
        rec.add("hierarchy.unmatched", len(d["m"].unmatched_reds) + len(d["m"].unmatched_blues))
        rec.add("hierarchy.upper_blocks", len(upper))
        rec.add("hierarchy.ok_upper_blocks", sum(not b.bad for b in upper))
        rec.add("scale.points", r.points)

    def record(self, r: Result) -> dict:
        d = r.data
        levels = [[len(recs), sum(b.bad for b in recs), sum(b.dodgy for b in recs),
                   sum(b.unmatched for b in recs)] for recs in d["state"].records]
        box = d["box"]
        return {"matching": d["m"].to_json(), "levels": levels,
                "box_rematch": {"before": box.length_before, "after": box.length_after,
                                "matching": box.matching.to_json()}}

    def extras(self, rec, seed: int) -> None:
        levels = self.levels - 1
        small = sub_seed(seed, 2)
        system = hierarchy.build_block_system(small, levels)
        ps = sample(SampleConfig(1.0, 1.0, hierarchy.aligned_window(system), small))
        rec.call("scale.hierarchy.run_hierarchical.small", hierarchy.run_hierarchical,
                 ps, small, levels, system=system)
        rec.add("scale.points.small", _points(ps))

    def finish(self, busy: dict, counts: dict) -> dict:
        upper = counts.get("hierarchy.upper_blocks", 0)
        ratio = counts.get("hierarchy.ok_upper_blocks", 0) / upper if upper else 0.0
        return {**super().finish(busy, counts), "hierarchy.ok_block_ratio": ratio}


def _cli_chain(seed: int, d: str, tiny: bool = False):
    """The eight commands of one chain, named as in the ``cli.<cmd>`` metrics."""
    s = str(seed)

    def p(name):
        return os.path.join(d, name)

    window, stages, bands, band_window = ("0,10", "2", "1", "0,5") if tiny \
        else ("0,200", "4", "3", "0,100")
    return [
        ("sample", ["sample", "--seed", s, "--domain", "strip", "--window", window,
                    "--out", p("points.json")]),
        ("match_excursion", ["match", "--in", p("points.json"), "--construction", "excursion",
                             "--out", p("excursion.json")]),
        ("verify_planarity", ["verify", "--in", p("excursion.json"), "--property", "planarity",
                              "--out", p("planarity.json")]),
        ("verify_arcs", ["verify", "--in", p("excursion.json"), "--property", "arcs",
                         "--out", p("arcs.json")]),
        ("stats_eta", ["stats", "--in", p("excursion.json"), "--kind", "eta",
                       "--out", p("eta.json")]),
        ("render", ["render", "--in", p("excursion.json"), "--walk", "--out", p("excursion.svg")]),
        ("match_hierarchical", ["match", "--construction", "hierarchical", "--stages", stages,
                                "--seed", s, "--out", p("hierarchical.json")]),
        ("match_laminate", ["match", "--construction", "laminate", "--bands", bands,
                            "--window", band_window, "--seed", s, "--out", p("laminate.json")]),
    ]


CLI_OUTPUTS = ("points.json", "excursion.json", "planarity.json", "arcs.json", "eta.json",
               "excursion.svg", "hierarchical.json", "laminate.json")


def _run_python(args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


def _run_inproc(args) -> None:
    from poisson_matching.cli import main
    try:
        main.main(args=args, prog_name="poisson-matching", standalone_mode=False)
    except SystemExit as e:
        if e.code not in (0, None):
            raise RuntimeError(f"in-process command exited {e.code}") from None


def _read_outputs(d: str) -> dict:
    out = {}
    for name in CLI_OUTPUTS:
        with open(os.path.join(d, name)) as f:
            text = f.read()
        out[name] = json.loads(text) if name.endswith(".json") else text
    return out


class CliPipeline(Workload):
    name = "cli_pipeline"
    nominal_s = 5.8  # one chain of eight fresh-process commands
    rss_of_children = True

    def _fresh_dir(self, tag: str) -> str:
        d = os.path.join(self.workdir, tag)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def warm_up(self, rec) -> None:
        d = self._fresh_dir("warm_up")
        for _, args in _cli_chain(0, d, tiny=True):
            _run_inproc(args)
        shutil.rmtree(d)

    def run(self, rec, seed: int) -> Result:
        d = self._fresh_dir("chain")
        steps, codes = [], []
        for name, args in _cli_chain(seed, d):
            proc = rec.call(f"cli.{name}", _run_python, ["-m", "poisson_matching.cli", *args])
            steps.append(rec.last_s)
            codes.append((name, proc.returncode, proc.stderr[-500:]))
        return Result(steps=steps, data=dict(seed=seed, dir=d, codes=codes))

    def check(self, rec, r: Result) -> None:
        d = r.data
        for name, code, err in d["codes"]:
            rec.check(f"cli {name} exits 0", code == 0, err)
        out = _read_outputs(d["dir"])
        ref_dir = self._fresh_dir("reference")
        for name, args in _cli_chain(d["seed"], ref_dir):
            rec.call(f"cli.{name}.inproc", _run_inproc, args)
        ref = _read_outputs(ref_dir)
        for name in CLI_OUTPUTS:
            rec.check(f"cli {name} equals the in-process output", same(out[name], ref[name]))
        for name in ("planarity.json", "arcs.json"):
            rec.check(f"cli {name} reports a pass", out[name]["pass"] is True)
        m = walks.excursion_matching(ColoredPointSet.from_json(out["points.json"]))
        rec.check("cli excursion edges equal the API's",
                  [list(e) for e in m.edges] == out["excursion.json"]["matching"]["edges"])
        r.points = sum(len(p["reds"]) + len(p["blues"]) for p in (
            out["points.json"], out["hierarchical.json"]["points"],
            out["laminate.json"]["points"]))
        rec.add("sampling.points", r.points)
        rec.add("cli.bytes_out", sum(os.path.getsize(os.path.join(d["dir"], n))
                                     for n in CLI_OUTPUTS))
        d["outputs"] = {n: v for n, v in out.items() if n.endswith(".json")}
        shutil.rmtree(d["dir"])
        shutil.rmtree(ref_dir)

    def record(self, r: Result) -> dict:
        return r.data["outputs"]

    def extras(self, rec, seed: int) -> None:
        proc = rec.call("cli.import", _run_python, ["-c", "import poisson_matching.cli"])
        rec.check("poisson_matching.cli imports", proc.returncode == 0, proc.stderr[-500:])


WORKLOADS = {w.name: w for w in (StripArcs, ExactAssignment, HierarchyN5, CliPipeline)}
