"""One run of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --workdir DIR --seed N --seconds S [--spans FILE]
    python3 perfbench/worker.py --workload NAME --workdir DIR --setup-only

Set-up is everything from the start of this file to ready: importing
poisson_matching, then one warm-up call of every public function the
workload uses, on a tiny input. The timed section is the sum of the
instances' call chains; checks run outside it. Times are divided by the
machine's slowness against the reference times in environment.json (see
spans.py). run.py sets PYTHONPATH to the
checkout's src/, pins the BLAS thread counts and the CPU before starting
this.
"""

import time

from spans import Recorder, SpeedGauge, interpreter_loop

INTERPRETER_AT_START = interpreter_loop()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import (WORKLOADS, fingerprint, matches_golden, normalized, same,  # noqa: E402
                       sub_seed)

HERE = os.path.dirname(os.path.abspath(__file__))


def golden_for(seed: int, workload: str):
    with open(os.path.join(HERE, "golden.json")) as f:
        return json.load(f)["seeds"].get(str(seed), {}).get(workload)


def run_instance(wl, rec, seed: int):
    """(chain seconds, result, normalized record), or None after a failure."""
    try:
        with rec.span("instance"):
            result, elapsed = rec.timed(wl.run, rec, seed)
        wl.check(rec, result)
        return elapsed, result, normalized(wl.record(result))
    except Exception:  # one failed instance must not end the run
        traceback.print_exc()
        rec.check("instance completes", False)
        return None


def measure(wl, seed: int, seconds: float, spans_path, gauge: SpeedGauge) -> dict:
    """The untraced run times every instance once. The traced run takes half
    as many instances and runs each untraced and traced, alternating which
    goes first, so that their difference is the tracing overhead."""
    trace = spans_path is not None
    plain = Recorder(keep=False, gauge=gauge)
    traced = Recorder(keep=True, gauge=gauge)
    count = wl.instances(seconds)
    if trace:
        count = math.ceil(count / 2)
    wall = {False: 0.0, True: 0.0}
    steps, points = [], 0
    golden = golden_for(seed, wl.name)
    for k in range(count):
        seed_k = sub_seed(seed, k)
        passes = [plain] if not trace else [plain, traced] if k % 2 == 0 else [traced, plain]
        records = {}
        for rec in passes:
            rec.instance = k
            done = run_instance(wl, rec, seed_k)
            if done is None:
                continue
            elapsed, result, records[rec.keep] = done
            wall[rec.keep] += elapsed
            if not rec.keep:
                steps.extend(result.steps or [elapsed])
                points += result.points
        if k == 0 and golden is not None:
            plain.check("outputs match the golden digest",
                        False in records and matches_golden(fingerprint(records[False]), golden),
                        "(instance 0 of this seed)")
        if trace:
            traced.check("traced pass reproduces the untraced outputs",
                         len(records) == 2 and same(records[False], records[True]))
            try:
                wl.extras(traced, seed_k)
            except Exception:
                traceback.print_exc()
                traced.check("scaling and import probes complete", False)
    usage = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    out = {
        "wall_s": wall[False],
        "points": points,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
    }
    if trace:
        busy = traced.busy()
        out["per_layer"] = {
            **{f"{name}_s": t for name, t in busy.items()},
            **traced.counts,
            **wl.finish(busy, traced.counts),
            "trace.overhead_s": wall[True] - wall[False],
        }
        traced.dump(spans_path, workload=wl.name, seed=seed, untraced_wall_s=wall[False],
                    traced_wall_s=wall[True])
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", default=None,
                    help="trace the run and write its spans to this file")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(HERE, "environment.json")) as f:
        reference = json.load(f)["calibration"]
    gauge = SpeedGauge(reference)
    wl = WORKLOADS[args.workload](args.workdir)
    warm = Recorder(keep=False, gauge=gauge)
    try:
        wl.warm_up(warm)
    except Exception:  # a broken package is a failed operation, not a crash
        traceback.print_exc()
        warm.check("warm-up completes", False)
    setup = time.perf_counter() - START
    # Only the interpreter loop can run before numpy is imported.
    slowness = (INTERPRETER_AT_START + interpreter_loop()) / (2.0 * reference["interpreter_s"])
    out = {"setup_s": setup / slowness}
    if not args.setup_only:
        out.update(measure(wl, args.seed, args.seconds, args.spans, gauge))
        out["attempted"] += warm.attempted
        out["failed"] += warm.failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
