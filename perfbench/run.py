"""Seeded benchmark of poisson_matching, run from the root of a checkout:

    python3 perfbench/run.py --workload strip_arcs --seed 0 --seconds 20 --trace 0

``--workload all`` runs every workload in turn. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``). A
table of the same metrics, with error_rate = failed / attempted, goes to
standard error. Load model: closed loop, one client; each workload runs in
one fresh worker process, which makes its calls one after another.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # extra fresh workers that only set up; setup_s is the median
RUN_TIMEOUT_S = 170


def environment() -> dict:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "nproc": os.cpu_count(),
        "mem_total_gb": round(pages / 2**30, 1),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def note_environment_change(live: dict) -> None:
    with open(HERE / "environment.json") as f:
        recorded = json.load(f)
    changed = {k: (recorded.get(k), v) for k, v in live.items() if recorded.get(k) != v}
    if changed:
        print(f"environment differs from perfbench/environment.json: {changed}",
              file=sys.stderr)


def pin_to_one_cpu() -> None:
    """Keep the harness, its workers and their CLI children on one CPU, so
    that the speed-gauge loops run where the timed calls run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def worker(args, env, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, env, workdir, deadline) -> dict:
    base = ["--workload", name, "--workdir", workdir]
    setups = [] if trace else [worker(base + ["--setup-only"], env, deadline)["setup_s"]
                               for _ in range(SETUP_PROBES)]
    run = ["--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        run += ["--spans", str(BUILD / f"spans_{name}_{seed}.json")]
    out = worker(base + run, env, deadline)
    if trace:
        values = out["per_layer"]
    else:
        setups.append(out["setup_s"])
        values = {  # with no instance completed, the run reports zeros
            "wall_s": out["wall_s"],
            "points_per_s": out["points"] / out["wall_s"] if out["wall_s"] else 0.0,
            "cmd_p50_s": statistics.median(out["steps"]) if out["steps"] else 0.0,
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
    return {"attempted": out["attempted"], "failed": out["failed"], "values": values}


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "poisson_matching" / "__init__.py").is_file():
        print(f"no package source under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("the package does not compile", file=sys.stderr)
        return 2
    live = environment()
    note_environment_change(live)
    pin_to_one_cpu()
    env = {**os.environ, **live["threads"], "PYTHONPATH": str(SRC)}
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    deadline = time.monotonic() + RUN_TIMEOUT_S * (len(names) if args.workload == "all" else 1)
    BUILD.mkdir(parents=True, exist_ok=True)
    results = {}
    with tempfile.TemporaryDirectory(dir=BUILD) as workdir:
        for name in names if args.workload == "all" else [args.workload]:
            try:
                results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                             env, workdir, deadline)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
                print(f"{name}: {e}", file=sys.stderr)
                return 1
    metrics = {}
    for name, r in results.items():
        prefix = "" if args.workload != "all" else name + "."
        print(f"{name}: error_rate {r['failed'] / max(r['attempted'], 1):.6f} ratio "
              f"({r['failed']} of {r['attempted']} operations failed)", file=sys.stderr)
        for spec in specs:
            value = float(r["values"].get(spec["name"], 0.0))
            metrics[prefix + spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"{name}: {spec['name']} {value:.6g} {spec['unit']}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
