"""Rewrite golden.json and environment.json from the current checkout.

    PYTHONPATH=src python3 perfbench/make_golden.py

golden.json holds, for seeds 0-9 and every workload, the fingerprint of
instance 0's outputs: the SHA-256 of their discrete part (edge lists,
unmatched indices, verdicts, per-level bad and dodgy counts) and the count
and absolute sum of their floats. Rewrite it only when a change is meant to
alter outputs, and say which in CHANGES.md.

environment.json records the machine (versions, CPUs, memory, thread
settings) and ``calibration``, the median times of the two loops in spans.py
on it: the reference speed that every reported time is scaled to.
"""

import json
import os
import statistics
import sys
import tempfile

from run import HERE, environment, pin_to_one_cpu
from spans import Recorder, SpeedGauge, interpreter_loop
from workloads import WORKLOADS, fingerprint, sub_seed

SEEDS = range(10)
CALIBRATIONS = 1001


def main() -> int:
    pin_to_one_cpu()
    gauge = SpeedGauge({"interpreter_s": 1.0, "memory_s": 1.0})
    seeds = {}
    with tempfile.TemporaryDirectory() as workdir:
        for seed in SEEDS:
            for name, cls in WORKLOADS.items():
                wl = cls(workdir)
                rec = Recorder(keep=False, gauge=gauge)
                result = wl.run(rec, sub_seed(seed, 0))
                wl.check(rec, result)
                if rec.failed:
                    print(f"{name} seed {seed}: checks failed", file=sys.stderr)
                    return 1
                seeds.setdefault(str(seed), {})[name] = fingerprint(wl.record(result))
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        json.dump({"seeds": seeds}, f, indent=1, sort_keys=True)
        f.write("\n")
    with open(os.path.join(HERE, "environment.json"), "w") as f:
        calibration = {
            "interpreter_s": statistics.median(interpreter_loop() for _ in range(CALIBRATIONS)),
            "memory_s": statistics.median(gauge.memory_loop() for _ in range(CALIBRATIONS)),
        }
        json.dump({**environment(), "calibration": calibration}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
