"""Operation counting, speed-scaled timing and in-memory spans around the
benchmark's calls into the package.

Every call made through a Recorder counts as one attempted operation. A
recorder made with ``keep=True`` also keeps one span per call (name, start,
end, parent span, instance id, speed scale); spans stay in memory until
``dump``.

The reference machine is a shared host whose speed drifts: the same call
takes up to ±30% longer from one 5-second window to the next, in CPU time as
well as wall time. Two fixed loops slow down with it when they run on the
same CPU: an interpreter-bound one tracks the Python-heavy calls
(correlation 0.9 with the assignment solve), and a pass over a 2 MB array
tracks the numpy-heavy ones (the dense verifiers). Each call is bracketed by
both, and its time is divided by the machine's slowness, the mean ratio of
the loops' times to their reference times in environment.json: the result
is the time the call would take at the speed the machine had then. A change
to the package cannot move the loops, which import nothing from it.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from contextlib import contextmanager

CALIBRATION_LOOPS = 4000


def interpreter_loop() -> float:
    """Seconds taken by a fixed interpreter-bound loop (about 1 ms)."""
    enabled = gc.isenabled()
    gc.disable()  # the package's garbage must not be collected in here
    try:
        t0 = time.perf_counter()
        d: dict = {}
        s = 0.0
        for i in range(CALIBRATION_LOOPS):
            k = i % 97
            d[k] = d.get(k, 0.0) + i * 0.5
            s += d[k]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """The machine's slowness relative to ``reference``, a dict of the loops'
    reference times (``interpreter_s``, ``memory_s``)."""

    def __init__(self, reference: dict):
        import numpy as np  # the worker's set-up has imported it already

        self.reference = reference
        self.array = np.random.default_rng(0).random((512, 512))

    def memory_loop(self) -> float:
        """Seconds taken by two whole-array passes over 2 MB (a few ms)."""
        a = self.array
        t0 = time.perf_counter()
        abs(a - a.T).sum()
        (a > 0.5).sum()
        return time.perf_counter() - t0

    def slowness(self) -> float:
        return (interpreter_loop() / self.reference["interpreter_s"]
                + self.memory_loop() / self.reference["memory_s"]) / 2.0


class Recorder:
    def __init__(self, keep: bool, gauge: SpeedGauge):
        self.keep = keep
        self.gauge = gauge
        self.spans = []  # [name, start, end, parent index or None, instance, scale]
        self.counts = {}
        self.attempted = 0
        self.failed = 0
        self.instance = None
        self.raw_s = 0.0  # summed duration of the calls
        self.scaled_s = 0.0  # the same, each call scaled to the reference speed
        self.calibration_s = 0.0  # time spent measuring the slowness
        self.last_s = 0.0  # scaled duration of the latest call
        self._open = []

    @contextmanager
    def span(self, name: str):
        if not self.keep:
            yield None
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.instance, 1.0])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def _slowness(self) -> float:
        t0 = time.perf_counter()
        slowness = self.gauge.slowness()
        self.calibration_s += time.perf_counter() - t0
        return slowness

    def call(self, name: str, fn, *args, **kwargs):
        """One operation: ``fn(*args, **kwargs)`` inside a span called ``name``."""
        self.attempted += 1
        before = self._slowness()
        with self.span(name) as index:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            raw = time.perf_counter() - t0
        scale = 2.0 / (before + self._slowness())
        self.raw_s += raw
        self.last_s = raw * scale
        self.scaled_s += self.last_s
        if index is not None:
            self.spans[index][5] = scale
        return result

    def timed(self, fn, *args):
        """(result, seconds): the wall time of ``fn(*args)`` less the
        slowness measurements inside it, scaled by the mean scale of its calls
        weighted by their duration."""
        raw0, scaled0, calibration0 = self.raw_s, self.scaled_s, self.calibration_s
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0 - (self.calibration_s - calibration0)
        raw = self.raw_s - raw0
        scale = (self.scaled_s - scaled0) / raw if raw > 0 else 1.0
        return result, elapsed * scale

    def check(self, what: str, ok: bool, detail="") -> bool:
        """One operation: an output check. A failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what} {detail}".rstrip(), file=sys.stderr)
        return ok

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def busy(self) -> dict:
        """Summed scaled duration per span name."""
        out = {}
        for name, start, end, _, _, scale in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) * scale
        return out

    def self_times(self) -> dict:
        """Summed self time per span name: duration minus the time covered by
        child spans (children of one span never overlap). Not scaled."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = {}
        for span, t in zip(self.spans, own):
            out[span[0]] = out.get(span[0], 0.0) + t
        return out

    def dump(self, path, **header) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({
                **header,
                "self_s": self.self_times(),
                "spans": [{"name": n, "start_s": s - origin, "end_s": e - origin,
                           "parent": p, "instance": i, "scale": c}
                          for n, s, e, p, i, c in self.spans],
            }, f, indent=1, sort_keys=True)
