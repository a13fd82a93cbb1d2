"""Machine-speed probe: a fixed kernel timed between the benchmark's operations.

On a shared host the speed of one core can switch between regimes about 1.4x
apart, for seconds to minutes at a time, whatever runs on it. Raw times then
say more about the host than about the program. The probe runs a fixed
numpy and Python kernel, with the same kinds of work as the program (small
matrix products and interpreter overhead as in a training step, elementwise
passes over an 8 MB array as in long-input attention), at least every
``interval_s`` seconds, between operations and never inside one. The
garbage collector is off during a probe, so a collection of the program's
objects is never charged to the probe.

Every time the benchmark reports is scaled to a nominal host on which one
probe takes ``NOMINAL_MS``::

    scaled = raw * NOMINAL_MS / probe_ms

where ``probe_ms`` is the median of the probes taken within ``window_s``
seconds of the timed interval, and at least the nearest one on each side. The kernel lives in the benchmark,
not in the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

NOMINAL_MS = 20.0
ITERATIONS = 400
_rng = np.random.default_rng(0x5EED)
_X = _rng.normal(size=(32, 64))
_W = _rng.normal(size=(64, 64)) / 8.0
_P = _rng.normal(size=(1000, 1000))


def kernel() -> float:
    """The fixed work of one probe; returns a checksum so nothing is skipped."""
    h = _X
    total = 0.0
    for _ in range(ITERATIONS):
        h = np.tanh(h @ _W)
        s = h.sum(axis=1, keepdims=True)
        h = h - s / h.shape[1]
        total += float(s[0, 0])
    scores = np.exp(-np.abs(_P))
    scores /= scores.sum(axis=1, keepdims=True)
    return total + float(scores[0].sum())


class SpeedProbe:
    def __init__(self, interval_s: float = 0.25, window_s: float = 1.0) -> None:
        self.interval_s = interval_s
        self.window_s = window_s
        self.times: list[float] = []  # perf_counter at the middle of each probe
        self.ms: list[float] = []
        self.checksum: float | None = None

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            checksum = kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        if self.checksum is None:
            self.checksum = checksum
        elif checksum != self.checksum:
            raise RuntimeError("speed probe kernel gave another result")
        self.times.append((start + end) / 2)
        self.ms.append((end - start) * 1e3)

    def warm(self, count: int = 5) -> None:
        for _ in range(count):
            self.sample()
        self.times.clear()
        self.ms.clear()

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.interval_s:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_MS over the probe time around ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - self.window_s)
        hi = bisect.bisect_right(self.times, end + self.window_s)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, bisect.bisect_right(self.times, end) + 1)
        around = self.ms[lo:hi]
        if not around:
            raise RuntimeError("no speed probe was taken around a timed interval")
        return NOMINAL_MS / statistics.median(around)
