"""Host speed, sampled all through a run, to put its timings on one scale.

On a shared host the same single-threaded code runs up to 1.7 times
slower from one ten-second window to the next, while the process loses
almost no time to the hypervisor, so CPU time drifts with wall time.  Across runs of
the benchmark on a 2-vCPU x86-64 VM this gave run-to-run spreads of 10 to
37 % of the median.

While a run is open, a SIGALRM timer runs a fixed reference kernel
(sparse integer polynomial products, the library's commonest work) every
INTERVAL_S seconds, between two bytecodes of whatever is running, and
records how long the kernel took.  `scaled` multiplies an interval's wall
time by REFERENCE_S over the median kernel time in and around the
interval: the seconds the interval would take on a host where the kernel
takes REFERENCE_S.  On the same VM this brought the spreads down to 3 to
13 %.  The raw wall-clock times stay in each run's record.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.02
REFERENCE_S = 100e-6
MIN_SAMPLES = 25  # an interval shorter than this many samples is widened

_A = {(0, 0): 1, (1, 0): -1, (0, 1): 2, (1, 1): 3, (2, 1): -2}
_B = {(0, 0): 1, (0, 2): -1, (2, 0): 1, (1, 2): 4}


def _kernel() -> dict:
    out = _A
    for _ in range(3):
        product: dict = {}
        for (a, b), c in out.items():
            for (d, e), g in _B.items():
                key = (a + d, b + e)
                product[key] = product.get(key, 0) + c * g
        out = product
    return out


class SpeedSampler:
    """Context manager that samples the kernel while it is open; `scaled`
    is for after it has closed."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.sort()  # a handler can interrupt an earlier one
        self.starts = [s for s, _ in self.samples]
        self.durations = [d for _, d in self.samples]

    def scaled(self, start: float, end: float) -> float:
        """Seconds from `start` to `end` at the reference speed; the raw
        seconds if no sample was taken."""
        i, j = bisect_left(self.starts, start), bisect_right(self.starts, end)
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.starts)):
            i, j = max(0, i - 1), min(len(self.starts), j + 1)
        if i == j:
            return end - start
        return (end - start) * REFERENCE_S / statistics.median(self.durations[i:j])
