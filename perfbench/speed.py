"""Sample how fast this machine runs Python code while a workload runs.

On a shared host the speed of a core swings by up to a factor of two, in
phases from a fraction of a second to minutes, so raw times of identical
runs differ by 30 % or more. `Sampler` interrupts the timed work every
`INTERVAL_S` seconds (SIGALRM) and times a fixed piece of pure-Python work
(`probe_work`, independent of masscap) in the handler. The mean of those
samples is the machine's speed over exactly the timed interval; `scaled`
turns a raw time into seconds at the reference speed. The handler's own
time is counted in `spent` and taken out of the raw time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

# Seconds `probe_work` takes at the reference speed, about its time inside
# the sampler on the 2-vCPU Xeon host the baseline was measured on.
PROBE_REF_S = 0.0005
# Seconds between two samples: about 1 % of the timed work goes to probing.
INTERVAL_S = 0.05


def probe_work() -> float:
    """A fixed mix of float arithmetic, calls and branches (about 0.5 ms)."""
    acc = 0.0
    for i in range(1000):
        x = (i % 40) * 0.1
        if x < 1.0:
            y = x**3 / 6.0
        elif x < 3.0:
            y = (-3.0 * (x - 1.0) ** 3 + 3.0 * (x - 1.0) ** 2 + 3.0 * (x - 1.0) + 1.0) / 6.0
        else:
            y = (4.0 - x) ** 3 / 6.0
        acc += math.exp(-x) * y
    return acc


class Sampler:
    """Context manager: samples `probe_work` every `INTERVAL_S` seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_work()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, seconds: float) -> float:
        """Seconds at the reference speed for raw work time measured under this sampler."""
        if not self.samples:  # too short to be interrupted: sample once now
            self._tick(None, None)
        return seconds * PROBE_REF_S / statistics.fmean(self.samples)
