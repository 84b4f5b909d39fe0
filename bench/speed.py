"""Host speed meter: a fixed reference loop timed on a wall-clock timer.

The benchmark runs on virtual CPUs shared with other tenants, which moves
its times in two ways. The hypervisor takes the vCPU away for milliseconds
at a time (steal time, up to 17% of a vCPU in 20-second windows), and the
speed of the vCPU while it runs moves by up to 2x within a second. Raw wall
times of the same code, their medians and their minima, therefore move by
17-45% between runs.

Both are measured here, inside the benchmark's own process. Spans are timed
in process CPU time, which excludes steal: the jobs never block (wall minus
CPU time stayed below 0.3 ms per job when there was no steal), so on an
unshared CPU their wall time is their CPU time. For the speed,
``SpeedMeter`` runs ``reference_work`` from a SIGALRM handler every
``PERIOD`` seconds, on the same vCPU as the job it interrupts, and keeps
``REFERENCE_SECONDS / (CPU time the loop took)`` as one speed sample. A
span's time at reference speed is its CPU time, minus the handler's own, times
the mean of the samples taken inside it. On the defining host, interleaved
raw times spread by 17-30% between 25-second windows while their ratio to
such a reference spread by 2%.

The reference loop is the benchmark's own code and never calls shadowlab,
so a change to the library moves the measured times and not the scale.
"""

from __future__ import annotations

import signal
import statistics
from time import process_time

PERIOD = 0.0025
# Scale of the reported times: what reference_work() took at the defining
# host's typical speed. A fixed constant, so values stay in seconds.
REFERENCE_SECONDS = 75e-6
_TABLE = [((i * 37) % 101) / 101.0 for i in range(64)]


def reference_work(n: int = 100) -> float:
    """Fixed pure-Python work (float arithmetic, indexing, dict updates)."""
    table = _TABLE
    acc = 0.0
    seen = {}
    for i in range(n):
        x = (i * 0.6180339887498949 + acc) % 1.0
        k = int(x * 64)
        acc = (acc + table[k] * x) % 1.0
        seen[k] = seen.get(k, 0) + 1
    return acc + len(seen)


class SpeedMeter:
    """Speed samples from a SIGALRM timer; use as a context manager."""

    def __init__(self):
        self.speeds = []
        self.busy = 0.0  # CPU seconds spent inside the handler so far
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = process_time()
        reference_work()
        took = process_time() - start
        self.speeds.append(REFERENCE_SECONDS / took)
        self.busy += process_time() - start

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        return process_time(), self.busy, len(self.speeds)

    def since(self, mark: tuple) -> tuple:
        """(CPU seconds since `mark` minus handler time, speed samples taken since)."""
        start, busy, index = mark
        elapsed = process_time() - start
        return elapsed - (self.busy - busy), self.speeds[index:]

    def mean_speed(self) -> float:
        return statistics.fmean(self.speeds) if self.speeds else 1.0


def at_reference_speed(seconds: float, speeds: list, fallback: float) -> float:
    """CPU seconds rescaled by the mean speed sampled over them."""
    return seconds * (statistics.fmean(speeds) if speeds else fallback)
