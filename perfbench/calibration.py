"""Host-speed calibration for the benchmark's timings.

The host this benchmark was tuned on is a shared 2-CPU VM whose speed
drifts by up to 2x within seconds, because of neighbouring load.  So every
job is timed together with ``sample()``, a fixed loop of exact rational
arithmetic (the kind of work the package does), run just before the job,
every INTERVAL_S during it (from a SIGALRM handler) and just after it.
Timings are reported in reference seconds: measured seconds, less the
handler's own time, scaled by NOMINAL_S over the mean sample.  On that host
this cut the spread of 3 s windows of repeated jobs from 18-41% (raw) to
1-4%.  The loop is benchmark code, so a change to the package cannot move
it; raw timings are printed beside the scaled ones.

The loop allocates Fractions, which the garbage collector tracks, so a run
whose collector counts must be exact samples only around its jobs
(``interval_s=None``), never inside them.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

ITERATIONS = 50
# Duration of one sample at reference speed (about the median on a
# 2-CPU Intel Xeon VM under Python 3.11).
NOMINAL_S = 0.0004
INTERVAL_S = 0.02


def sample() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    acc = Fraction(1)
    for i in range(1, ITERATIONS):
        acc = acc * Fraction(65537 + i, 129 + i) + 1
    return time.perf_counter() - start


def to_reference(seconds: float, speed_s: float) -> float:
    """``seconds`` measured while samples averaged ``speed_s``, at
    reference speed."""
    return seconds * NOMINAL_S / speed_s


class Speedometer:
    """Samples the host's speed before and after a block, and every
    ``interval_s`` during it unless that is None.

    ``spent`` is the time the in-block samples took, to be subtracted from
    the block's measured time; ``speed_s`` is the mean sample.
    """

    def __init__(self, interval_s: float | None = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Speedometer":
        self.samples.append(sample())
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())

    @property
    def speed_s(self) -> float:
        return statistics.fmean(self.samples)
