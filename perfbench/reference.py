"""Machine speed, measured by timing a fixed reference work during the run.

The benchmark's 2-CPU box shares its cores with other tenants, and its
speed drifts by +-25% over tens of seconds: a CPU-bound loop timed in 5 s
windows ranged from 17 to 31 ms per unit within one minute, and a
verification call of the program spread 15% from window to window.  The
same call divided by the reference work timed next to it on the same CPU
spread 2-5%.  Timing the reference on the other CPU does not help (8.6%):
the drift belongs to each CPU.

So a profiling timer interrupts the run every ``SAMPLE_INTERVAL_S`` of CPU
time and times the reference work there, also in the middle of a long
request.  The time the samples take is kept out of the request timings by
``ReferenceSampler.now``, a clock that stands still while a sample runs.
Samples taken only between cycles do not track the drift, which changes
within seconds: with the mean of the samples right before and after each
cycle (each repeating the work for 5% of the cycle's time), ``wide``'s
``cycle_ref.p50`` spread 12.8% over five seeds, against 2.3% with the
samples taken inside the cycles.

The reference work is fixed here and does not use the program under test,
so it means the same on every commit.  It mixes what the program does:
Python-level loops over complex scalars, small numpy array operations and
a small LAPACK call.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

#: CPU seconds between two samples; each sample costs about 10 ms.
SAMPLE_INTERVAL_S = 0.25
#: A cycle with no sample inside it uses the samples this close to it.
MARGIN_S = 0.5
_UNITS = 100

_POINTS = np.exp(2j * np.pi * np.arange(128) / 128) * 0.6
_MATRIX = np.eye(6) + 0.1 * np.arange(36).reshape(6, 6) / 36
_COEFFS = tuple(complex(k, -k) / (k + 1) for k in range(24))


def _unit() -> float:
    acc = np.zeros_like(_POINTS)
    for c in reversed(_COEFFS):
        acc = acc * _POINTS + c
    a = list(_COEFFS)
    for j in range(len(a) - 1):
        for i in range(len(a) - 2, j - 1, -1):
            a[i] = a[i] + 0.1 * a[i + 1]
    det = np.linalg.det(_MATRIX)
    return float(np.max(np.abs(acc))) + abs(a[0]) + abs(det)


def reference_work() -> float:
    """The fixed work whose duration is one reference unit ('ref')."""
    return sum(_unit() for _ in range(_UNITS))


def reference_seconds(repeats: int) -> float:
    """Mean seconds of one reference work over ``repeats`` back to back."""
    start = perf_counter()
    for _ in range(repeats):
        reference_work()
    return (perf_counter() - start) / repeats


class ReferenceSampler:
    """Samples of the reference work's duration, taken on a profiling timer.

    Between ``start`` and ``stop`` the process receives SIGPROF every
    ``SAMPLE_INTERVAL_S`` of CPU time; the handler times one reference work
    and records when it ran.  A single sample jitters by +-30%, so a cycle is
    set against the mean of the samples inside it (or near it), and the
    benchmark reports medians over many cycles.
    """

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._stolen = 0.0
        self._busy = False

    def now(self) -> float:
        """``perf_counter`` less the time spent in samples so far."""
        return perf_counter() - self._stolen

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        try:
            reference_work()
            self.seconds.append(perf_counter() - start)
            self.times.append(start)
        finally:
            self._stolen += perf_counter() - start
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def around(self, start: float, end: float) -> float:
        """Mean duration of the samples within [start, end], or near it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi == lo:
            lo = bisect.bisect_left(self.times, start - MARGIN_S)
            hi = bisect.bisect_right(self.times, end + MARGIN_S)
        near = self.seconds[lo:hi]
        if not near:
            i = bisect.bisect(self.times, start)
            near = self.seconds[max(0, i - 1): i + 1]
        return sum(near) / len(near)
