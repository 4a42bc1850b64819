"""Machine-speed probe: turns wall times into reference-speed seconds.

The benchmark runs on shared virtual machines whose speed swings by up to
1.75x within tens of milliseconds, as other tenants load the host (a fixed
loop of Fraction arithmetic was measured at 2.5 ms and 4.4 ms back to
back).  Medians over a run cannot remove that: one run may spend most of
its time in the slow state and the next in the fast one.

While the benchmark runs, a timer signal interrupts the main thread every
``INTERVAL_S`` and times two fixed loops: big-rational arithmetic, the
kind of work the exact paths do, and small numpy eigensolves, which the
float searches do between Python steps.  The two slow down by different
amounts (in one 90 s sample the numpy loop's log-time moved 0.70 times as
much as the Fraction loop's), so each job kind is scaled by the loop that
resembles it.  A job's wall time, minus the probe's own time inside it, is
divided by the mean probe time during the job over that loop's reference
time: the result is the job's duration at the speed at which the loop
takes its reference time.  The probe touches no program objects and costs
about 4% of each job, the same on every commit.  Worker processes started
by the program do not inherit the timer.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.05
FRACTION_REFERENCE_S = 0.0011
NUMPY_REFERENCE_S = 0.001
_SYMMETRIC = np.add.outer(np.arange(12.0), np.arange(12.0)) % 7 + np.eye(12)


def fraction_work() -> None:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)


def numpy_work() -> None:
    for _ in range(30):
        np.linalg.eigh(_SYMMETRIC)


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.fraction: list[float] = []
        self.numpy: list[float] = []
        self.busy: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        fraction_work()
        middle = time.perf_counter()
        numpy_work()
        end = time.perf_counter()
        self.starts.append(start)
        self.fraction.append(middle - start)
        self.numpy.append(end - middle)
        self.busy.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float, numpy_bound: bool = False
                  ) -> tuple[float, float]:
        """(reference-speed seconds, speed factor) for the interval.

        The factor is the mean probe time inside the interval over the
        reference time; an interval too short to hold a probe uses the
        probes just before and after it.
        """
        series, reference = (self.numpy, NUMPY_REFERENCE_S) if numpy_bound \
            else (self.fraction, FRACTION_REFERENCE_S)
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi > lo:
            probe = sum(series[lo:hi]) / (hi - lo)
            busy = sum(self.busy[lo:hi])
        else:
            around = series[max(lo - 1, 0):lo + 1]
            probe = sum(around) / len(around)
            busy = 0.0
        factor = probe / reference
        return (end - start - busy) / factor, factor
