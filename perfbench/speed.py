"""Machine-speed probe: seconds measured now, expressed at reference speed.

On a shared host the machine's speed drifts.  The same operation
alternates between speeds up to ~1.6x apart, some held for seconds to a
minute and some for well under a second.  A median over 10 s of operations
then lands on whichever speed held during the run, and run-to-run spreads
reach 30 %.

The probe runs a fixed reference kernel every ``PERIOD`` seconds from a
SIGALRM timer, and once right after every interval that ``timed``
measures, and records how long it took.  ``scale(t0, t1)`` is ``REF_S``
over the median kernel time within ``WINDOW`` of that interval: the
samples taken inside it and those right before and after it, raised to
the probe's ``exponent``.  Multiplying a time measured in the interval by
it gives the time at the speed where the kernel takes ``REF_S``.  The
exponent is how strongly the measured work follows the kernel: 1 for
interpreter-bound work like the kernel's own, less for work that spends
much of its time in numpy's array loops, which slow down less than the
interpreter when the host does.  The kernel's own time is recorded in
``spent`` so that callers can remove it from what it interrupted.  The
kernel is benchmark code, so no change to the package can move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PERIOD = 0.2  # seconds between samples
WINDOW = 0.01  # samples starting this close to an interval set its scale
REF_S = 1e-3


def reference_kernel(a):
    """Dict-keyed small-array arithmetic and a float loop, the mix the
    package's jets run; about 1 ms on a 2-vCPU Xeon virtual machine."""
    acc = {}
    for i in range(300):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0.0) + a * 1.0001
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    return s


class SpeedProbe:
    """Context manager sampling the reference kernel while it is open; the
    times it scales move as the kernel's time to the power ``exponent``."""

    def __init__(self, exponent=1.0):
        self.exponent = exponent
        self.times = []  # start of each sample
        self.costs = []  # kernel seconds of each sample
        self.spent = 0.0
        self._a = np.linspace(0.0, 1.0, 196) + 0j
        self._previous = None
        self._sampling = False

    def sample(self):
        self._sampling = True
        t0 = perf_counter()
        reference_kernel(self._a)
        dt = perf_counter() - t0
        self.times.append(t0)
        self.costs.append(dt)
        self.spent += dt
        self._sampling = False

    def _on_alarm(self, signum, frame):
        if not self._sampling:  # never time the kernel inside itself
            self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0, t1):
        """REF_S over the median kernel time from t0 - WINDOW to t1 + WINDOW
        (the nearest sample when none falls there), to the exponent."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t1 + WINDOW)
        window = self.costs[lo:hi] or [self.costs[min(lo, len(self.costs) - 1)]]
        return (REF_S / statistics.median(window)) ** self.exponent

    def timed(self, fn, *args):
        """(result, Interval) of fn(*args), followed by one sample; between
        back-to-back calls that sample is also the one right before the
        next interval."""
        spent0, t0 = self.spent, perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        interval = Interval(t0, t1, (t1 - t0) - (self.spent - spent0))
        self.sample()
        return result, interval

    def at_reference(self, interval):
        """Seconds of the interval at reference speed; call it once the
        samples after the interval have been taken."""
        return interval.raw * self.scale(interval.start, interval.end)


@dataclass(frozen=True)
class Interval:
    start: float
    end: float
    raw: float  # end - start without the kernel time inside
