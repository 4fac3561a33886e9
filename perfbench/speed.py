"""Clocks for the untraced runs.

On a machine shared with other tenants the speed of one process drifts by
tens of percent over seconds and minutes, and CPU time drifts with wall
time, so two runs of the same code can differ by a factor of 1.5.  The
``ReferenceClock`` measures that drift while the workload runs and takes it
out.  A timer signal runs a fixed pure-Python calibration loop every
``PERIOD_S`` seconds.  The calibration samples cut an interval into
stretches of work; each stretch counts its wall time times ``NOMINAL_S``
over the median calibration time of the ``WINDOW`` samples around it, and
the calibration itself does not count.  The result is in seconds at the
speed at which the calibration loop takes ``NOMINAL_S``.  A change to the
package moves the workload's time and not the calibration's, so it shows
in full.

``WallClock`` has the same interface and no correction; traced runs and
tests use it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

perf = time.perf_counter

PERIOD_S = 0.015
CAL_LOOPS = 1500
# the calibration loop's time at the reference speed
NOMINAL_S = 2.0e-4
# the local speed at a sample is the median over this many samples around it
WINDOW = 16


def calibrate() -> float:
    s = 0.0
    for i in range(CAL_LOOPS):
        s += (i * 0.5) ** 0.5
    return s


class WallClock:
    """Wall seconds, uncorrected."""

    def mark(self) -> float:
        return perf()

    def seconds(self, interval) -> float:
        t0, t1 = interval
        return t1 - t0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class ReferenceClock(WallClock):
    """Wall seconds scaled to the reference speed (see the module notes).

    Intervals are recorded with ``mark()`` pairs while the clock runs and
    converted with ``seconds()`` once it has stopped, outside any timed
    region."""

    def __init__(self):
        self.times: list = []      # start of each calibration sample
        self.durations: list = []
        self._scales: list = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf()
        calibrate()
        self.times.append(t0)
        self.durations.append(perf() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _local_scales(self) -> list:
        d = self.durations
        if not d:
            raise RuntimeError("no calibration samples were taken")
        if len(self._scales) != len(d):
            h = WINDOW // 2
            self._scales = [
                NOMINAL_S / statistics.median(d[max(i - h, 0):i + h])
                for i in range(len(d))]
        return self._scales

    def _inside(self, interval) -> tuple:
        t0, t1 = interval
        return (bisect.bisect_left(self.times, t0),
                bisect.bisect_left(self.times, t1))

    def unscaled(self, interval) -> float:
        """Wall seconds less the calibration inside the interval."""
        lo, hi = self._inside(interval)
        t0, t1 = interval
        return (t1 - t0) - sum(self.durations[lo:hi])

    def seconds(self, interval) -> float:
        scales = self._local_scales()
        lo, hi = self._inside(interval)
        t0, t1 = interval
        total, start = 0.0, t0
        for i in range(lo, hi):
            total += (self.times[i] - start) * scales[i]
            start = self.times[i] + self.durations[i]
        # the last stretch takes the speed at the next sample
        return total + (t1 - start) * scales[min(hi, len(scales) - 1)]
