"""A speed-meter for the CPU the benchmark runs on.

On a shared machine the same Python code can run 1.5 to 2 times slower for
seconds at a time while neighbours are busy, and the share of slow time
differs from one run to the next.  `SpeedMeter` times a fixed probe every
INTERVAL seconds, from SIGALRM in the main thread, so the samples cover wall
time evenly and see the core the client runs on.  A time measured over an
interval is rescaled to the reference speed at which one probe takes
REFERENCE_PROBE_S, using the probes taken during (and just before) it, after
the probes' own time is subtracted.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.001
INTERVAL_S = 0.05
WINDOW_S = 0.25  # a short interval also uses the probes this long before it


def probe():
    """Seconds for a fixed slice of exact arithmetic, hashing and sorting."""
    gc.disable()  # a collection here would cost more as kuifje's heap grows
    try:
        start = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 100):
            acc += Fraction(i, i + 7)
            seen[(i % 17, i, acc)] = i
        sorted(seen)
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedMeter:
    def __init__(self):
        self.samples = []  # (start time, probe seconds)
        self.spent = 0.0  # probe seconds so far

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        d = probe()
        self.samples.append((start, d))
        self.spent += d

    def start(self):
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start, end):
        """Reference seconds per measured second over [start, end]."""
        window = [d for t, d in self.samples if start - WINDOW_S <= t <= end]
        if not window:
            window = [self.samples[-1][1]]
        return REFERENCE_PROBE_S * len(window) / sum(window)

    def measure(self, fn, *args):
        """(fn's result, measured seconds, reference seconds)."""
        start, spent = time.perf_counter(), self.spent
        result = fn(*args)
        end = time.perf_counter()
        seconds = end - start - (self.spent - spent)
        return result, seconds, seconds * self.scale(start, end)
