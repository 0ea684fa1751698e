"""Machine-speed sampling, so that times taken on a drifting host compare.

On a shared host the same pure-Python loop can take 1.6 times longer
from one minute to the next, in wall time and in process CPU time
alike.  A median inside one run cannot remove drift that lasts longer
than the run.  So while the untraced passes run, a timer interrupts the
benchmark every `PERIOD` seconds and times a fixed reference loop in
the signal handler.  The loop does what the library's hot paths do
(`Fraction` arithmetic, dicts keyed by tuples) and calls nothing in
`treeforms`, so a change to the library does not change it.

`Speed.seconds(a, b)` turns the wall interval [a, b] into reference
seconds: the interval minus the handler time inside it, times
`REF_LOOP_S` divided by the mean loop time sampled within `WINDOW`
seconds of the interval.  A reference second is a wall second on a
machine where one reference loop takes `REF_LOOP_S`.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05       # seconds between samples
WINDOW = 0.25       # samples this close to an interval count for its speed
MIN_SAMPLES = 4     # fewer in the window: widen it to the nearest samples
REF_LOOP_S = 0.002  # the reference loop's time on a 2-core x86-64 host, CPython 3.11
LOOP_N = 200


def reference_loop(n: int = LOOP_N) -> int:
    total, table = Fraction(0), {}
    for i in range(1, n):
        total += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(3, i % 5 + 1)
        table[(i, i % 11)] = total
    hits = 0
    for i in range(10 * n):
        hits += table.get((i % n, i % 11), 0) != 0
    return hits


class Speed:
    """Samples of (start, duration) of the reference loop, taken in a
    SIGALRM handler between `start()` and `stop()`."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old_handler = None
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a late alarm inside the handler: skip it
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()  # a collection of the benchmark's garbage is not the loop's time
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._sampling = False

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None
        for _ in range(MIN_SAMPLES):
            self.sample()

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval [a, b]."""
        return self.busy(a, b) * REF_LOOP_S / self.loop_time(a, b)

    def busy(self, a: float, b: float) -> float:
        """Wall seconds of [a, b] that the sampler did not take."""
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        return b - a - sum(self.durations[i:j])

    def loop_time(self, a: float, b: float) -> float:
        lo = bisect.bisect_left(self.starts, a - WINDOW)
        hi = bisect.bisect_right(self.starts, b + WINDOW)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min(lo, bisect.bisect_left(self.starts, a) - MIN_SAMPLES // 2))
            hi = min(len(self.starts), max(hi, bisect.bisect_right(self.starts, b)
                                           + MIN_SAMPLES // 2))
        return statistics.fmean(self.durations[lo:hi])
