"""Machine-speed probe: a fixed reference loop, sampled while a workload runs.

On a shared host the same pure-Python work runs 20-40 % slower for
seconds to minutes at a time when neighbours are busy, which swamps any
bound a benchmark could set.  A small compute-bound reference loop run on
the same core slows down with it.  Every operation time is therefore
reported in *reference seconds*: the measured time, less the probe's own
time, scaled by NOMINAL_S / (the reference loop's median time while the
operation ran).  The loop uses nothing from esopsyn, so no change to the
program can move it, and its working set stays in a core's private
caches, so what the program does between samples does not move it either.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# The loop's median time on a quiet 2-core Xeon box; defines one reference second.
NOMINAL_S = 0.001
INTERVAL_S = 0.05        # sampling period while a workload runs
NEARBY_S = 0.5           # short operations use the samples of this window


def reference(rounds: int = 500) -> int:
    """Fixed work resembling the program's: big-int masks, dicts, sets."""
    x = 0x9E3779B97F4A7C15
    acc = 0
    table: dict[int, int] = {}
    for _ in range(rounds):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        k = x & 0x3FF
        table[k] = table.get(k, 0) ^ (x >> 11)
        small = {x & 0xFF, (x >> 8) & 0xFF, (x >> 16) & 0xFF, (x >> 24) & 0xFF}
        acc ^= (1 << (x & 511)) & ((x << 200) | x) | len(small & set(sorted(small)))
    return acc


def reference_time(samples: int = 5) -> float:
    """Median reference-loop time over a few back-to-back samples."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Samples the reference loop every INTERVAL_S from a SIGALRM handler.

    `spent(t0, t1)` is the handler's own time inside an interval, for
    callers to take out of the operation they timed.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []     # reference loop durations
        self.handler: list[float] = []   # whole handler durations

    def _sample(self, *_signal_args):
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self.handler.append(perf_counter() - t0)

    def spent(self, t0: float, t1: float) -> float:
        # a handler that started before t1 also ended before t1 was read
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.handler[lo:hi])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median reference time during [t0, t1], or
        during the NEARBY_S before t1 when no sample fell inside."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi == lo:
            lo = bisect.bisect_left(self.starts, t1 - NEARBY_S)
            if hi == lo:
                lo = max(0, hi - 1)
        return NOMINAL_S / statistics.median(self.times[lo:hi])
