"""A fixed reference kernel that times the machine rather than weaklab.

A 2-vCPU Xeon virtual machine with Python 3.11, with nothing else running
in it, changed speed by up to a half within seconds and by a third for
minutes at a time, as other tenants of its host came and went.  A run
therefore times this kernel at operation boundaries, at most every
INTERVAL_S, in the same process, and divides each operation's time by the
kernel's time measured around that operation (see Reference.around).  Over
eight seeds of the penalized grid the median trial time spread 0.27
(IQR/median) raw, 0.13 divided by the run's median kernel time, and 0.045
divided by the kernel time around each trial.
"""

from __future__ import annotations

import bisect
import statistics
import time

_MASK = (1 << 64) - 1
KERNEL_STEPS = 10_000  # about 3.5 ms on a 2-vCPU Xeon VM with Python 3.11
INTERVAL_S = 0.1


def kernel(n: int = KERNEL_STEPS) -> int:
    # Integers only: nothing the cyclic garbage collector tracks, so the
    # kernel's time does not depend on what the workload left on the heap.
    x, acc = 0x9E3779B97F4A7C15, 0
    for i in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        acc ^= x >> (i & 31)
    return acc


class Reference:
    """Kernel times in ms with the perf_counter time each was taken at, and
    their running total so that callers can take the time spent sampling
    out of what they measure around it."""

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.times: list[float] = []
        self.total_ms = 0.0
        self._tracer = tracer
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the kernel once, unless the last sample is under
        INTERVAL_S old; operation boundaries call this."""
        t0 = time.perf_counter()
        if t0 - self._last < INTERVAL_S:
            return
        if self._tracer is None:
            kernel()
        else:
            self._tracer.call("perfbench.reference", kernel)
        self._last = time.perf_counter()
        ms = (self._last - t0) * 1e3
        self.samples.append(ms)
        self.times.append(t0)
        self.total_ms += ms

    def around(self, start: float, end: float) -> float:
        """Median kernel time of the samples taken between start and end,
        or the time of the sample nearest to that interval if none was."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if lo < hi:
            return statistics.median(self.samples[lo:hi])
        if not self.times:
            raise ValueError("no reference samples")
        if hi == len(self.times) or (lo > 0 and start - self.times[lo - 1] <= self.times[hi] - end):
            return self.samples[lo - 1]
        return self.samples[hi]
