"""Host speed from a fixed reference loop, to take host contention out of
timings.

The benchmark was built on a 4-vCPU virtual machine that other tenants share.
Its speed swings by up to 2x over seconds to minutes, and no steal time shows
in ``/proc/stat``. A fixed pure-Python loop, timed between a workload's steps,
slows by about the same factor as the workload. A step's host time multiplied
by ``NOMINAL_S`` over the loop's time around that step gives *reference
seconds*: the time the step would take with the loop at its nominal speed.
On a quiet core of that machine, reference seconds are close to host
seconds.
"""
from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 0.6e-3  # the loop's time on a quiet core of that machine
NEIGHBOURS = 3  # probes taken on each side of an instant


def reference_loop() -> int:
    d: dict[int, int] = {}
    s = 0
    for i in range(3000):
        d[i & 255] = d.get(i & 255, 0) + i
        s += i * 3 % 7
    return s


class Speed:
    """Timed runs of the reference loop, in time order."""

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoint of each probe
        self.took: list[float] = []  # seconds each probe took

    def probe(self, n: int = 1) -> float:
        """Time the loop ``n`` times; return when the last one ended."""
        t1 = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)
        return t1

    def probe_time(self, t0: float, t1: float) -> float:
        """Host seconds spent probing between ``t0`` and ``t1``."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        return sum(self.took[lo:hi])

    def factor(self, t0: float, t1: float | None = None) -> float:
        """Reference seconds per host second over ``[t0, t1]``: from the
        probes inside it and ``NEIGHBOURS`` on each side."""
        t1 = t0 if t1 is None else t1
        lo = max(0, bisect.bisect_left(self.at, t0) - NEIGHBOURS)
        hi = bisect.bisect_right(self.at, t1) + NEIGHBOURS
        took = self.took[lo:hi]
        return NOMINAL_S / statistics.median(took) if took else 1.0
