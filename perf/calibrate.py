"""Host-speed calibration of the timed metrics.

The reference host is a small shared VM whose speed moves by up to 2x
for seconds to minutes at a time (measured: the same query pass took
0.80 s and 1.34 s in neighbouring minutes, with the machine otherwise
idle).  No median inside one 20-second run can remove that, and no bound
below 25% would survive it.  So every run measures the host while it
measures the program: a small fixed kernel of pure-Python work
(dictionary, list, tuple, string and sort operations — what the program
itself is made of) is timed between operations, about once every 0.1 s,
and every timed operation is divided by how much slower than nominal the
kernel ran just before and just after it.  In the sizing experiments the
kernel followed the program within +-3% across slow and fast minutes,
and cut the spread between ten runs by a factor of two to three.

Operations that are fresh processes (``cli_cold``) are slowed by other
things than the processor — starting a process and importing numpy were
80% slower for a minute while the in-process kernel did not move — so
they are calibrated against a fresh process of the harness's own: this
file run as a script, which imports numpy and runs the kernel.

Calibrated values keep their units: they read as "seconds on the
reference host when it is quiet".  The raw values and the factors are in
the result file.  Per-layer metrics (the traced run) are raw.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time

#: the two reference measurements on the reference host when quiet,
#: seconds.  Arbitrary scale constants: changing one rescales every timed
#: metric calibrated against it.
KERNEL_NOMINAL_S = 0.00105
PROCESS_NOMINAL_S = 0.122
#: kernel runs per in-process point; the fastest one counts, so cold
#: caches and a processor just woken from idle do not.
REPEATS = 6
#: kernel runs of the reference process.
PROCESS_KERNELS = 20
#: seconds between calibration points inside a timed loop.
INTERVAL_S = 0.1


def kernel(n: int = 4000) -> int:
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault((i * 7919) % 1009, []).append((i, str(i)))
    total = 0
    for key in sorted(groups):
        total += len(groups[key])
    return total


def time_kernel() -> float:
    clock = time.perf_counter
    best = float("inf")
    for _ in range(REPEATS):
        t0 = clock()
        kernel()
        best = min(best, clock() - t0)
    return best


def time_process() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True)
    return time.perf_counter() - t0


class Calibrator:
    """Reference timings taken alongside the timed operations of one
    run: ``measure`` is called at every point and compared with
    ``nominal``."""

    def __init__(self, measure=time_kernel, nominal: float = KERNEL_NOMINAL_S):
        self.measure = measure
        self.nominal = nominal
        #: when each point was taken, and the reference's time there.
        self.times: list[float] = []
        self.samples: list[float] = []

    def point(self) -> None:
        self.samples.append(self.measure())
        self.times.append(time.perf_counter())

    def tick(self) -> None:
        """Take a point if the last one is ``INTERVAL_S`` old."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.point()

    def factor(self, started: float, ended: float, around: int = 2) -> float:
        """How much slower than nominal the host was while something ran
        from ``started`` to ``ended``: the median over the ``around``
        points before it, every point inside it, and ``around`` after."""
        first = bisect.bisect_right(self.times, started)
        last = bisect.bisect_left(self.times, ended)
        window = self.samples[max(0, first - around) : last + around]
        return statistics.median(window) / self.nominal

    def seconds(self, timings: list[tuple[float, float]], around: int = 2) -> float:
        """Calibrated total of ``(started, ended)`` timings, each divided
        by the host's factor around it."""
        return sum(
            (ended - started) / self.factor(started, ended, around)
            for started, ended in timings
        )

    @property
    def median_factor(self) -> float:
        return statistics.median(self.samples) / self.nominal


if __name__ == "__main__":
    # The reference process: start-up, one large import, some work.
    import numpy  # noqa: F401

    for _ in range(PROCESS_KERNELS):
        kernel()
