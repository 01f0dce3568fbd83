"""Timings corrected for the speed of a shared host.

On a shared VM the CPU's speed drifts in phases of seconds to minutes:
a fixed pure-Python loop can take 1.7 times as long in one minute as in
the one before, and CPU time drifts with wall time, so no choice of
clock removes it. The benchmark therefore runs a small fixed reference
kernel, written here and never touched by the program, next to every
operation it times, and rescales that operation's time by how fast the
kernel ran around it:

    normalised = measured * REFERENCE_S / (mean kernel seconds just before and after it)

A normalised time reads as seconds on a host where the kernel takes
REFERENCE_S. The program's own speed shows unchanged: a program that does
twice the work takes twice the normalised time, whatever the host does.
Raw times are printed beside the normalised ones.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

#: Seconds the reference kernel takes at the reference speed. The value
#: only sets the scale of normalised times; it was measured on the 2-core
#: VM the baseline was taken on.
REFERENCE_S = 0.015


def reference_kernel() -> int:
    """A fixed mix of interpreter work like the program's: a small
    simulation over a dict of counters with seeded draws and snapshots."""
    rng = random.Random(12345)
    pools = {f"p{i}": 0 for i in range(16)}
    keys = list(pools)
    snapshots = []
    odd = 0
    for _ in range(1000):
        for key in keys:
            value = pools[key] + rng.randrange(5)
            pools[key] = value - 50 if value > 50 else value
        snapshots.append(dict(pools))
        odd += sum(1 for key in keys if pools[key] & 1)
    return odd + len(snapshots)


def time_kernel() -> float:
    started = perf_counter()
    reference_kernel()
    return perf_counter() - started


class HostClock:
    """Kernel timings taken between the timed operations of a run.

    ``tick()`` runs the kernel and returns its index; an operation timed
    after tick ``i`` is scaled by the mean of kernels ``i`` and ``i+1``,
    the one just before it and the one just after it. The mean, not a
    median: a slow host often runs at full speed between pauses, and a
    median of kernel runs would skip the pauses the operation sat through.
    """

    def __init__(self):
        self.kernels = []

    def tick(self) -> int:
        self.kernels.append(time_kernel())
        return len(self.kernels) - 1

    def normalise(self, seconds: float, tick: int) -> float:
        return seconds * REFERENCE_S / statistics.fmean(self.kernels[tick:tick + 2])
