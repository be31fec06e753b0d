"""Fixed reference computations that measure how fast this machine runs
right now.

On a shared machine the speed of a core drifts with its neighbours' load:
the same work can take twice as long a few seconds later.  The benchmark
therefore times a reference computation right before and right after each
operation it measures, and scales the operation's time by the reference
time over the mean of those two calibrations.  A run so reports what its
times would be on a machine where the reference takes its reference time.

In-process workloads use ``kernel()``, which mixes what qmanin spends its
time on (interpreted Python, small numpy calls, big-integer arithmetic as
in mpmath) and imports nothing from qmanin.  Workloads whose operations are
whole processes use a fresh interpreter that imports numpy and mpmath
(``NULL_PROCESS``).
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.002          # kernel()
NULL_REFERENCE_S = 0.2       # NULL_PROCESS
NULL_PROCESS = "import numpy, mpmath"
EVERY_S = 0.05               # least time between two in-process calibrations


def kernel() -> float:
    acc = 0.0
    a = np.arange(16.0)
    big = 3 ** 900
    for k in range(120):
        x = np.exp(-a * (0.01 * k))
        acc += float(np.sum(x)) + math.lgamma(k + 1.5)
        table = {i: i * 0.5 for i in range(8)}
        acc += sum(table.values())
        big = (big * 1_000_003 + k) % (7 ** 1000)
    return acc + (big & 1)


def measure(repeat: int = 3) -> float:
    """Median wall time of ``repeat`` kernel runs, in seconds."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def scale(calibrations, before: int, reference: float) -> float:
    """Scale for an operation timed between calibrations ``before`` and
    ``before + 1`` (the last one when there is no later one)."""
    last = len(calibrations) - 1
    around = calibrations[max(before, 0)] + calibrations[min(before + 1, last)]
    return reference / (0.5 * around)
