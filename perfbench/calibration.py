"""The calibration loop that turns measured seconds into reference-speed seconds.

Kept apart from the benchmark's other modules so that a fresh set-up probe
can import it without importing anything the package would not.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The loop's time at full speed on a 2-core x86-64 VM with CPython 3.11;
# scaled times are seconds on a machine running at that speed.
CAL_NOMINAL_S = 0.0025


def calibrate() -> float:
    """Fastest of three runs of a fixed Fraction and dict loop, in seconds.

    Run between ops, it tracks how fast this machine currently executes
    interpreted exact arithmetic; run.py scales op times by it.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 500):
            acc += Fraction(i, i + 3) * Fraction(3, i + 1)
            table[i % 97] = table.get(i % 97, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best
