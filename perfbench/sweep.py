"""Scaling sweep of the three quadratic exact routines; reported, not gated.

    python3 perfbench/sweep.py    # about a minute on 2 cores

Times ``cohen_eisenstein(4, N)``, ``main_theorem_check(k=3, h=1/2, n_max=N)``
and ``plus_space_check(3, N)`` over doubling grids in one interpreter (after
the set-up that every CLI call pays) and fits the exponent of N by least
squares on log t against log N.  Each point is one run, reported as measured
and in reference-speed seconds (scaled by the calibration loop timed on both
sides of it, as in run.py); the fit uses the scaled times.  The largest sizes
are capped so that the sweep fits a small machine.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from calibration import CAL_NOMINAL_S, calibrate
from run import ROOT


def fit_exponent(sizes: List[int], times: List[float]) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spectacle.qseries import cohen_eisenstein
    from spectacle.shintani_lift import LiftConfig, arbitrate_signs, main_theorem_check, plus_space_check

    arbitrate_signs()
    grids: Dict[str, Tuple[Callable[[int], object], List[int]]] = {
        "cohen_eisenstein(4, N)": (lambda n: cohen_eisenstein(4, n), [125, 250, 500, 1000]),
        "main_theorem_check(k=3, h=1/2, n_max=N)": (
            lambda n: main_theorem_check(LiftConfig(k=3, h=Fraction(1, 2), n_max=n)),
            [100, 200, 400, 800]),
        "plus_space_check(3, N)": (lambda n: plus_space_check(3, n), [60, 120, 240, 480, 960]),
    }
    summary = {}
    for label, (fn, sizes) in grids.items():
        measured, times = [], []
        for n in sizes:
            before = calibrate()
            t0 = time.perf_counter()
            fn(n)
            measured.append(time.perf_counter() - t0)
            times.append(measured[-1] * CAL_NOMINAL_S * 2 / (before + calibrate()))
            print(f"{label} N={n}: {times[-1]:.3f} s (measured {measured[-1]:.3f} s)", flush=True)
        exp = fit_exponent(sizes, times)
        print(f"{label}: fitted exponent {exp:.2f} over N = {sizes}")
        summary[label] = {"N": sizes, "s": [round(t, 4) for t in times],
                          "measured_s": [round(t, 4) for t in measured], "exponent": round(exp, 3)}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
