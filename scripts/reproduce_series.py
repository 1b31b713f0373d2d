#!/usr/bin/env python3
"""Print the headline exact identities coefficient by coefficient.

Runs the split-lattice Eisenstein comparison, both sides of the
generating-series identity for the concrete level-four lattice, and the
half-integral weight proportionality, echoing the numbers as tables.  Exits 1,
naming each failure on stderr, when a printed identity does not hold.
"""

import sys
from fractions import Fraction

sys.path.insert(0, "src")

from spectacle.qseries import cohen_eisenstein, eisenstein_level1
from spectacle.exact_arith import bernoulli_number
from spectacle.shintani_lift import LiftConfig, LiftError, main_theorem_check, plus_space_check
from spectacle.theta11 import SplitLatticeU, theta11_series

N_SHOW = 12


def show(title, pairs):
    print(f"\n== {title}")
    for label, value in pairs:
        print(f"  {label:<14} {value}")


def main() -> int:
    failed = []
    lat = SplitLatticeU.unimodular()
    for k in (3, 5):
        series = theta11_series(lat, k, 0, 1, N_SHOW)
        target = (-bernoulli_number(k + 1) / (k + 1)) * eisenstein_level1(k + 1, N_SHOW)
        show(
            f"split theta, k={k} (should be -B_{k+1}/{k+1} * E_{k+1})",
            [(f"q^{n}", f"{series.coefficient(n)}  =  {target.coefficient(n)}") for n in range(N_SHOW + 1)],
        )
        if series.first_mismatch(target) is not None:
            failed.append(f"split theta k={k} differs from -B_{k+1}/{k+1} * E_{k+1}")

    for k in (1, 3):
        for h in (Fraction(0), Fraction(1, 2)):
            rep = main_theorem_check(LiftConfig(k=k, h=h, n_max=4 * N_SHOW))
            status = "EQUAL" if rep.equal else f"MISMATCH {rep.first_mismatch}"
            if not rep.equal:
                failed.append(f"lift k={k}, shift {h}: sides differ")
            print(f"\n== lift k={k}, shift {h}: {status}")
            den = rep.theta_side.exp_den
            for num in sorted(rep.theta_side.coeffs)[:8]:
                e = f"{num}/{den}" if den > 1 else str(num)
                print(
                    f"  q^{e:<8} theta {rep.theta_side.coeffs[num]}"
                    f"   geometric {rep.geometric_side.coefficient(Fraction(num, den))}"
                )

    for k in (1, 3):
        try:
            res = plus_space_check(k, 4 * N_SHOW)
        except LiftError as exc:
            failed.append(f"combined components k={k}: {exc}")
            continue
        print(f"\n== combined components vs H({k + 1}, N): lambda = {res.lam}, passed = {res.passed}")
        if not (res.passed and abs(res.lam) == {1: 10, 3: 2}[k]):
            failed.append(f"combined components k={k}: lambda = {res.lam}, passed {res.passed}")
        target = cohen_eisenstein(k + 1, 4 * N_SHOW)
        for n in sorted(res.combined.coeffs)[:8]:
            print(f"  N={n:<4} {res.combined.coefficient(n)}  =  {res.lam} * {target.coefficient(n)}")

    for line in failed:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
