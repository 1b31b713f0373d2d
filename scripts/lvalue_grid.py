#!/usr/bin/env python3
"""Truncation-height study of the period integrals.

Prints the capped pairing, one number with no truncation height in it, and
the uncapped integrals on a T-grid, which grow polynomially (the caps do
the cancelling).  Exits 1, naming each failure on stderr, when the capped
pairing is not c_{k,0} Lambda(k+1) to 1e-8 or the uncapped integrals fail to
move by more than 1e-2.
"""

import itertools
import sys

sys.path.insert(0, "src")

from spectacle.periods import HolomorphicFormSpec, c_constant, completed_L, spectacle_period


def main() -> int:
    failed = []
    grid = (3.0, 5.0, 10.0)
    for weight, k in ((4, 1), (8, 3)):
        form = HolomorphicFormSpec.eisenstein(weight)
        lam = completed_L(form, float(k + 1))
        print(f"\nweight {weight}: Lambda(k+1) = {lam:.12g}")
        want = c_constant(k, 0) * lam
        capped = spectacle_period(form, 0)
        print(f"  capped pairing {capped:+.12f}")
        if abs(capped - want) > 1e-8:
            failed.append(f"weight {weight}: {capped:.12g} != c Lambda = {want:.12g}")
        print("  T1    T2    uncapped")
        uncapped = []
        for t1, t2 in itertools.product(grid, repeat=2):
            uncapped.append(spectacle_period(form, 0, (t1, t2)))
            print(f"  {t1:<5} {t2:<5} {uncapped[-1]:+.3f}")
        if max(uncapped) - min(uncapped) <= 1e-2:
            failed.append(f"weight {weight}: the uncapped integrals do not depend on T")

    for line in failed:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
