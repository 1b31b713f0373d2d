"""Acceptance matrix: every headline identity, each with its stated tolerance.

Each criterion is a function that asserts its identity and returns a detail
string; ``@_criterion(name, budget)`` appends it to ``CRITERIA`` in
definition order and makes it return a timed :class:`CriterionResult`.  It
fails on a failed assertion, on any other exception (detail ``raised <Type>:
<message>``) or past its budget in seconds, and the others still run.  Under
``python -O``, which strips assertions, every criterion fails unrun.
``spectacle verify-all`` prints each PASS/FAIL line as its criterion finishes;
the test suite asserts each result.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, List, NamedTuple, Optional

from .caps import (
    CapInput,
    boundary_pairing_polynomial,
    cap_closed_form,
    cap_solve,
    spectacle_assemble,
)
from .exact_arith import bernoulli_number
from .periods import (
    MAX_PERIOD_WEIGHT,
    HolomorphicFormSpec,
    _c_exact,
    geodesic_intersection_numeric,
    spectacle_period,
)
from .qseries import cohen_bernoulli, cohen_eisenstein
from .quad_space import U_VEC, UPRIME_VEC, VecV, W0_VEC, epsilon_sign, inner, qform
from .shintani_lift import LiftConfig, main_theorem_check, plus_space_check
from .sym_rep import (
    act_n,
    embed_power,
    embed_vector,
    pairing,
    raising,
    u_power,
    uprime_power,
    weight_vector,
)
from .theta11 import SplitLatticeU, siegel_weil_check, theta11_series

__all__ = ["CriterionResult", "CRITERIA"]


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  ({self.seconds:.2f}s)  {self.detail}"


CRITERIA: List[Callable[[], CriterionResult]] = []


def _criterion(
    name: str, budget: Optional[float] = None
) -> Callable[[Callable[[], str]], Callable[[], CriterionResult]]:
    def register(body: Callable[[], str]) -> Callable[[], CriterionResult]:
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed = False
            try:
                if not __debug__:
                    raise AssertionError("assertions are stripped under python -O; nothing checked")
                detail = body()
                passed = True
            except AssertionError as exc:
                detail = f"assertion failed: {exc}"
            except Exception as exc:
                detail = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if passed and budget is not None and elapsed > budget:
                passed = False
                detail += f"; exceeded runtime budget {budget:.0f}s"
            return CriterionResult(name, passed, detail, elapsed)

        CRITERIA.append(run)
        return run

    return register


@_criterion("cap double-path oracle", budget=5.0)
def criterion_cap_double_path() -> str:
    rng = random.Random(20260809)
    count = 0
    for k in range(1, 7):
        for i in range(-k + 1, k + 1):
            for _ in range(20):
                r = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                M = Fraction(rng.randint(1, 15), rng.randint(1, 8))
                v = act_n(r, weight_vector(k, i))
                w = cap_solve(CapInput(k=k, width=M, position=r, jump=v))
                wc = cap_closed_form(k, i, r, M)
                assert w == wc, f"k={k} i={i} r={r} M={M}"
                count += 1
    return f"{count} cap pairs agree exactly (k <= 6)"


@_criterion("worked cap example (both cusps)")
def criterion_worked_cap_example() -> str:
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    for N in (1, 2, 3, 5):
        cyc = spectacle_assemble(W0_VEC, 1, N)
        want_first = embed_vector(UPRIME_VEC - half * W0_VEC + sixth * U_VEC)
        want_second = embed_vector(
            -Fraction(1, N) * U_VEC - half * W0_VEC - Fraction(N, 6) * UPRIME_VEC
        )
        assert cyc.caps[0].vector == want_first, f"N={N} cap at infinity"
        assert cyc.caps[1].vector == want_second, f"N={N} cap at zero"
    return "caps u' - x/2 + u/6 and -u/N - x/2 - N u'/6 exact for N in {1,2,3,5}"


@_criterion("level-one Eisenstein comparison", budget=10.0)
def criterion_siegel_weil() -> str:
    for k in (3, 5, 7):
        mism = siegel_weil_check(k, 200)
        assert mism is None, f"k={k}: coefficient mismatch {mism}"
    return "theta series equals (-B_{k+1}/(k+1)) E_{k+1} to q^200 for k=3,5,7"


@_criterion("generating-series identity", budget=5.0)
def criterion_main_theorem() -> str:
    for k in (1, 3):
        for h in (Fraction(0), Fraction(1, 2)):
            cfg = LiftConfig(k=k, h=h, n_max=400)
            rep = main_theorem_check(cfg)
            assert rep.equal, f"k={k} h={h}: {rep.first_mismatch}"
    return "theta and intersection sides agree exactly to numerator 400, all (k, h)"


@_criterion("half-integral weight proportionality", budget=5.0)
def criterion_plus_space() -> str:
    lambdas = []
    for k, want_abs in ((1, 10), (3, 2)):
        res = plus_space_check(k, 1920)
        assert res.passed, f"k={k}: first break {res.first_break}"
        assert res.lam is not None and abs(res.lam) == want_abs, (
            f"k={k}: lambda={res.lam}, |lambda| should be {want_abs}"
        )
        lambdas.append(f"{k}: {res.lam}")
        const = res.combined.coefficient(0)  # the h = 1/2 component has no q^0
        assert abs(const) == abs(bernoulli_number(k + 1) / (k + 1)), (
            f"k={k}: |constant| {const}"
        )
    for r in range(1, 6):
        assert cohen_eisenstein(r, 400) == cohen_bernoulli(r, 400), (
            f"r={r}: {'class-number' if r == 1 else 'ring'} and Bernoulli "
            "routes to H(r, .) differ"
        )
    return (
        "class-number, ring and Bernoulli H(r, .) equal to N=400 for r=1..5; "
        f"single rational multiple of H(k+1, .) to N=1920; lambda = {', '.join(lambdas)}"
    )


@_criterion("completed L-value periods", budget=10.0)
def criterion_lvalue_periods() -> str:
    for weight, want in ((4, -5 / 3), (8, -2 / 15)):
        v = spectacle_period(HolomorphicFormSpec.eisenstein(weight), 0)
        assert abs(v - want) < 1e-8, f"E{weight} period {v}"
    # each half's top, +c_{k,j} (-i)^s z^s / s at its height (times i^(2k+2)
    # on the second half), is a real monomial; its cap, G' = the cap's
    # boundary polynomial, adds G(z+1) - G(z) at that height and cancels the
    # top exactly: the capped period is the halves' terms at i alone
    closed = 0
    for k in range(1, MAX_PERIOD_WEIGHT // 2):
        for j in range(-(k - 1), k):
            unit, r = _c_exact(k, j)
            halves = ((k - j + 1, 0, j, -1), (k + j + 1, 2 * k + 2, -j, (-1) ** (k - j)))
            for s, e, i, sign in halves:  # exponent, i^e, the cap's weight index and sign
                u = unit + 3 * s + e  # the top is i^u r z^s / s
                assert u % 2 == 0, f"a top is not real (k={k}, j={j})"
                p = boundary_pairing_polynomial(cap_closed_form(k, i, 0, 1))
                scale = lcm(r.denominator * s, *(c.denominator * (m + 1) for m, c in enumerate(p)))
                G = [0] + [int(sign * c * scale / (m + 1)) for m, c in enumerate(p)]
                top = (1 - u % 4) * r.numerator * (scale // (r.denominator * s))  # i^u = +-1
                left = [  # G(z+1) - G(z) plus the top, times scale
                    sum(G[m] * comb(m, n) for m in range(n + 1, len(G))) + (top if n == s else 0)
                    for n in range(max(len(G), s + 1))
                ]
                assert not any(left), f"a cap leaves a top (k={k}, j={j})"
            closed += 1
    return (
        "periods -5/3 and -2/15 to 1e-8; the caps cancel both top terms exactly for all "
        f"{closed} (k, j) of weights 4-{MAX_PERIOD_WEIGHT}"
    )


@_criterion("intersection-sign oracle")
def criterion_intersection_oracle() -> str:
    rng = random.Random(424242)
    checked = 0
    while checked < 500:
        x = VecV(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        y = VecV(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if qform(x) <= 0 or qform(y) <= 0:
            continue
        if 4 * qform(x) * qform(y) - inner(x, y) ** 2 <= 0:
            continue
        _, sign = geodesic_intersection_numeric(x, y)
        assert sign == epsilon_sign(x, y), f"disagreement at {x}, {y}"
        checked += 1
    return "500 random positive-plane pairs, zero disagreements"


@_criterion("representation-theory identities")
def criterion_rep_theory() -> str:
    for k in range(1, 9):
        ck = Fraction((-2) ** k * factorial(k) ** 2, factorial(2 * k))
        assert weight_vector(k, k) == ck * u_power(k)
        assert weight_vector(k, -k) == ck * uprime_power(k)
        assert weight_vector(k, 0) == embed_power(W0_VEC, k)
        for i in range(-k, k + 1):
            sign = 1 if i % 2 == 0 else -1
            want = Fraction(
                sign * ck**2 * factorial(2 * k),
                factorial(k + i) * factorial(k - i),
            )
            assert pairing(weight_vector(k, i), weight_vector(k, -i)) == want
        for i in range(-k, k):
            assert weight_vector(k, i + 1) == Fraction(1, i + k + 1) * raising(
                weight_vector(k, i)
            )
    rng = random.Random(515151)
    for _ in range(100):
        k = rng.randint(1, 6)
        r = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        x = VecV(-1, -r, r * r)  # n(r) acting on u', isotropic
        y = VecV(rng.randint(-7, 7), rng.randint(-7, 7), rng.randint(-7, 7))
        assert (
            pairing(embed_power(x, k), embed_power(y, k)) == inner(x, y) ** k
        ), f"k={k} r={r} y={y}"
    return "weight-vector table exact for k <= 8; 100 isotropic power pairings"


@_criterion("vanishing laws")
def criterion_vanishing() -> str:
    series = theta11_series(SplitLatticeU.unimodular(), 2, 0, 1, 40)
    assert all(series.coefficient(n) == 0 for n in range(41)), "theta k=2"
    for h in (Fraction(0), Fraction(1, 2)):
        rep = main_theorem_check(LiftConfig(k=2, h=h, n_max=40))
        assert rep.equal
        assert all(c == 0 for c in rep.theta_side.coeffs.values()), f"lift h={h}"
    for r in (1, 2, 3, 4):
        series = cohen_eisenstein(r, 60)
        for n, c in series.coeffs.items():
            assert ((-1) ** r * n) % 4 in (0, 1), f"H({r},{n}) = {c} off support"
    return "even-k series vanish to q^40; Cohen support is 0,1 mod 4"
