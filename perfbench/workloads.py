"""Seeded operation lists for the three benchmark workloads.

An operation is one CLI invocation, given as the argv that the benchmark
passes to ``spectacle.cli.main`` (the benchmark appends ``--out PATH``).
Every input is drawn from ``random.Random(f"{workload}:{seed}")``; nothing
here imports the program, so the program only ever sees the generated argv.

The seed draws the order of the ops, the caps vectors and rationals, the
intersecting pairs, the truncation heights and (by a few percent) the theta11
and eisenstein sizes.  The lift and Cohen sizes are fixed, so that runs on
different seeds cost the same and their spread measures the machine, not the
draw.  Ops of a doubling pair (lift, theta11, cohen) carry ``size``, "small"
or "large", so that scaling exponents can be fitted over the two sizes.
Values that may start with "-" are passed as ``--opt=value`` so that
argparse does not read them as options.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

WORKLOADS = ("lift-identity", "cohen-table", "caps-periods")

# Truncation heights on which every period of weight <= 16 meets its
# reference today (checked over every |j| <= k - 1).  Heights of 10 make the
# weight >= 12 periods raise; those are measured by the traced run's probe.
SAFE_HEIGHTS = ("1.5,3", "2,2", "2,3", "2,4", "2.5,3.5", "3,3", "3,4", "3,5")
PROBE_HEIGHTS = "3,10"
PROBE_WEIGHTS = (12, 14, 16)

# Kinds whose output bytes are frozen by digest for the default seed; the
# intersect and lvalue payloads carry floats and are checked by tolerance.
DIGESTED = ("lift", "theta11", "cohen", "eisenstein", "caps-closed", "caps-assemble")

Op = Dict[str, object]


def _op(kind: str, argv: List[str], **extra: object) -> Op:
    return {"kind": kind, "argv": argv, **extra}


def _lift_identity(rng: random.Random, smoke: bool) -> List[Op]:
    """Both sides of the identity at exponent bounds b and 2b, plus theta11."""
    ops: List[Op] = []
    base, theta_base = (6, 20) if smoke else (32, 120)
    for k in (1, 3):
        for h in ("0", "half"):
            for size, bound in (("small", base), ("large", 2 * base)):
                # h = half lives on the grid (1/4)Z, so nmax = 4 * bound
                nmax = bound if h == "0" else 4 * bound
                argv = ["lift", "--k", str(k), "--h", h, "--nmax", str(nmax), "--check"]
                ops.append(_op("lift", argv, size=size))
    for k in (3, 5):
        n = theta_base + rng.randint(0, 3)
        for size, nmax in (("small", n), ("large", 2 * n)):
            argv = ["theta11", "--k", str(k), "--nmax", str(nmax)]
            ops.append(_op("theta11", argv, size=size))
    rng.shuffle(ops)
    return ops


def _cohen_table(rng: random.Random, smoke: bool) -> List[Op]:
    """H(r, N) for r = 1..5 at N and 2N."""
    ops: List[Op] = []
    base = 20 if smoke else 200
    for r in range(1, 6):
        for size, nmax in (("small", base), ("large", 2 * base)):
            argv = ["cohen", "--r", str(r), "--nmax", str(nmax)]
            ops.append(_op("cohen", argv, size=size))
    rng.shuffle(ops)
    return ops


def _split_vector(rng: random.Random) -> List[int]:
    """Integral (a, b, c) with q = b^2 + a c a nonzero square."""
    while True:
        a, b, s = rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 8)
        if a == 0:
            if b != 0:
                return [0, b, rng.randint(-6, 6)]
        elif (s * s - b * b) % a == 0:
            return [a, b, (s * s - b * b) // a]


def _spacelike_pair(rng: random.Random) -> List[List[int]]:
    """Two integral vectors spanning a positive-definite plane.

    Vertical geodesics (a = 0) are excluded: two of them never cross.
    """

    def q(v: List[int]) -> int:
        return v[1] * v[1] + v[0] * v[2]

    while True:
        x = [rng.randint(-5, 5) for _ in range(3)]
        y = [rng.randint(-5, 5) for _ in range(3)]
        if x[0] == 0 or y[0] == 0 or q(x) <= 0 or q(y) <= 0:
            continue
        xy = 2 * x[1] * y[1] + x[0] * y[2] + y[0] * x[2]
        if 4 * q(x) * q(y) - xy * xy > 0:
            return [x, y]


def _rational(rng: random.Random, lo: int, hi: int, den: int) -> str:
    return str(Fraction(rng.randint(lo, hi), rng.randint(1, den)))


def _caps_periods(rng: random.Random, smoke: bool) -> List[Op]:
    """Many small exact objects and the whole float layer."""
    ops: List[Op] = []
    per_level = 1 if smoke else 2
    for level in range(1, 6):
        for _ in range(per_level):
            x = _split_vector(rng)
            argv = ["caps", "--k", str(rng.randint(1, 4)), "--x=" + ",".join(map(str, x)),
                    "--level", str(level)]
            ops.append(_op("caps-assemble", argv))
    per_k = 1 if smoke else 3
    for k in range(1, 9):
        for _ in range(per_k):
            i = rng.randint(-k + 1, k)
            argv = ["caps", "--k", str(k), f"--i={i}", "--r=" + _rational(rng, -30, 30, 12),
                    "--M=" + _rational(rng, 1, 15, 8)]
            ops.append(_op("caps-closed", argv))
    for _ in range(2 if smoke else 10):
        x, y = _spacelike_pair(rng)
        argv = ["intersect", "--x=" + ",".join(map(str, x)), "--y=" + ",".join(map(str, y))]
        ops.append(_op("intersect", argv))
    # weights whose level-one space is spanned by a product E_a E_b
    for weight in (8, 10, 14):
        for _ in range(1 if smoke else 2):
            nmax = (10 if smoke else 60) + rng.randint(0, 4)
            argv = ["eisenstein", "--weight", str(weight), "--nmax", str(nmax)]
            ops.append(_op("eisenstein", argv))
    for weight in range(4, 10 if smoke else 18, 2):
        k = weight // 2 - 1
        for j in range(-(k - 1), k):
            for heights in rng.sample(SAFE_HEIGHTS, 1 if smoke else 3):
                argv = ["lvalue", "--weight", str(weight), f"--j={j}", "--T", heights]
                ops.append(_op("lvalue", argv))
    rng.shuffle(ops)
    return ops


def probe_ops() -> List[Op]:
    """Periods at the heights where weights >= 12 fail today; not timed."""
    ops: List[Op] = []
    for weight in PROBE_WEIGHTS:
        k = weight // 2 - 1
        for j in range(-(k - 1), k):
            argv = ["lvalue", "--weight", str(weight), f"--j={j}", "--T", PROBE_HEIGHTS]
            ops.append(_op("lvalue", argv))
    return ops


def build(workload: str, seed: int, smoke: bool = False) -> List[Op]:
    """The operation list of one pass of ``workload`` for ``seed``."""
    makers = {
        "lift-identity": _lift_identity,
        "cohen-table": _cohen_table,
        "caps-periods": _caps_periods,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return makers[workload](random.Random(f"{workload}:{seed}"), smoke)
