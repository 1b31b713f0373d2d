"""Brute-force enumeration of lattice cosets in rationals, for the tests only.

Two independent routes that the package computes in scaled integers:

* the lift's interior index set: walk the coordinate progressions of the
  coset Z u + (Z + h) w0 + Z u' of the even lattice of integral trace-zero
  matrices (h in {0, 1/2}) and filter by the exact quadratic form;
* the split theta series of ``theta11`` before its global sign, summed over
  the two ``Fraction`` progressions vector by vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from spectacle.exact_arith import RationalLike, bernoulli_poly
from spectacle.qseries import QExpansion
from spectacle.quad_space import (
    VecV,
    is_rational_square,
    qform,
    rational_sqrt,
)
from spectacle.theta11 import SplitLatticeU

# Arithmetic progressions offset + step*Z, stored as (offset, step), step > 0.
Progression = Tuple[Fraction, Fraction]


def _progression_normalize(offset: Fraction, step: Fraction) -> Progression:
    step = abs(step)
    return (offset % step, step)


def _progression_min_abs_nonzero(p: Progression) -> Fraction:
    o, s = p
    return s if o == 0 else min(o, s - o)


def _progression_range(p: Progression, lo: Fraction, hi: Fraction) -> Iterator[Fraction]:
    o, s = p
    k = math.ceil((lo - o) / s)
    t = o + k * s
    while t <= hi:
        yield t
        t += s


class UnboundedEnumerationError(ValueError):
    """Raised when a lattice enumeration request does not bound its region."""


def _progression_contains(p: Progression, t: Fraction) -> bool:
    o, s = p
    r = (t - o) / s
    return r.denominator == 1


@dataclass(frozen=True)
class CosetConstraint:
    """Finite enumeration window for coset vectors.

    q_value: exact value of q(x); u_positive: require q of the split (u, u')
    part positive; u_zero: require the split part to vanish; box: bounds
    (|a|, |b|, |c|) <= box.  The combination must bound the region, else the
    enumeration refuses.
    """

    q_value: Optional[Fraction] = None
    u_positive: bool = False
    u_zero: bool = False
    box: Optional[Tuple[RationalLike, RationalLike, RationalLike]] = None


def _split_adapted_progressions(
    h: RationalLike,
) -> Tuple[Progression, Progression, Progression]:
    """Coordinate progressions Z, Z + h, Z of a, b, c on the coset."""
    return (
        _progression_normalize(Fraction(0), Fraction(1)),
        _progression_normalize(Fraction(h), Fraction(1)),
        _progression_normalize(Fraction(0), Fraction(1)),
    )


def enumerate_coset(h: RationalLike, constraint: CosetConstraint) -> Iterator[VecV]:
    """Enumerate vectors of the coset with w0-shift h meeting the constraint,
    each exactly once.

    Refuses with :class:`UnboundedEnumerationError` when the constraint does
    not make the region finite.
    """
    bounded = constraint.box is not None or (
        constraint.q_value is not None
        and (constraint.u_positive or constraint.u_zero)
    )
    if not bounded:
        raise UnboundedEnumerationError(
            "constraint does not bound the enumeration region: need a box or "
            "an exact q-value with a split-part condition"
        )
    prog_a, prog_b, prog_c = _split_adapted_progressions(h)
    if constraint.box is not None:
        ba, bb, bc = (Fraction(t) for t in constraint.box)
        for a in _progression_range(prog_a, -ba, ba):
            for b in _progression_range(prog_b, -bb, bb):
                for c in _progression_range(prog_c, -bc, bc):
                    v = VecV(a, b, c)
                    if constraint.q_value is None or qform(v) == constraint.q_value:
                        if not constraint.u_positive or a * c > 0:
                            if not constraint.u_zero or (a == 0 and c == 0):
                                yield v
        return
    n = Fraction(constraint.q_value)
    if constraint.u_zero:
        # x = b*w0 with b^2 = n; the split coordinates a, c run over Z.
        if not is_rational_square(n):
            return
        s = rational_sqrt(n)
        for b in ([s, -s] if s else [s]):
            if _progression_contains(prog_b, b):
                yield VecV(0, b, 0)
        return
    # u_positive: q(x) = b^2 + a*c = n with a*c > 0.
    min_c = _progression_min_abs_nonzero(prog_c)
    for b in _progression_range(prog_b, -_isqrt_bound(n), _isqrt_bound(n)):
        rem = n - b * b
        if rem <= 0:
            continue
        bound_a = rem / min_c
        for a in _progression_range(prog_a, -bound_a, bound_a):
            if a == 0:
                continue
            c = rem / a
            if c != 0 and a * c > 0 and _progression_contains(prog_c, c):
                yield VecV(a, b, c)


def _isqrt_bound(n: Fraction) -> Fraction:
    """A rational upper bound for sqrt(n), tight enough for range scans."""
    if n <= 0:
        return Fraction(0)
    hi = Fraction(math.isqrt(n.numerator) + 1, max(math.isqrt(n.denominator), 1))
    return hi


def literal_series_fraction(
    lat: SplitLatticeU, k: int, w_u: Fraction, w_up: Fraction, n_max: int
) -> QExpansion:
    """``theta11._literal_series`` summed in ``Fraction`` over m1 and m2."""
    den = lat.exp_den()
    coeffs: Dict[int, Fraction] = {}
    const = Fraction(0)
    if lat.h2 == 0:
        const += -(lat.M1**k) * bernoulli_poly(k + 1, lat.h1 / lat.M1) / (k + 1) * (
            w_up * (-1) ** k
        )
    if lat.h1 == 0:
        const += -(lat.M2**k) * bernoulli_poly(k + 1, lat.h2 / lat.M2) / (k + 1) * (
            w_u * (-1) ** k
        )
    if const:
        coeffs[0] = const
    top = Fraction(n_max, den)
    prog1 = _progression_normalize(lat.h1, lat.M1)
    prog2 = _progression_normalize(lat.h2, lat.M2)
    bound1 = top / _progression_min_abs_nonzero(prog2)
    for m1 in _progression_range(prog1, -bound1, bound1):
        if m1 == 0:
            continue
        bound2 = top / abs(m1)
        for m2 in _progression_range(prog2, -bound2, bound2):
            if m1 * m2 >= 0:
                continue
            num = -m1 * m2 * den
            assert num.denominator == 1
            sgn = 1 if m1 > 0 else -1
            val = sgn * (w_u * (-m2) ** k + w_up * (-m1) ** k)
            if val:
                key = num.numerator
                coeffs[key] = coeffs.get(key, Fraction(0)) + val
    nonholo: Optional[Dict[int, Fraction]] = None
    if k == 1:
        nh = Fraction(0)
        if lat.h1 == 0:
            nh += -w_up / (4 * lat.M2)
        if lat.h2 == 0:
            nh += -w_u / (4 * lat.M1)
        nonholo = {0: nh} if nh else {}
    return QExpansion(den, n_max, coeffs, nonholo)
