"""Brute-force enumeration of lattice coset vectors, for the tests only.

An independent route to the lift's interior index set: it walks the coordinate
progressions of a split-adapted coset (every basis vector on one of the axes
Q*u, Q*w0, Q*u') and filters by the exact quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from spectacle.quad_space import (
    LatticeCoset,
    Progression,
    RationalLike,
    VecV,
    _progression_min_abs_nonzero,
    _progression_normalize,
    _progression_range,
    is_rational_square,
    qform,
    rational_sqrt,
)


class UnboundedEnumerationError(ValueError):
    """Raised when a lattice enumeration request does not bound its region."""


def _progression_contains(p: Optional[Progression], t: Fraction) -> bool:
    if p is None:
        return False
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
    coset: LatticeCoset,
) -> Tuple[Progression, Progression, Progression]:
    """Coordinate progressions (for a, b, c) of a split-adapted coset.

    Requires every basis vector to lie on one of the axes Q*u, Q*w0, Q*u'.
    """
    steps = {"a": None, "b": None, "c": None}
    for v in coset.basis:
        nonzero = [(axis, getattr(v, axis)) for axis in "abc" if getattr(v, axis)]
        if len(nonzero) != 1:
            raise NotImplementedError(
                "enumerate_coset supports split-adapted bases only"
            )
        axis, val = nonzero[0]
        if steps[axis] is not None:
            raise NotImplementedError("basis vectors repeat an axis")
        steps[axis] = abs(val)
    if any(s is None for s in steps.values()):
        raise NotImplementedError("basis does not span all three axes")
    return tuple(
        _progression_normalize(getattr(coset.shift, axis), steps[axis])
        for axis in "abc"
    )  # type: ignore[return-value]


def enumerate_coset(
    coset: LatticeCoset, constraint: CosetConstraint
) -> Iterator[VecV]:
    """Enumerate coset vectors meeting the constraint, each exactly once.

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
    prog_a, prog_b, prog_c = _split_adapted_progressions(coset)
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
        # x = b*w0 with b^2 = n; the split coordinates must admit zero.
        if not (
            _progression_contains(prog_a, Fraction(0))
            and _progression_contains(prog_c, Fraction(0))
        ):
            return
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
