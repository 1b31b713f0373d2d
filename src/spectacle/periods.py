"""Floating-point verification layer.

Completed L-values of level-one Eisenstein series, truncated-cycle period
integrals with pushed-in caps, and the numerical geodesic-intersection
oracle.  This is the only module that touches floats; every comparison made
against its output carries an explicit tolerance.  It needs only the
standard library: ``completed_L`` is read at the integers 1 <= s <= weight - 1
only, where its incomplete gamma function Q(s, x) is an exact finite sum
(``_gamma_q``), so importing the package loads no scipy.

Period assembly.  For a weight 2k+2 level-one form f (Fricke flip g = f),
the pairing with the capped cycle on the imaginary axis with coefficient
v_{2j} (|j| <= k-1) is the integral of f(z) P(z) dz over two axis halves cut
at heights T1, T2 > 1, closed by the two caps:

    i -> iT1          P = c_{k,j} (-i)^(k+1-j) z^(k-j)
    i -> iT2          P = (-1)^(k+1) c_{k,j} (-i)^(k+1+j) z^(k+j)
    iT1 -> 1 + iT1    P = -p_w
    iT2 -> 1 + iT2    P = p_w'

Here p_w(z) = (n(z) u'^k, w) is the boundary pairing polynomial of the cap
at infinity, p_w' that of the zero-cusp cap in cusp-normal coordinates, and
c_{k,j} = i (-i)^(k-j) 2^k (k!)^2 / ((k-j)! (k+j)!).  As f has period 1, a
cap with G' = P adds G(z+1) - G(z) at its height, and that cancels its
half's top term as an exact polynomial in z; ``verify`` checks this for
every weight 4-46 and every |j| <= k-1.  So the capped period is the two
halves' terms at i alone, exactly independent of (T1, T2), and equals
c_{k,j} Lambda(f, k+1-j): ``_axis_boundary`` builds those terms, and this
module reads no cap, keeps no cache and takes no height.  There is no
uncapped period in the API; the tests sum the uncapped chain, which grows
polynomially in T, with their own mode sum over several heights.  The form
alone fixes k, so ``spectacle_period(f, j)`` reads it as ``f.k``.
The integral is summed Fourier mode by mode in closed form, without
quadrature, one mode sum at height 1 per call; the a_0 mode is summed
exactly and rounded once.  A form's coefficients are exact integer pairs
(num, den), read as ``num / den``: CPython rounds an int quotient correctly,
as ``float(Fraction)`` does, so no mode builds a ``Fraction``.  E_w keeps
sigma_{w-1} from one ``divisor_sums`` sieve, re-sieved to twice the index
a mode sum passes.
Past weight ``MAX_PERIOD_WEIGHT`` = 46 the float modes no longer meet the
closed form (at 48 three j miss it, at 56 by a relative 11), so a larger
weight raises ``ValueError`` before E_w's first a_n (n > 0) reads B_w.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import Callable, List, NamedTuple, Tuple

from .exact_arith import divisor_sums
from .qseries import eisenstein_scale
from .quad_space import GeometryError, VecV, inner, qform

__all__ = [
    "HolomorphicFormSpec",
    "completed_L",
    "spectacle_period",
    "geodesic_intersection_numeric",
    "c_constant",
    "MAX_PERIOD_WEIGHT",
]

# largest weight at which every j meets the closed form (tests/test_periods.py)
MAX_PERIOD_WEIGHT = 46


Coefficient = Tuple[int, int]  # the exact rational num / den, den > 0


class _FormFields(NamedTuple):
    weight: int
    a: Callable[[int], Coefficient]


class HolomorphicFormSpec(_FormFields):
    """Level-one holomorphic form given by its exact coefficient stream.

    ``a`` maps n >= 0 to the exact n-th Fourier coefficient as an integer
    pair (num, den) with den > 0, not necessarily in lowest terms; the
    expansion at the zero cusp coincides with ``a`` (level one, so the
    Fricke flip fixes the form).  Weight must be even and >= 4.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace refuses too

    def __new__(cls, weight: int, a: Callable[[int], Coefficient]) -> "HolomorphicFormSpec":
        if weight < 4 or weight % 2:
            raise ValueError("weight must be even and >= 4")
        return super().__new__(cls, weight, a)

    @classmethod
    def eisenstein(cls, weight: int) -> "HolomorphicFormSpec":
        """E_weight: a_0 = 1, a_n = -(2 weight / B_weight) sigma_{weight-1}(n) on
        demand.  Building it computes nothing: the first a_n with n > 0 reads
        -2 weight / B_weight = p/q (a weight whose B_weight is refused raises
        there, before any power), then sigma_{weight-1} from ``divisor_sums``,
        first to 16 and again to 2n when an n passes the end.  The sieve
        belongs to this form; a_n is (p sigma(n), q)."""
        p = q = 0
        sigma: List[int] = []

        def a(n: int) -> Coefficient:
            nonlocal p, q, sigma
            if not n:
                return 1, 1
            if not q:
                p, q = eisenstein_scale(weight).as_integer_ratio()
            if n >= len(sigma):
                sigma = divisor_sums(weight - 1, max(16, 2 * n))
            return p * sigma[n], q

        return cls(weight, a)

    @property
    def k(self) -> int:
        return self.weight // 2 - 1


def _gamma_q(s: int, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s) at
    an integer s >= 1: the exact finite sum e^(-x) sum_{i<s} x^i / i!."""
    acc = 1.0  # sum_{i<s} x^i / i! by Horner
    for i in range(s - 1, 0, -1):
        acc = 1.0 + acc * x / i
    return math.exp(-x) * acc


def completed_L(f: HolomorphicFormSpec, s: float) -> float:
    """Completed L-value Lambda(f, s) at an integer 1 <= s <= weight - 1.

    s is an ``int`` or an integer-valued float; any other s raises
    ``ValueError``.  These are the critical values that the capped-cycle
    periods read, and there Q(s, x) is an exact finite sum.  Termwise
    incomplete-gamma summation of the two-integral split:
    Lambda = sum a_n G(s, 2 pi n) + eps sum b_n G(w-s, 2 pi n)
             - a_0/s - eps b_0/(w-s),
    G(s, x) = Gamma(s, x) x^(-s) = Gamma(s) Q(s, x) x^(-s), eps = (-1)^(k+1).
    Independent of the cycle integral in ``spectacle_period``.
    """
    w = f.weight
    if not (0 < s < w and float(s).is_integer()):
        raise ValueError(f"s = {s} is not an integer in the critical strip (0, {w})")
    s = int(s)
    eps = (-1) ** (f.k + 1)
    num0, den0 = f.a(0)
    a0 = num0 / den0
    total = -a0 / s - eps * a0 / (w - s)
    for expo, sign in ((s, 1.0), (w - s, float(eps))):
        g_expo = math.gamma(expo)
        n = 1
        while True:
            x = 2 * math.pi * n
            num, den = f.a(n)
            term = num / den * g_expo * _gamma_q(expo, x) * x ** (-expo)
            total += sign * term
            if abs(term) < 1e-18 and n > 3:
                break
            n += 1
            if n > 2000:
                raise RuntimeError("incomplete-gamma tail did not converge")
    return total


def _c_exact(k: int, j: int) -> Tuple[int, Fraction]:
    """c_{k,j} = i^e r as (e, r), from i (-i)^(k-j) = i^(1 + 3(k-j))."""
    r = Fraction(2**k * factorial(k) ** 2, factorial(k - j) * factorial(k + j))
    return (1 + 3 * (k - j)) % 4, r


def c_constant(k: int, j: int) -> complex:
    """c_{k,j} = i (-i)^(k-j) 2^k (k!)^2 / ((k-j)! (k+j)!)."""
    unit, r = _c_exact(k, j)
    return 1j**unit * float(r)


_TAIL_TOL = 1e-16
_MAX_MODES = 500


def _axis_boundary(k: int, j: int) -> Tuple[int, int, Tuple[int, ...]]:
    """Exact terms at i of the two axis halves c_{k,j} (-i)^s int_i^iT f(z)
    z^(s-1) dz, s = k+1-j and s = k+1+j (the second times (-1)^(k+1) =
    i^(2k+2)).  With F = z^s / s and c_{k,j} (-i)^s = r i^e, each half gives
    -i^e r F at i; its top, +i^e r F at iT, is cancelled by its cap.  Returns
    (den, deg, parts): the deg + 1 real, then imaginary, coefficients of the
    halves' sum V(z) (see ``_mode_sum``), constant term first, times ``den``."""
    unit, r = _c_exact(k, j)
    deg = k + abs(j) + 1
    lcm = math.lcm(k - j + 1, k + j + 1)
    parts = [0] * (2 * deg + 2)
    for s, e in ((k - j + 1, 0), (k + j + 1, 2 * k + 2)):
        u = e + unit + 3 * s + 2  # i^u r = -c_{k,j} (-i)^s, times i^(2k+2) on the second half
        term = r.numerator * lcm // s  # r den / s, exact: s divides lcm
        parts[u % 2 * (deg + 1) + s] += term if u % 4 < 2 else -term  # i^u = 1, i, -1, -i
    return r.denominator * lcm, deg, tuple(parts)


def _mode_sum(f: HolomorphicFormSpec, den: int, deg: int, parts: Tuple[int, ...]) -> complex:
    """Sum of f against the terms at i, V(w) = sum_r t_r (w - i)^r.  The mode
    a_n e^(2 pi i n z) gives a_0 t_0 for n = 0, summed exactly and rounded
    once, and for n >= 1 a_n e^(-2 pi n) Q_n(i), Q_n' + 2 pi i n Q_n = V'
    solved by back-substitution in closed form: Q_n(i) = -sum_{r>=1} r! t_r
    mu^r, mu = i/(2 pi n).  Summation ends at the first n >= 3 whose mode is
    below _TAIL_TOL times the largest so far."""
    re, im = list(parts[: deg + 1]), list(parts[deg + 1 :])
    for i in range(deg):  # Taylor shift by i: t_r = (re[r] + i im[r]) / den
        for m in range(deg - 1, i - 1, -1):
            re[m], im[m] = re[m] - im[m + 1], im[m] + re[m + 1]
    num0, den0 = f.a(0)  # a_0 t_0, rounded once
    total = complex(num0 * re[0] / (den0 * den), num0 * im[0] / (den0 * den))
    taylor = [complex(re[r] / den, im[r] / den) for r in range(1, deg + 1)]
    scale = abs(total)
    for n in range(1, _MAX_MODES + 1):
        mu = 1j / (2 * math.pi * n)
        acc = 0j  # -Q_n(i) = sum_r r! t_r mu^r by Horner
        for r in range(deg, 0, -1):
            acc = (acc + taylor[r - 1]) * r * mu
        num, d = f.a(n)
        mode = -math.exp(-2 * math.pi * n) * acc * (num / d)
        total += mode
        scale = max(scale, abs(mode))
        if n >= 3 and abs(mode) <= _TAIL_TOL * scale:
            return total
    raise RuntimeError("Fourier-mode tail did not converge")


def spectacle_period(f: HolomorphicFormSpec, j: int) -> float:
    """Capped-cycle period pairing c_{k,j} Lambda(f, k+1-j), k = ``f.k``, for
    weights up to ``MAX_PERIOD_WEIGHT``: one mode sum over the two axis
    halves' terms at i.  The caps cancel the halves' top terms exactly
    (checked in ``verify``), so no height, cap or cache enters; the boundary
    is built on each call."""
    k = f.k
    if f.weight > MAX_PERIOD_WEIGHT:
        raise ValueError(
            f"weight {f.weight} exceeds {MAX_PERIOD_WEIGHT}, the largest with accurate periods"
        )
    if abs(j) > k - 1:
        raise ValueError("cap equation unsolvable at one cusp: need |j| <= k-1")
    total = _mode_sum(f, *_axis_boundary(k, j))
    if abs(total.imag) > 1e-7 * (1.0 + abs(total.real)):
        raise ArithmeticError(f"period pairing unexpectedly non-real: {total} (k={k}, j={j})")
    return total.real


# ---------------------------------------------------------------------------
# numerical geodesic intersections

_OUT_OF_FLOAT_RANGE = "vector coordinates exceed the float range"


def _geodesic_params(x: VecV) -> Tuple[float, float, float]:
    """Float coordinates (a, b, c); refuses a coordinate that overflows or a
    nonzero one that underflows to 0."""
    exact = (x.a, x.b, x.c)
    try:
        a, b, c = (float(t) for t in exact)
    except OverflowError:
        raise GeometryError(_OUT_OF_FLOAT_RANGE) from None
    if any(f == 0.0 and t for f, t in zip((a, b, c), exact)):
        raise GeometryError(_OUT_OF_FLOAT_RANGE)
    return a, b, c


def geodesic_intersection_numeric(x: VecV, y: VecV) -> Tuple[complex, int]:
    """Intersection point and orientation sign of the geodesics of x and y.

    The geodesic of a spacelike vector (a, b, c) is {a |z|^2 - 2 b Re z - c
    = 0}, oriented so that its tangent followed by the ambient image of the
    vector is positively oriented.  The sign is +1 when the ordered pair of
    oriented tangents at the crossing is positively oriented.  Entirely
    independent of the cross-product route.
    """
    if qform(x) <= 0 or qform(y) <= 0 or 4 * qform(x) * qform(y) <= inner(x, y) ** 2:
        raise GeometryError("not a positive 2-plane")
    ax, bx, cx = _geodesic_params(x)
    ay, by, cy = _geodesic_params(y)
    if ax == 0.0 and ay == 0.0:
        raise GeometryError("parallel vertical geodesics do not cross")
    if ax == 0.0 or ay == 0.0:
        # one vertical line Re z = -c/(2b), one circle
        (bv, cv), (ac, bc, cc) = ((bx, cx), (ay, by, cy)) if ax == 0.0 else ((by, cy), (ax, bx, cx))
        X = -cv / (2 * bv)
    else:
        # two circles: radical line gives Re z
        denom = 2 * (bx * ay - by * ax)
        if denom == 0.0:
            raise GeometryError("concentric geodesics do not cross transversally")
        X = (ax * cy - ay * cx) / denom
        ac, bc, cc = ax, bx, cx
    Y2 = (2 * bc * X + cc) / ac - X * X
    if Y2 <= 0:
        raise GeometryError("geodesics do not cross in the upper half-plane")
    z = complex(X + 0.0, math.sqrt(Y2))  # + 0.0: a real part of -0.0 would print as "-0"
    # the ambient normal of (a, b, c) at z = X + iY is (Y (X a - b), Y^2 a) up
    # to sqrt2; each oriented tangent is its normal turned by -90 degrees, and
    # turning both leaves their determinant unchanged
    X, Y = z.real, z.imag
    nx = (Y * (X * ax - bx), Y * Y * ax)
    ny = (Y * (X * ay - by), Y * Y * ay)
    det = nx[0] * ny[1] - nx[1] * ny[0]
    if det == 0.0:
        raise GeometryError("tangent directions degenerate at the crossing")
    return z, (1 if det > 0 else -1)
