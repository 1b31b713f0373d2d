"""Floating-point verification layer.

Completed L-values of level-one Eisenstein series, truncated-cycle period
integrals with pushed-in caps, and the numerical geodesic-intersection
oracle.  This is the only module that touches floats; every comparison made
against its output carries an explicit tolerance.

Period assembly.  For a weight 2k+2 level-one form f with expansion
coefficients a_n (and Fricke flip g = f, b_n = a_n), the pairing of the form
against the capped cycle on the imaginary axis with coefficient v_{2j}
(|j| <= k-1) is evaluated through the cycle pushed in to heights T1, T2 > 1:

    value = c_{k,j} [ I1 + (-1)^(k+1) I2 ] - Cap1 + Cap2,
    I1 = int_1^T1 f(iy) y^(k+1-j) dy/y,   I2 = int_1^T2 g(iy) y^(k+1+j) dy/y,
    Cap1 = int_0^1 f(x + iT1) p_w(x + iT1) dx,
    Cap2 = int_0^1 g(x + iT2) p_w'(x + iT2) dx,

where p_w(z) = (n(z) u'^k, w) is the boundary pairing polynomial of the cap
at infinity and p_w' uses the zero-cusp cap in cusp-normal coordinates; and
c_{k,j} = i (-i)^(k-j) 2^k (k!)^2 / ((k-j)! (k+j)!).  The value is exactly
independent of (T1, T2) and equals c_{k,j} Lambda(f, k+1-j); dropping the
cap integrals destroys the T-independence (polynomial growth in T survives).
All four integrals are summed Fourier mode by mode in closed form, without
quadrature: elementary in y^(integer) e^(-2 pi n y) on the axis, exact in x
on the caps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, List, Tuple

from scipy.special import gammaincc, gamma as gamma_fn

from .caps import CapInput, boundary_pairing_polynomial, cap_solve
from .qseries import eisenstein_level1
from .quad_space import GeometryError, VecV, inner, qform
from .sym_rep import S_MAT, act, weight_vector

__all__ = [
    "HolomorphicFormSpec",
    "completed_L",
    "spectacle_period",
    "geodesic_intersection_numeric",
    "c_constant",
]

_TAIL_TOL = 1e-16


@dataclass(frozen=True)
class HolomorphicFormSpec:
    """Level-one holomorphic form given by its exact coefficient stream.

    ``a`` maps n >= 0 to the exact n-th Fourier coefficient; the expansion at
    the zero cusp coincides with ``a`` (level one, so the Fricke flip fixes
    the form).  Weight must be even and >= 4.
    """

    weight: int
    a: Callable[[int], Fraction]

    def __post_init__(self) -> None:
        if self.weight < 4 or self.weight % 2:
            raise ValueError("weight must be even and >= 4")

    @classmethod
    def eisenstein(cls, weight: int) -> "HolomorphicFormSpec":
        cache: List[Fraction] = []

        def coeff(n: int) -> Fraction:
            nonlocal cache
            if n >= len(cache):
                series = eisenstein_level1(weight, max(2 * n, 32))
                cache = [series.coefficient(m) for m in range(series.n_max + 1)]
            return cache[n]

        return cls(weight, coeff)

    @property
    def k(self) -> int:
        return self.weight // 2 - 1


def completed_L(f: HolomorphicFormSpec, s: float) -> float:
    """Completed L-value Lambda(f, s) inside the critical strip 0 < s < weight.

    Termwise incomplete-gamma summation of the two-integral split:
    Lambda = sum a_n G(s, 2 pi n) + eps sum b_n G(w-s, 2 pi n)
             - a_0/s - eps b_0/(w-s),
    G(s, x) = Gamma(s, x) x^(-s) ... evaluated as Gamma(s) Q(s, x) (2 pi n)^(-s),
    eps = (-1)^(k+1).
    """
    w = f.weight
    if not 0 < s < w:
        raise ValueError(f"s = {s} outside the critical strip (0, {w})")
    eps = (-1) ** (f.k + 1)
    a0 = float(f.a(0))
    total = -a0 / s - eps * a0 / (w - s)
    for expo, sign in ((s, 1.0), (w - s, float(eps))):
        g_expo = float(gamma_fn(expo))
        n = 1
        while True:
            x = 2 * math.pi * n
            term = float(f.a(n)) * g_expo * float(gammaincc(expo, x)) * x ** (-expo)
            total += sign * term
            if abs(term) < 1e-18 and n > 3:
                break
            n += 1
            if n > 2000:
                raise RuntimeError("incomplete-gamma tail did not converge")
    return total


def c_constant(k: int, j: int) -> complex:
    """c_{k,j} = i (-i)^(k-j) 2^k (k!)^2 / ((k-j)! (k+j)!)."""
    return (
        1j
        * (-1j) ** (k - j)
        * 2**k
        * factorial(k) ** 2
        / (factorial(k - j) * factorial(k + j))
    )


def _cap_polynomials(k: int, j: int) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Boundary pairing polynomials of the caps at both cusps.

    At infinity the cap solves the jump for v_{2j} directly; at zero it is
    solved in cusp-normal coordinates for the transported jump value
    act(S^(-1), v_{2j}).
    """
    if abs(j) > k - 1:
        raise ValueError("cap equation unsolvable at one cusp: need |j| <= k-1")
    v = weight_vector(k, j)
    w_inf = cap_solve(CapInput(k=k, width=Fraction(1), position=Fraction(0), jump=v))
    v_zero = act(S_MAT, v)  # S and S^(-1) act identically in even degree
    w_zero = cap_solve(
        CapInput(k=k, width=Fraction(1), position=Fraction(0), jump=v_zero)
    )
    return boundary_pairing_polynomial(w_inf), boundary_pairing_polynomial(w_zero)


def _mode_integrals(degree: int, n: int) -> List[complex]:
    """I_d = int_0^1 x^d e^(2 pi i n x) dx for d = 0..degree."""
    if n == 0:
        return [1.0 / (d + 1) for d in range(degree + 1)]
    iw = 2j * math.pi * n
    out: List[complex] = [0.0 + 0.0j]  # e^(2 pi i n) = 1 for integer n
    for d in range(1, degree + 1):
        out.append(1.0 / iw - d / iw * out[d - 1])
    return out


def _cap_integral(
    f: HolomorphicFormSpec, poly: Tuple[Fraction, ...], T: float
) -> complex:
    """int_0^1 f(x + iT) p(x + iT) dx with exact-in-x mode integrals."""
    deg = len(poly) - 1
    # expand p(x + iT) in powers of x
    px: List[complex] = [0.0 + 0.0j] * (deg + 1)
    for m, c in enumerate(poly):
        if not c:
            continue
        # (x + iT)^m = sum_d C(m, d) x^d (iT)^(m-d)
        for d in range(m + 1):
            px[d] += float(c) * math.comb(m, d) * (1j * T) ** (m - d)
    total = 0.0 + 0.0j
    n = 0
    while True:
        amp = float(f.a(n)) * cmath.exp(2j * math.pi * n * (1j * T))
        if n > 0 and abs(amp) * (1.0 + T) ** deg < 1e-18:
            break
        modes = _mode_integrals(deg, n)
        total += amp * sum(px[d] * modes[d] for d in range(deg + 1))
        n += 1
        if n > 500:
            raise RuntimeError("cap integral tail did not converge")
    return total


def _axis_integral(f: HolomorphicFormSpec, s: int, T: float) -> float:
    """int_1^T f(iy) y^(s-1) dy, mode by mode in closed form.

    The n = 0 mode is a_0 (T^s - 1)/s; for n >= 1, with c = 2 pi n and
    m = s - 1, it is E(1) - E(T), E(y) = e^(-cy) sum_{i=0}^m m!/(m-i)!
    y^(m-i) / c^(i+1).
    """
    m = s - 1

    def antiderivative(c: float, y: float) -> float:
        acc, term = 0.0, y**m / c
        for i in range(m + 1):
            acc += term
            term *= (m - i) / (y * c)
        return math.exp(-c * y) * acc

    total = float(f.a(0)) * (T**s - 1) / s
    n = 1
    while True:
        c = 2 * math.pi * n
        term = float(f.a(n)) * (antiderivative(c, 1.0) - antiderivative(c, T))
        total += term
        if abs(term) < _TAIL_TOL and n > 3:
            return total
        n += 1
        if n > 4000:
            raise RuntimeError("axis integral tail did not converge")


def spectacle_period(
    f: HolomorphicFormSpec,
    k: int,
    j: int,
    T1: float,
    T2: float,
    include_caps: bool = True,
) -> float:
    """Truncated-cycle period pairing; equals c_{k,j} Lambda(f, k+1-j).

    ``include_caps=False`` drops the two cap integrals (negative control:
    the value then depends on T1, T2 polynomially).
    """
    if f.weight != 2 * k + 2:
        raise ValueError("form weight must equal 2k+2")
    if T1 <= 1 or T2 <= 1:
        raise ValueError("truncation heights must exceed 1")
    for T in (T1, T2):
        try:
            T ** (2 * k)
        except OverflowError:
            raise ValueError(f"height {T} too large: T^{2 * k} overflows a float") from None
    p_inf, p_zero = _cap_polynomials(k, j)
    i1 = _axis_integral(f, k - j + 1, T1)
    i2 = _axis_integral(f, k + j + 1, T2)
    eps = (-1) ** (k + 1)
    total = c_constant(k, j) * (i1 + eps * i2)
    if include_caps:
        total -= _cap_integral(f, p_inf, T1)
        total += _cap_integral(f, p_zero, T2)
    if abs(total.imag) > 1e-7 * (1.0 + abs(total.real)):
        raise ArithmeticError(
            f"period pairing unexpectedly non-real: {total} (k={k}, j={j})"
        )
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


def _tangent_direction(x: VecV, z: complex) -> Tuple[float, float]:
    """Unoriented tangent direction of the geodesic of x at z."""
    a, b, _ = _geodesic_params(x)
    if a == 0.0:
        return (0.0, 1.0)
    center = b / a
    return (-z.imag, z.real - center)


def _ambient_vector(v: VecV, z: complex) -> Tuple[float, float]:
    """Tangent vector at z corresponding to v in z-perp (inverse frame map).

    dY = sqrt2 Y^2 a,  dX = sqrt2 Y (X a - b); scale factors do not matter
    for orientation checks.
    """
    a, b, _ = _geodesic_params(v)
    X, Y = z.real, z.imag
    return (Y * (X * a - b), Y * Y * a)


def _orient(t: Tuple[float, float], ref: Tuple[float, float]) -> Tuple[float, float]:
    det = t[0] * ref[1] - t[1] * ref[0]
    if det == 0.0:
        raise GeometryError("degenerate tangent configuration")
    return t if det > 0 else (-t[0], -t[1])


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
        # one vertical line, one circle
        if ax == 0.0:
            X = -cx / (2 * bx)
            ac, bc, cc = ay, by, cy
        else:
            X = -cy / (2 * by)
            ac, bc, cc = ax, bx, cx
        Y2 = (2 * bc * X + cc) / ac - X * X
        if Y2 <= 0:
            raise GeometryError("geodesics do not cross in the upper half-plane")
        z = complex(X, math.sqrt(Y2))
    else:
        # two circles: radical line gives Re z
        denom = 2 * (bx * ay - by * ax)
        if denom == 0.0:
            raise GeometryError("concentric geodesics do not cross transversally")
        X = (ax * cy - ay * cx) / denom
        Y2 = (2 * bx * X + cx) / ax - X * X
        if Y2 <= 0:
            raise GeometryError("geodesics do not cross in the upper half-plane")
        z = complex(X, math.sqrt(Y2))
    tx = _orient(_tangent_direction(x, z), _ambient_vector(x, z))
    ty = _orient(_tangent_direction(y, z), _ambient_vector(y, z))
    det = tx[0] * ty[1] - tx[1] * ty[0]
    if det == 0.0:
        raise GeometryError("tangent directions degenerate at the crossing")
    return z, (1 if det > 0 else -1)
