"""The rational quadratic space of signature (2,1) in Witt-adapted coordinates.

A vector is stored as coordinates (a, b, c) and stands for the trace-zero
2x2 matrix [[b, c], [a, -b]], i.e. x = b*w0 + c*u - a*u' for the basis

    u  = [[0, 1], [0, 0]]      (isotropic, the infinity direction)
    u' = [[0, 0], [-1, 0]]     (isotropic, the zero direction, (u, u') = -1)
    w0 = [[1, 0], [0, -1]]     (spacelike, q(w0) = 1)

so q(x) = -det = b^2 + a*c and (x, y) = tr(xy) = 2 b_x b_y + a_x c_y + a_y c_x.

Orientation bookkeeping.  The ambient orientation is fixed by the orthonormal
frame e_1 = (u - u')/sqrt2, e_2 = w0/sqrt2, e_3 = (u + u')/sqrt2 with
(e_3, e_3) = -1.  In that frame the volume of (u, w0, u') is sqrt2 > 0, so the
determinant of coordinates in the (u, w0, u') basis is a positive multiple of
the true volume form; we take that determinant itself as ``triple`` (the
constant sqrt2 never matters because only signs are consumed).  The cross
product is defined by (cross(x, y), z) = triple(x, y, z).  "Points down" means
negative e_3-component; since e_3 = (u + u')/sqrt2 and (v, e_3) = -v_3 for the
e_3-component v_3 of v, that is exactly (v, u + u') > 0.  The intersection
sign of the oriented geodesics attached to two spacelike vectors spanning a
positive-definite plane is +1 precisely when their cross product points down.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, NoReturn, Sequence, Tuple

from .exact_arith import RationalLike, clear_denominators

__all__ = [
    "VecV",
    "U_VEC",
    "UPRIME_VEC",
    "W0_VEC",
    "GeometryError",
    "inner",
    "qform",
    "triple",
    "epsilon_sign",
    "epsilon_sign_int",
    "IsotropicLine",
    "LINE_INFINITY",
    "sigma_matrix",
    "conjugate_vec",
    "isotropic_lines_of",
    "is_rational_square",
    "rational_sqrt",
]


class GeometryError(ValueError):
    """Raised on invalid geometric input (non-positive planes and friends)."""


def _frozen(self, name: str, *value: object) -> NoReturn:
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class VecV:
    """Vector in the quadratic space, coordinates (a, b, c) as above: an
    immutable value with vector arithmetic, not a tuple."""

    __slots__ = ("a", "b", "c")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c))

    def __repr__(self) -> str:
        return f"VecV(a={self.a!r}, b={self.b!r}, c={self.c!r})"

    def __add__(self, other: "VecV") -> "VecV":
        return VecV(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "VecV") -> "VecV":
        return VecV(self.a - other.a, self.b - other.b, self.c - other.c)

    def __neg__(self) -> "VecV":
        return VecV(-self.a, -self.b, -self.c)

    def __rmul__(self, t: RationalLike) -> "VecV":
        t = Fraction(t)
        return VecV(t * self.a, t * self.b, t * self.c)

    def as_matrix(self) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
        return ((self.b, self.c), (self.a, -self.b))


U_VEC = VecV(0, 0, 1)
UPRIME_VEC = VecV(-1, 0, 0)
W0_VEC = VecV(0, 1, 0)


def inner(x: VecV, y: VecV) -> Fraction:
    """Bilinear form (x, y) = tr(xy)."""
    return 2 * x.b * y.b + x.a * y.c + y.a * x.c


def qform(x: VecV) -> Fraction:
    """Quadratic form q(x) = (x, x)/2 = -det of the matrix model."""
    return x.b * x.b + x.a * x.c


def triple(x: VecV, y: VecV, z: VecV) -> Fraction:
    """Alternating trilinear form: determinant of (u, w0, u')-coordinates.

    Positive multiple of the oriented volume; triple(u, w0, u') = 1.
    """
    # Coordinates of v in the (u, w0, u') basis are (c, b, -a).
    return (
        x.c * (y.b * -z.a - z.b * -y.a)
        - x.b * (y.c * -z.a - z.c * -y.a)
        + -x.a * (y.c * z.b - z.c * y.b)
    )


def epsilon_sign(x: VecV, y: VecV) -> int:
    """Intersection multiplicity (+1/-1) of the oriented geodesics of x and y.

    +1 iff cross(x, y) points down, i.e. (cross(x, y), u + u') > 0; see the
    module docstring for the derivation.  Requires x, y spacelike spanning a
    positive-definite plane.  Each vector is scaled by the lcm of its
    denominators, which changes neither the sign nor the plane test, and
    handed to ``epsilon_sign_int``.
    """
    return epsilon_sign_int(
        clear_denominators((x.a, x.b, x.c))[1], clear_denominators((y.a, y.b, y.c))[1]
    )


def epsilon_sign_int(x: Sequence[int], y: Sequence[int]) -> int:
    """``epsilon_sign`` on integral coordinates (a, b, c) of x and y.

    The plane test and the sign are homogeneous in each vector, so any
    positive multiples of x and y give the same answer.
    """
    xa, xb, xc = x
    ya, yb, yc = y
    qx = xb * xb + xa * xc
    qy = yb * yb + ya * yc
    ixy = 2 * xb * yb + xa * yc + ya * xc
    if qx <= 0 or qy <= 0 or 4 * qx * qy <= ixy * ixy:
        raise GeometryError("not a positive 2-plane")
    # (cross(x, y), u + u') = triple(x, y, u + u') by the defining property of
    # cross; with u + u' = (-1, 0, 1) the determinant expands to the line
    # below.  It is never 0: the complement of a positive 2-plane is a
    # negative line, so cross(x, y) is timelike and never orthogonal to e_3.
    return 1 if yb * (xa + xc) - xb * (ya + yc) > 0 else -1


def _normalize_cusp(alpha: int, beta: int) -> Tuple[int, int]:
    if alpha == 0 and beta == 0:
        raise GeometryError("cusp [0:0] is not projective")
    g = math.gcd(alpha, beta)
    alpha, beta = alpha // g, beta // g
    if beta < 0 or (beta == 0 and alpha < 0):
        alpha, beta = -alpha, -beta
    return alpha, beta


class IsotropicLine(NamedTuple):
    """Oriented rational isotropic line, given by its cusp [alpha : beta] alone,
    in lowest terms with beta > 0, or [1 : 0] (``from_cusp`` normalises).

    The cusp fixes the oriented generator, the primitive integral vector with
    matrix [[-alpha*beta, alpha^2], [-beta^2, alpha*beta]].
    """

    cusp: Tuple[int, int]

    @property
    def generator(self) -> VecV:
        alpha, beta = self.cusp
        return VecV(-beta * beta, -alpha * beta, alpha * alpha)

    @classmethod
    def from_cusp(cls, alpha: int, beta: int) -> "IsotropicLine":
        return cls(_normalize_cusp(alpha, beta))


LINE_INFINITY = IsotropicLine.from_cusp(1, 0)


def sigma_matrix(line: IsotropicLine) -> Tuple[int, int, int, int]:
    """Integral matrix (a, b, c, d), det 1, first column the cusp (alpha, beta).

    It moves the infinity cusp to the line's cusp and u to the line's
    oriented generator (under conjugation).
    """
    alpha, beta = line.cusp
    g, s, t = _xgcd(alpha, beta)
    assert g == 1
    # alpha*s + beta*t = 1; want alpha*d - beta*b = 1.
    return (alpha, -t, beta, s)


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q_ = old_r // r
        old_r, r = r, old_r - q_ * r
        old_s, s = s, old_s - q_ * s
        old_t, t = t, old_t - q_ * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def conjugate_vec(g: Sequence[RationalLike], x: VecV) -> VecV:
    """Action of g = (a, b, c, d) in SL_2 on the space: x -> g x g^(-1)."""
    p, q_, r, s = (Fraction(t) for t in g)
    det = p * s - q_ * r
    if det != 1:
        raise ValueError("conjugate_vec expects a determinant-1 matrix")
    (m00, m01), (m10, m11) = x.as_matrix()
    # g * X
    n00 = p * m00 + q_ * m10
    n01 = p * m01 + q_ * m11
    n10 = r * m00 + s * m10
    n11 = r * m01 + s * m11
    # (g X) * g^(-1), with g^(-1) = [[s, -q], [-r, p]]
    t00 = n00 * s + n01 * -r
    t01 = n00 * -q_ + n01 * p
    t10 = n10 * s + n11 * -r
    return VecV(t10, t00, t01)


def is_rational_square(q: Fraction) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def rational_sqrt(q: Fraction) -> Fraction:
    q = Fraction(q)
    if not is_rational_square(q):
        raise ValueError(f"{q} is not a rational square")
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def isotropic_lines_of(x: VecV) -> Tuple[IsotropicLine, IsotropicLine]:
    """The oriented pair of rational isotropic lines orthogonal to x.

    Ordered so that (generator_1, x, generator_2) is positively oriented,
    i.e. triple(u_1, x, u_2) > 0.  Requires q(x) to be a positive rational
    square (otherwise the geodesic is closed and has no rational endpoints).
    """
    q = qform(x)
    if q <= 0 or not is_rational_square(q):
        raise GeometryError("cycle is closed (non-split); no rational endpoints")
    s = rational_sqrt(q)
    if x.a != 0:
        # alpha/beta solves a t^2 - 2 b t - c = 0, t = (b +- s)/a
        lines = [
            _line_from_fraction((x.b + s) / x.a),
            _line_from_fraction((x.b - s) / x.a),
        ]
    else:
        second = _line_from_fraction(-x.c / (2 * x.b))
        lines = [LINE_INFINITY, second]
    l1, l2 = lines
    t = triple(l1.generator, x, l2.generator)
    if t == 0:
        raise GeometryError("degenerate isotropic pair")
    if t < 0:
        l1, l2 = l2, l1
    return l1, l2


def _line_from_fraction(t: Fraction) -> IsotropicLine:
    return IsotropicLine.from_cusp(t.numerator, t.denominator)
