"""Cap coefficient vectors for capped geodesic cycles.

A geodesic joining two rational cusps carries a constant coefficient v.  At a
cusp of width M with boundary position r, the cap is the unique vector w with

    (gamma^(-1) - Id) w = v          (gamma = n(M) in cusp-normal form)

whose boundary period polynomial t -> (n(t) u'^k, w) integrates to zero over
one width [r, r + M].  The jump equation is solvable exactly when v has no
component on the lowest weight e2^(2k) (equivalently v is orthogonal to the
highest weight vector u^k), and then w is unique up to u^k; the period
normalization removes that freedom because (n(t) u'^k, u^k) = (-1)^k is a
nonzero constant.

Every cap the package places comes from ``cap_closed_form``, the
Bernoulli-polynomial closed formula

    w = sum_{j=i-1}^{k} (-M)^(j-i) C(k+j, j+1-i) B_{j+1-i}(-r/M)/(k+i) v_{2j}

for jump value n(r) v_{2i}, evaluated in one integer pass: with x = -r/M =
p/q and L B_0, ..., L B_K (K = k+1-i) the integers of
``exact_arith.bernoulli_cleared``, each A_m = L q^m B_m(x) is an integer
Horner in p, and each coefficient is one Fraction.  B_(K - K mod 2) is read
first, so a K past the Bernoulli bound is refused at once.  ``cap_solve``
(the nilpotent triangular system plus the exact polynomial integral) is its
oracle in verify-all and the tests, which also keep the term-by-term
``bernoulli_poly`` form as a second one.
``spectacle_assemble(x, k, level)`` caps the cycle whose coefficient is
v = embed_power(x, k); its record keeps x and k, which fix v, and not v.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial
from typing import Callable, NamedTuple, Optional, Tuple

from .exact_arith import RationalLike, bernoulli_cleared
from .quad_space import (
    GeometryError,
    IsotropicLine,
    VecV,
    conjugate_vec,
    is_rational_square,
    isotropic_lines_of,
    qform,
    sigma_matrix,
)
from .sym_rep import SymVector, act

__all__ = [
    "CapInput",
    "CuspCap",
    "SpectacleCycle",
    "CapJumpError",
    "cap_solve",
    "cap_closed_form",
    "spectacle_assemble",
    "boundary_pairing_polynomial",
    "gamma0_width",
]


class CapJumpError(ValueError):
    """Jump value not capped off by any boundary chain."""


class _CapFields(NamedTuple):
    k: int
    width: Fraction
    position: Fraction
    jump: SymVector


class CapInput(_CapFields):
    """Cap problem at one cusp, in cusp-normal (infinity) coordinates.

    k: coefficient degree; width: the cusp width M > 0; position: the
    boundary point r; jump: the jump value v, orthogonal to u^k.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace refuses too

    def __new__(cls, k: int, width: RationalLike, position: RationalLike, jump: SymVector) -> "CapInput":
        width, position = Fraction(width), Fraction(position)
        if width <= 0:
            raise ValueError("cusp width must be positive")
        if jump.k != k:
            raise ValueError("jump value degree does not match k")
        return super().__new__(cls, k, width, position, jump)


def boundary_pairing_polynomial(w: SymVector) -> Tuple[Fraction, ...]:
    """Coefficients (in t) of p(t) = pairing(n(t) u'^k, w).

    With the monomial expansion n(t) u'^k = sum_m C(2k, m) t^m e1^m e2^(2k-m)
    the pairing collapses to p(t) = sum_m (-1)^(k+m) w_{2k-m} t^m.
    """
    k = w.k
    n = 2 * k
    return tuple((-1) ** (k + m) * w.coeffs[n - m] for m in range(n + 1))


def _poly_integral(coeffs: Tuple[Fraction, ...], lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    for m, c in enumerate(coeffs):
        if c:
            total += c * (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
    return total


def cap_solve(inp: CapInput) -> SymVector:
    """Solve the jump equation with vanishing boundary period.

    gamma^(-1) - Id = exp(-M R) - Id is nilpotent triangular in the monomial
    basis; the system is solved bottom-up, and the leftover u^k freedom is
    fixed by the exact integral of the period polynomial over [r, r + M].
    """
    k, M, r, v = inp.k, inp.width, inp.position, inp.jump
    n = 2 * k
    if v.coeffs[0] != 0:
        raise CapJumpError(
            "no primitive: jump has highest-weight component "
            "(not orthogonal to u^k)"
        )
    # (exp(-M R) - Id) w at index m pulls w_{m-j} with weight
    # (-M)^j / j! * (2k - m + j)! / (2k - m)! = (-M)^j C(2k - m + j, j).
    w = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = v.coeffs[m]
        for j in range(2, m + 1):
            acc -= (-M) ** j * comb(n - m + j, j) * w[m - j]
        w[m - 1] = acc / (-M * (n - m + 1))
    # Normalize: subtract the right multiple of u^k so the period vanishes.
    p = boundary_pairing_polynomial(SymVector(k, tuple(w)))
    period = _poly_integral(p, r, r + M)
    # u^k contributes the constant (-1)^k to p(t), hence (-1)^k * M to the
    # integral.
    w[n] -= period / ((-1) ** k * M)
    return SymVector(k, tuple(w))


def cap_closed_form(
    k: int, i: int, r: RationalLike, M: RationalLike
) -> SymVector:
    """Bernoulli closed form of the cap for jump value n(r) v_{2i}.

    Valid for -k+1 <= i <= k; the sum starts at j = i-1 and that first term
    is genuinely nonzero (its binomial is C(k+i-1, 0) = 1).  A k + 1 - i past
    the Bernoulli bound raises ``ValueError`` at once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (-k + 1 <= i <= k):
        raise ValueError(f"weight index i={i} out of range [{1 - k}, {k}]")
    r = Fraction(r)
    M = Fraction(M)
    if M <= 0:
        raise ValueError("width must be positive")
    # term m = j + 1 - i: with M = a/b, A_m = L q^m B_m(x) =
    # sum_l C(m, l) (L B_l) p^(m-l) q^l and C(k+j, m) times the weight
    # normalizer (-2)^k (k!)^2 / ((k+j)! (k-j)!), coefficient k + j is
    # (-1)^(m-1) (-2)^k (k!)^2 A_m a^(m-1) / (b^(m-1) L q^m (k+i)! m! (K-m)!).
    K = k + 1 - i
    L, cleared = bernoulli_cleared(K)
    x = -r / M
    p, q = x.numerator, x.denominator
    a, b = M.numerator, M.denominator
    scaled = [c * q**l for l, c in enumerate(cleared)]  # L B_l q^l
    top = (-2) ** k * factorial(k) ** 2 * b
    bottom = a * L * factorial(k + i)
    out = [Fraction(0)] * (2 * k + 1)
    for m in range(K + 1):
        # Horner in p; at p = 0 every term but l = m vanishes, so skip them
        A = 0
        for l in range(0 if p else m, m + 1):
            A = A * p + comb(m, l) * scaled[l]
        out[k + i - 1 + m] = Fraction(
            (top if m % 2 else -top) * A * a**m,
            bottom * (b * q) ** m * factorial(m) * factorial(K - m),
        )
    return SymVector(k, tuple(out))


def gamma0_width(N: int) -> Callable[[IsotropicLine], Fraction]:
    """Cusp width function for the level-N congruence group Gamma_0(N)."""
    if N < 1:
        raise ValueError("level must be >= 1")

    def width(line: IsotropicLine) -> Fraction:
        _, beta = line.cusp
        return Fraction(N, math.gcd(beta * beta, N))

    return width


class CuspCap(NamedTuple):
    """The cap of a split cycle at one of its cusps: the isotropic line, the
    boundary position r in the cusp's normal form, and the cap vector (in
    global coordinates)."""

    line: IsotropicLine
    position: Fraction
    vector: SymVector


class SpectacleCycle(NamedTuple):
    """Full capped-cycle data for a spacelike vector x, with coefficient
    embed_power(x, k).

    For split x (q(x) a positive rational square) the geodesic runs from the
    second cusp to the first one, and ``caps`` is the pair (first, second) of
    its ``CuspCap``s; the capped cycle is
    geodesic - (chain at first cusp) (x) caps[0].vector
             + (chain at second cusp) (x) caps[1].vector.
    For non-split x the geodesic is closed and ``caps`` is None.
    """

    x: VecV
    k: int
    caps: Optional[Tuple[CuspCap, CuspCap]]


def _cusp_cap(line: IsotropicLine, x: VecV, k: int, width: Fraction) -> CuspCap:
    """Closed-form cap at one cusp, moved back from normal form, where x is
    (0, b, c) = b n(r) w0 with r = -c/(2b): the jump x^k is b^k n(r) v_0, and
    caps are linear in the jump."""
    sig = sigma_matrix(line)
    xt = conjugate_vec((sig[3], -sig[1], -sig[2], sig[0]), x)
    if xt.a != 0:
        raise GeometryError("transported geodesic is not vertical")
    r = -xt.c / (2 * xt.b)
    return CuspCap(line, r, act(sig, xt.b**k * cap_closed_form(k, 0, r, width)))


def spectacle_assemble(x: VecV, k: int, level: int = 1) -> SpectacleCycle:
    """Assemble the capped cycle carrying the coefficient embed_power(x, k),
    with the cusp widths of Gamma_0(level)."""
    width = gamma0_width(level)
    q = qform(x)
    if q <= 0:
        raise GeometryError("x must be spacelike (q(x) > 0)")
    if k < 1:
        raise ValueError("coefficient degree k must be >= 1 to cap off")
    if not is_rational_square(q):
        return SpectacleCycle(x, k, None)  # closed geodesic: nothing to cap
    caps = tuple(_cusp_cap(line, x, k, width(line)) for line in isotropic_lines_of(x))
    return SpectacleCycle(x, k, caps)
