"""Definitional routes for the Cohen kernels and tables, for the tests only.

``kronecker_symbol`` factors m and multiplies Legendre symbols (Euler's
criterion) prime by prime; ``generalized_bernoulli`` sums Bernoulli
polynomials at a/|D| in exact rationals.  The package computes both by other
means (Jacobi reciprocity, integer power sums), so these are independent
references to compare against.  ``koblitz_ring`` builds H(r, .) for
2 <= r <= 5 from the Koblitz basis by dense products, the route that the
package's divisor-sum basis and shifted adds replaced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from spectacle.exact_arith import (
    bernoulli_number,
    bernoulli_poly,
    clear_denominators,
    factorize,
    is_fundamental_discriminant,
    poly_product,
)
from spectacle.qseries import QExpansion, _solve


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def kronecker_symbol(D: int, m: int) -> int:
    """Kronecker symbol (D/m) for m >= 1, as a product over the primes of m."""
    if m < 1:
        raise ValueError("kronecker_symbol expects m >= 1")
    out = 1
    for p, e in factorize(m).items():
        if p == 2:
            if D % 2 == 0:
                return 0
            s = 1 if D % 8 in (1, 7) else -1
        else:
            s = _legendre(D, p)
            if s == 0:
                return 0
        if e % 2 == 1:
            out *= s
    return out


def generalized_bernoulli(n: int, D: int) -> Fraction:
    """B_{n,chi_D} = |D|^(n-1) * sum_{a=1}^{|D|} chi_D(a) B_n(a/|D|)."""
    if n < 1:
        raise ValueError("generalized Bernoulli index must be >= 1")
    if D == 1:
        return bernoulli_number(n)
    if not is_fundamental_discriminant(D):
        raise ValueError(f"D = {D} is not a fundamental discriminant")
    aD = abs(D)
    total = Fraction(0)
    for a in range(1, aD + 1):
        chi = kronecker_symbol(D, a)
        if chi:
            total += chi * bernoulli_poly(n, Fraction(a, aD))
    return Fraction(aD) ** (n - 1) * total


def theta_and_f2(n: int) -> Tuple[List[int], List[int]]:
    """Coefficients 0..n of theta = sum_{m in Z} q^(m^2) and of
    F_2 = sum_{m odd} sigma_1(m) q^m, the latter by a sieve over the odd
    divisors: O(n log n) additions."""
    theta = [1] + [0] * n
    for m in range(1, math.isqrt(n) + 1):
        theta[m * m] = 2
    f2 = [0] * (n + 1)
    for d in range(1, n + 1, 2):
        for m in range(d, n + 1, 2 * d):
            f2[m] += d
    return theta, f2


def koblitz_ring(r: int, n_max: int) -> QExpansion:
    """H(r, .) for 2 <= r <= 5 as an element of M_{r+1/2}(Gamma0(4)).

    That space has the basis theta^(s + 4(J - j)) F_2^j, j = 0..J, with
    J = floor((2r + 1)/4) and s = 2r + 1 - 4J in {1, 3} (Koblitz,
    *Introduction to Elliptic Curves and Modular Forms*, Prop. IV.4).  Its
    plus space, where the coefficient of q^N vanishes unless
    (-1)^r N = 0, 1 (mod 4), is one-dimensional because dim M_{2r} = 1.  So
    H is the one element with constant term -B_{2r}/(2r) that vanishes at
    the first J exponents off that support: one (J + 1) x (J + 1) exact
    solve on coefficients below q^4.  The c_j, cleared to one denominator
    d, are summed by Horner in F_2 over the powers of T = theta^4, then
    multiplied once by theta^s, all in integers and full-length
    ``poly_product`` calls.
    """
    J, s = divmod(2 * r + 1, 4)
    off = [n for n in range(1, 4 * J + 1) if ((-1) ** r * n) % 4 in (2, 3)][:J]
    top = max(n_max, off[-1])
    theta, f2 = theta_and_f2(top)
    theta2 = poly_product(theta, theta, top)
    powers = [poly_product(theta2, theta2, top)]  # T, T^2, ..., T^J
    while len(powers) < J:
        powers.append(poly_product(powers[-1], powers[0], top))
    head = theta if s == 1 else poly_product(theta2, theta, top)
    # coefficients 0..off[-1] of each basis element, for the solve
    low = off[-1]
    basis = []
    for j in range(J + 1):
        b = head[: low + 1]
        for _ in range(j):
            b = poly_product(b, f2, low)
        basis.append(poly_product(b, powers[J - j - 1], low) if j < J else b)
    c = _solve(
        [[Fraction(b[n]) for b in basis] for n in [0] + off],
        [-bernoulli_number(2 * r) / (2 * r)] + [Fraction(0)] * J,
    )
    d, e = clear_denominators(c)
    # sum_j e_j T^(J - j) F_2^j = (...((e_J F_2 + e_{J-1} T) F_2 + ...) F_2) + e_0 T^J
    acc = [e[J] * a for a in f2]
    for j in range(J - 1, 0, -1):
        acc = poly_product([a + e[j] * t for a, t in zip(acc, powers[J - j - 1])], f2, top)
    acc = [a + e[0] * t for a, t in zip(acc, powers[J - 1])]
    table = poly_product(head, acc, n_max)
    return QExpansion(
        1, n_max, {n: c // d if c % d == 0 else Fraction(c, d) for n, c in enumerate(table)}
    )
