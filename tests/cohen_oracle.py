"""Definitional routes for the Cohen kernels, for the tests only.

``kronecker_symbol`` factors m and multiplies Legendre symbols (Euler's
criterion) prime by prime; ``generalized_bernoulli`` sums Bernoulli
polynomials at a/|D| in exact rationals.  The package computes both by other
means (Jacobi reciprocity, integer power sums), so these are independent
references to compare against.
"""

from __future__ import annotations

from fractions import Fraction

from spectacle.exact_arith import (
    bernoulli_number,
    bernoulli_poly,
    factorize,
    is_fundamental_discriminant,
)


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
