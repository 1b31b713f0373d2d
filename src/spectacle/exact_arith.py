"""Exact rational arithmetic used everywhere else in the package.

Bernoulli numbers and polynomials, generalized Bernoulli numbers attached to
quadratic characters, Kronecker symbols, divisor-power sums (one n by trial
division, or all n up to a bound from one sieve), a few small
multiplicative helpers, and two products of coefficient lists on one packed
integer: ``poly_product`` of rational lists, and ``theta_product``, theta^s
times an integer list by shifted adds.  Every function returns exact values;
no floating point appears in this module.

Conventions
-----------
* ``RationalLike`` (an ``int`` or a ``fractions.Fraction``) is the one
  alias for an exact rational argument in the package.
* Bernoulli numbers use B_1 = -1/2, so that B_n = B_n(0) with
  B_n(x) = sum_j C(n, j) B_j x^(n-j).  The shifted-argument cap formulas only
  come out right in this convention.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, isqrt, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "RationalLike",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_cleared",
    "kronecker_symbol",
    "generalized_bernoulli",
    "divisor_power_sum",
    "divisor_sums",
    "divisors",
    "factorize",
    "moebius",
    "is_fundamental_discriminant",
    "fundamental_discriminant_split",
    "clear_denominators",
    "poly_product",
    "theta_product",
]

@functools.cache
def _tangent_numbers(m: int) -> Tuple[int, ...]:
    """The tangent numbers T_1..T_m (1, 2, 16, 272, ...), in integers, by the
    m(m-1)/2 steps of the Brent-Harvey triangle with multipliers below m + 2."""
    t = [0, 1]  # t[i] = (i-1)! here, T_i once the passes below are done
    for i in range(2, m + 1):
        t.append((i - 1) * t[i - 1])
    for p in range(2, m + 1):
        for i in range(p, m + 1):
            t[i] = (i - p) * t[i - 1] + (i - p + 2) * t[i]
    return tuple(t[1:])


@functools.cache
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), as an exact Fraction.

    B_0 = 1, B_1 = -1/2, B_n = 0 for odd n >= 3, and for n = 2m
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) with T_m the m-th tangent
    number.  T_m is read from the cached triangle of the least power of two
    M >= m, so no B_n reads another, a cold B_2m takes under 2 m^2 integer
    steps, and filling B_0..B_2m (as ``bernoulli_poly`` does) about
    (2/3) M^2 in all, where one triangle per m would take m^3 / 6.

    An even index above 2048, the largest whose triangle is that of 1024, is
    refused with ``ValueError`` before any triangle is built: the cost grows
    about as n^3 (B_2050 takes seconds, B_6400 most of a minute), and every
    route reads B_n here.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n < 2:
        return Fraction(-1, 2) if n else Fraction(1)
    if n % 2:
        return Fraction(0)
    if n > 2048:
        raise ValueError(f"Bernoulli index {n} exceeds 2048, the largest computed")
    m = n // 2
    four = 4**m
    tangent = _tangent_numbers(1 << (m - 1).bit_length())[m - 1]
    return Fraction((-1) ** (m - 1) * n * tangent, four * (four - 1))


def bernoulli_poly(n: int, x: RationalLike) -> Fraction:
    """Bernoulli polynomial B_n(x) = sum_j C(n, j) B_j x^(n-j).

    For an int or Fraction x = p/q, with L the lcm of the denominators of
    B_0..B_n (``bernoulli_cleared``), L q^n B_n(x) = sum_j C(n, j) (L B_j)
    p^(n-j) q^j is an integer, so the Horner loop runs on integers and one
    Fraction is built at the end.  B_n(0) is B_n, read without the loop.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if x == 0:
        return bernoulli_number(n)
    p, q = x.numerator, x.denominator
    L, cleared = bernoulli_cleared(n)
    acc, q_j = 0, 1
    for j, c in enumerate(cleared):
        acc = acc * p + comb(n, j) * c * q_j
        q_j *= q
    return Fraction(acc, L * q**n)


def bernoulli_cleared(n: int) -> Tuple[int, List[int]]:
    """(L, [L B_0, ..., L B_n]) with L the lcm of the denominators of
    B_0..B_n, so every entry is an integer.  B_(n - n mod 2) is read first,
    so an index past the bound is refused before any other is computed."""
    bernoulli_number(n - n % 2)
    ratios = [bernoulli_number(j).as_integer_ratio() for j in range(n + 1)]
    L = lcm(*(d for _, d in ratios))
    return L, [a * (L // d) for a, d in ratios]


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> List[int]:
    """Sorted list of positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("divisors expects n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def moebius(n: int) -> int:
    """Moebius function mu(n)."""
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu if n > 1 else 1


def divisor_power_sum(n: int, k: int) -> int:
    """sigma_k(n) = sum of d^k over positive divisors d of n."""
    if n < 1:
        raise ValueError("divisor_power_sum expects n >= 1")
    if k < 0:
        raise ValueError("divisor_power_sum expects k >= 0")
    return sum(d**k for d in divisors(n))


def divisor_sums(k: int, n: int) -> List[int]:
    """[0, sigma_k(1), ..., sigma_k(n)] from one sieve: each d <= n adds d^k
    to its multiples, n powers and about n ln n additions in all, where
    ``divisor_power_sum`` over the same range divides about n^1.5 times."""
    if n < 0:
        raise ValueError("divisor_sums expects n >= 0")
    if k < 0:
        raise ValueError("divisor_sums expects k >= 0")
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        power = d**k
        for m in range(d, n + 1, d):
            sigma[m] += power
    return sigma


def kronecker_symbol(D: int, m: int) -> int:
    """Kronecker symbol (D/m) for m >= 1, completely multiplicative in m.

    The factor 2^v of m contributes (D/2)^v; the odd part is the Jacobi symbol,
    evaluated by quadratic reciprocity without factoring m.
    """
    if m < 1:
        raise ValueError("kronecker_symbol expects m >= 1")
    s = 1
    v = (m & -m).bit_length() - 1
    if v:
        if D % 2 == 0:
            return 0
        if v % 2 and D % 8 in (3, 5):
            s = -1
        m >>= v
    a = D % m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                s = -s
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            s = -s
        a %= m
    return s if m == 1 else 0


def _fundamental_defect(D: int) -> Optional[str]:
    """Why D is not a fundamental discriminant; None for 1 and fundamental D."""
    head = f"D = {D} is not a fundamental discriminant"
    if D == 0:
        return head
    r = D % 4
    if r in (2, 3):
        return f"{head}: D = {r} (mod 4)"
    q = D if r == 1 else D // 4
    if r == 0 and q % 4 in (0, 1):
        return f"{head}: divisible by the square 2**2 (D/4 = {q % 4} mod 4)"
    for p, e in factorize(abs(q)).items():
        if e > 1:
            return f"{head}: divisible by the square {p}**2"
    return None


def is_fundamental_discriminant(D: int) -> bool:
    """True when D is 1 or a fundamental discriminant."""
    return _fundamental_defect(D) is None


def _character_table(D: int, half: int) -> List[int]:
    """chi_D(a) for 0 <= a <= half (entry 0 is 0), for |D| > 1 and half >= 1.

    Complete multiplicativity over a smallest-prime-factor sieve of
    0..half, built for this D: chi_D(p) is one ``kronecker_symbol`` per
    prime p, and chi_D(a) = chi_D(p) chi_D(a/p) for composite a with
    smallest prime factor p.
    """
    spf = list(range(half + 1))
    # every multiple of p from p^2 on, largest p first: the smallest divisor
    # d >= 2 of a composite a (a prime, with d^2 <= a) is written last
    for p in range(isqrt(half), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, half + 1, p))
    chi = [0, 1] + [0] * (half - 1)
    for a in range(2, half + 1):
        p = spf[a]
        chi[a] = kronecker_symbol(D, p) if p == a else chi[p] * chi[a // p]
    return chi


def generalized_bernoulli(n: int, D: int) -> Fraction:
    """Generalized Bernoulli number B_{n,chi_D} for the quadratic character
    chi_D attached to a fundamental discriminant D (or the trivial character
    for D = 1).

    By definition B_{n,chi} = m^(n-1) sum_{a=1}^{m} chi_D(a) B_n(a/m) with
    m = |D|.  The terms a and m - a agree up to the sign sgn(D) (-1)^n,
    because chi_D(m - a) = sgn(D) chi_D(a) and B_n(1 - x) = (-1)^n B_n(x);
    chi_D(m) = 0, and so is chi_D(m/2) for even m.  Expanding
    B_n(a/m) = sum_j C(n, j) B_j (a/m)^(n-j) then gives the half-range sum

        B_{n,chi} = (1 + sgn(D) (-1)^n) sum_{j=0}^{n} C(n, j) B_j m^(j-1) S'_{n-j},
        S'_i = sum_{1 <= a < m/2} chi_D(a) a^i,

    so the wrong parity is 0 without any summing.  Otherwise chi_D over
    a < m/2 comes from a smallest-prime-factor sieve built for this D over
    the residues below m/2 (one Kronecker symbol per prime below m/2), and
    S'_0..S'_n from n products over the a with chi_D(a) != 0: O(|D| n / 2)
    integer work, then n + 1 rational terms.
    """
    if n < 1:
        raise ValueError("generalized Bernoulli index must be >= 1")
    defect = _fundamental_defect(D)  # None for D = 1
    if defect is not None:
        raise ValueError(defect)
    return _generalized_bernoulli(n, D)


def _generalized_bernoulli(n: int, D: int) -> Fraction:
    """``generalized_bernoulli`` for n >= 1 and D already known to be 1 or a
    fundamental discriminant: the same sum, with no validation."""
    if D == 1:
        # Trivial character mod 1; only reached with n >= 2 in the Cohen
        # coefficient formula, where the a=1 endpoint convention is moot.
        return bernoulli_number(n)
    reflect = 1 + (1 if D > 0 else -1) * (-1) ** n  # 0 or 2
    if not reflect:
        return Fraction(0)
    bernoulli_number(n - n % 2)  # the largest even index first, so a refusal comes at once
    m = abs(D)
    chi = _character_table(D, (m - 1) // 2)
    # S'_i = (sum of a^i over chi_D(a) = 1) - (sum of a^i over chi_D(a) = -1)
    plus = [a for a, c in enumerate(chi) if c > 0]
    minus = [a for a, c in enumerate(chi) if c < 0]
    S = [len(plus) - len(minus)]
    up, down = plus, minus  # a^i over each set, for i = 1, 2, ...
    for i in range(1, n + 1):
        S.append(sum(up) - sum(down))
        if i < n:
            up, down = list(map(mul, up, plus)), list(map(mul, down, minus))
    total = sum(
        comb(n, j) * bernoulli_number(j) * m**j * S[n - j] for j in range(n + 1)
    )
    return reflect * total / m


def fundamental_discriminant_split(delta: int) -> Tuple[int, int]:
    """Write delta = D * f**2 with D fundamental (or 1) and f >= 1.

    Requires delta != 0 and delta = 0 or 1 (mod 4).
    """
    if delta == 0:
        raise ValueError("discriminant must be nonzero")
    if delta % 4 not in (0, 1):
        raise ValueError(f"{delta} is not 0 or 1 (mod 4)")
    sign = 1 if delta > 0 else -1
    s = 1  # squarefree kernel (with sign)
    t = 1  # extracted square root
    for p, e in factorize(abs(delta)).items():
        t *= p ** (e // 2)
        if e % 2:
            s *= p
    s *= sign
    if s % 4 == 1:
        return s, t
    # s = 2, 3 (mod 4): the fundamental discriminant is 4s and t must be even
    # because delta = s t^2 = 0, 1 (mod 4) forces 2 | t.
    return 4 * s, t // 2


def clear_denominators(x: Sequence[RationalLike]) -> Tuple[int, List[int]]:
    """(d, [d c for c in x]) with d >= 1 the least common denominator of x."""
    d = lcm(*(c.denominator for c in x))
    return d, [c.numerator * (d // c.denominator) for c in x]


def _bias(width: int, count: int) -> int:
    """2^(8 width - 1) in each of ``count`` slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _packed(nums: List[int], width: int) -> int:
    """sum_i nums[i] 2^(8 width i), in one pass: each slot is written as
    nums[i] + 2^(8 width - 1), which ``width`` bytes hold without a sign, and
    that offset in every slot, the bias, is subtracted once."""
    half = 1 << (8 * width - 1)
    raw = b"".join((c + half).to_bytes(width, "little") for c in nums)
    return int.from_bytes(raw, "little") - _bias(width, len(nums))


def _unpacked(value: int, width: int, n: int) -> List[int]:
    """Slots 0..n of ``value``, read modulo 2^(8 width (n + 1)), each of them
    in (-2^(8 width - 1), 2^(8 width - 1)): the bias makes every slot
    non-negative without carries, and a mask (linear, where a modulo is a
    quadratic long division) cuts the rest, for either sign of ``value``."""
    size = width * (n + 1)
    raw = ((value + _bias(width, n + 1)) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, size, width)]


def poly_product(
    x: Sequence[RationalLike], y: Sequence[RationalLike], n: int
) -> List[RationalLike]:
    """Coefficients 0..n of the product of the polynomials with coefficient
    lists x and y (constant term first), each an int when it is integral and
    a Fraction otherwise: with a common denominator d != 1, a slot c that d
    divides is returned as c // d.

    Kronecker substitution: each factor, cleared to one integer denominator
    and cut to n + 1 terms, is one int in slots of w bytes, and one integer
    multiply convolves them.  A product coefficient sums at most n + 1
    terms, so w bytes hold it in bitlen(max|x|) + bitlen(max|y|) +
    bitlen(n + 1) bits and a sign bit.
    """
    if n < 0:
        raise ValueError("poly_product needs n >= 0")
    (dx, xs), (dy, ys) = clear_denominators(x[: n + 1]), clear_denominators(y[: n + 1])
    bits = sum(max(map(abs, v), default=0).bit_length() for v in (xs, ys))
    width = (bits + (n + 1).bit_length() + 8) // 8  # one sign bit, rounded up
    out, den = _unpacked(_packed(xs, width) * _packed(ys, width), width, n), dx * dy
    return out if den == 1 else [c // den if c % den == 0 else Fraction(c, den) for c in out]


def theta_product(g: Sequence[int], s: int, n: int) -> List[int]:
    """Coefficients 0..n of theta^s g, theta = sum_{m in Z} q^(m^2), for a list
    g of ints: s passes of P + 2 sum_m P 2^(8 w m^2), 1 <= m <= sqrt(n), on g
    packed as one int P in slots of w bytes, each pass cut to n + 1 slots by
    a mask.  The cut is exact modulo 2^(8 w (n + 1)), which is all
    ``_unpacked`` reads, so only the result must fit a slot: its coefficients
    are at most max|g| (2 floor(sqrt(n)) + 1)^s in size.
    """
    g, root = g[: n + 1], isqrt(n)
    bound = max(map(abs, g), default=0) * (2 * root + 1) ** s
    width = (bound.bit_length() + 8) // 8  # one sign bit, rounded up
    p, mask = _packed(g, width), (1 << 8 * width * (n + 1)) - 1
    shifts = [8 * width * m * m for m in range(1, root + 1)]
    for _ in range(s):
        p = (p + 2 * sum(p << k for k in shifts)) & mask
    return _unpacked(p, width, n)
