"""Truncated q-expansions with exact rational coefficients.

Exponents live on the grid (1/exp_den) * Z>=0 and are stored by their
integer numerator; ``n_max`` bounds the stored numerators, so the reliable
exponent range is [0, n_max/exp_den].  Arithmetic and comparison work on the
numerators alone (two grids meet on the lcm of their exp_den); a ``Fraction``
exponent appears only at the public edge: the argument of ``coefficient`` and
``nonholo_coefficient`` and the exponent that ``first_mismatch`` returns.
Comparisons run over the common reliable range, and a coefficient lookup past
``n_max`` raises ``TruncationError``.  A product of two expansions lays both
factors out as dense coefficient lists on the common grid and hands them to
``exact_arith.poly_product`` (Kronecker substitution: one big-integer
multiply); the Cohen ring multiplies by theta^s with
``exact_arith.theta_product``, shifted adds on the same packing.

Table contract: a stored coefficient is an ``int`` when it is integral and a
``Fraction`` otherwise (an integral Fraction is stored as its numerator), and
a float is refused with ``TypeError``.  Most coefficients the package builds
are integers (intersection counts, theta and sigma values, most of H(r, N)),
so they are added and multiplied as ints; ``coefficient`` and
``nonholo_coefficient`` still return a ``Fraction``, and ``to_json_dict``
writes the same strings either way.  A division on table values goes through
``Fraction``, since int / int is a float.

An expansion may carry a separate non-holomorphic part: ``nonholo[m]`` is the
rational multiplier of q^(m/exp_den) / (pi * v) where v is the imaginary part
of the modular variable.  The two parts never mix; equality checks assert
them separately.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_arith import (
    RationalLike,
    _generalized_bernoulli,
    bernoulli_number,
    clear_denominators,
    divisor_power_sum,
    divisor_sums,
    divisors,
    is_fundamental_discriminant,
    kronecker_symbol,
    moebius,
    poly_product,
    theta_product,
)

Table = Dict[int, RationalLike]  # exponent numerator -> coefficient

__all__ = [
    "QExpansion",
    "TruncationError",
    "eisenstein_level1",
    "eisenstein_scale",
    "cohen_eisenstein",
    "cohen_bernoulli",
]


class TruncationError(ValueError):
    """Comparison or access beyond the reliable truncation range."""


def _rescaled(table: Table, scale: int) -> Table:
    """``table`` with every numerator moved to a grid ``scale`` times finer."""
    return table if scale == 1 else {n * scale: c for n, c in table.items()}


def _dense(table: Table, scale: int, top: int) -> List[RationalLike]:
    """The coefficient list, through numerator ``top``, of ``table`` moved to
    a grid ``scale`` times finer."""
    out: List[RationalLike] = [0] * (min(max(table, default=0) * scale, top) + 1)
    for n, c in table.items():
        if n * scale <= top:
            out[n * scale] = c
    return out


class QExpansion:
    """Truncated formal q-series over the rationals."""

    def __init__(
        self,
        exp_den: int,
        n_max: int,
        coeffs: Table,
        nonholo: Optional[Table] = None,
    ) -> None:
        if exp_den < 1:
            raise ValueError("exp_den must be >= 1")
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.exp_den = exp_den
        self.n_max = n_max
        self.coeffs = self._table(coeffs, "exponent")
        self.nonholo = None if nonholo is None else self._table(nonholo, "nonholo")

    def _table(self, d: Table, what: str) -> Table:
        """The nonzero entries of ``d``, each an int when integral and a
        Fraction otherwise; every numerator must be an integer, and those of
        nonzero entries lie in [0, n_max].  A float coefficient is a TypeError."""
        out: Table = {}
        for n, c in d.items():
            m = int(n)
            if m != n:
                raise ValueError(f"{what} numerator {n!r} is not an integer")
            if c:
                if m < 0 or m > self.n_max:
                    raise ValueError(f"{what} numerator {m} outside [0, {self.n_max}]")
                if type(c) is not int:
                    if isinstance(c, float):
                        raise TypeError(f"coefficient {c!r} at {what} numerator {m} is a float")
                    if type(c) is not Fraction:
                        c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                out[m] = c
        return out

    # -- bounds ------------------------------------------------------------

    @property
    def exponent_bound(self) -> Fraction:
        """Largest exponent this expansion is reliable up to."""
        return Fraction(self.n_max, self.exp_den)

    def _lookup(self, table: Optional[Table], e: RationalLike) -> Fraction:
        e = Fraction(e)
        if e < 0 or e > self.exponent_bound:
            raise TruncationError(f"exponent {e} outside [0, {self.exponent_bound}]")
        num = e * self.exp_den
        if not table or num.denominator != 1:
            return Fraction(0)
        return Fraction(table.get(num.numerator, 0))

    def coefficient(self, e: RationalLike) -> Fraction:
        """Coefficient of q^e; exact zero off the grid, error past n_max."""
        return self._lookup(self.coeffs, e)

    def nonholo_coefficient(self, e: RationalLike) -> Fraction:
        return self._lookup(self.nonholo, e)

    # -- arithmetic ----------------------------------------------------------

    def _unified(self, other: "QExpansion") -> Tuple[int, int]:
        """The common grid: its exp_den and the smaller bound's numerator on it."""
        den = math.lcm(self.exp_den, other.exp_den)
        n_max = min(self.n_max * (den // self.exp_den), other.n_max * (den // other.exp_den))
        return den, n_max

    def __add__(self, other: "QExpansion") -> "QExpansion":
        den, n_max = self._unified(other)
        out: Table = {}
        nh: Table = {}
        for src in (self, other):
            scale = den // src.exp_den
            for acc, table in ((out, src.coeffs), (nh, src.nonholo or {})):
                for n, c in table.items():
                    m = n * scale
                    if m <= n_max:
                        acc[m] = acc.get(m, 0) + c
        has_nh = self.nonholo is not None or other.nonholo is not None
        return QExpansion(den, n_max, out, nh if has_nh else None)

    def __rmul__(self, t: RationalLike) -> "QExpansion":
        return QExpansion(
            self.exp_den,
            self.n_max,
            {n: t * c for n, c in self.coeffs.items()},
            None
            if self.nonholo is None
            else {n: t * c for n, c in self.nonholo.items()},
        )

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        return self + (-1) * other

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        """Exact product, truncated at the smaller reliable bound, by
        ``poly_product`` on the common grid.

        A 1/(pi v) part times a holomorphic part stays a 1/(pi v) part; two
        1/(pi v) parts would give a 1/(pi v)^2 term, which is refused.
        """
        if not isinstance(other, QExpansion):
            return NotImplemented
        if self.nonholo and other.nonholo:
            raise ValueError("product of two non-holomorphic parts is not representable")
        den, n_max = self._unified(other)
        sa, sb = den // self.exp_den, den // other.exp_den

        def convolve(x: Table, y: Table) -> Table:
            prod = poly_product(_dense(x, sa, n_max), _dense(y, sb, n_max), n_max)
            return {e: c for e, c in enumerate(prod) if c}

        nh: Optional[Table] = None
        if self.nonholo is not None or other.nonholo is not None:
            # at most one of the two tables is non-empty
            nh = {
                **convolve(self.nonholo or {}, other.coeffs),
                **convolve(self.coeffs, other.nonholo or {}),
            }
        return QExpansion(den, n_max, convolve(self.coeffs, other.coeffs), nh)

    def dilate(self, m: int) -> "QExpansion":
        """Substitute q -> q^m (exponents scale by m)."""
        if m < 1:
            raise ValueError("dilation factor must be >= 1")
        g = math.gcd(m, self.exp_den)
        den = self.exp_den // g
        scale = m // g
        return QExpansion(
            den,
            self.n_max * scale,
            _rescaled(self.coeffs, scale),
            None if self.nonholo is None else _rescaled(self.nonholo, scale),
        )

    # -- comparison ----------------------------------------------------------

    def first_mismatch(
        self, other: "QExpansion"
    ) -> Optional[Tuple[Fraction, Fraction, Fraction, str]]:
        """First exponent in the common reliable range where they differ, or None.

        Returns (exponent, own value, other value, part) with part 'holo' or
        'nonholo'.
        """
        den, top = self._unified(other)
        parts = [
            (part, _rescaled(x, den // self.exp_den), _rescaled(y, den // other.exp_den))
            for part, x, y in (
                ("holo", self.coeffs, other.coeffs),
                ("nonholo", self.nonholo or {}, other.nonholo or {}),
            )
        ]
        for num in sorted({n for _, x, y in parts for n in (*x, *y) if n <= top}):
            for part, x, y in parts:
                a, b = x.get(num, 0), y.get(num, 0)
                if a != b:
                    return (Fraction(num, den), Fraction(a), Fraction(b), part)
        return None

    def multiple_of(
        self, other: "QExpansion"
    ) -> Tuple[Optional[Fraction], Optional[Tuple[Fraction, Fraction, Fraction, str]]]:
        """(lam, mismatch): lam = self/other read at the smallest exponent, on
        the common grid and within the common bound, where either stores a
        coefficient, and ``first_mismatch`` of self against lam * other.

        lam is None when other vanishes there or both are empty; the mismatch
        is then taken against other itself.
        """
        den, top = self._unified(other)
        a = _rescaled(self.coeffs, den // self.exp_den)
        b = _rescaled(other.coeffs, den // other.exp_den)
        first = min((n for n in (*a, *b) if n <= top), default=None)
        lam = Fraction(a.get(first, 0)) / b[first] if first in b else None
        return lam, self.first_mismatch(other if lam is None else lam * other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (
            self.exp_den == other.exp_den
            and self.n_max == other.n_max
            and self.coeffs == other.coeffs
            and (self.nonholo or {}) == (other.nonholo or {})
        )

    def __repr__(self) -> str:
        head = ", ".join(
            f"q^({n}/{self.exp_den}): {c}" if self.exp_den > 1 else f"q^{n}: {c}"
            for n, c in sorted(self.coeffs.items())[:6]
        )
        return f"QExpansion(exp_den={self.exp_den}, n_max={self.n_max}, [{head}...])"

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "exp_den": self.exp_den,
            "n_max": self.n_max,
            "coeffs": [[n, str(c)] for n, c in sorted(self.coeffs.items())],
            "nonholo": None
            if self.nonholo is None
            else [[n, str(c)] for n, c in sorted(self.nonholo.items())],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QExpansion":
        return cls(
            d["exp_den"],
            d["n_max"],
            {int(n): Fraction(c) for n, c in d["coeffs"]},
            None
            if d.get("nonholo") is None
            else {int(n): Fraction(c) for n, c in d["nonholo"]},
        )


@functools.cache
def eisenstein_scale(m: int) -> Fraction:
    """-2m/B_m, the factor of sigma_{m-1}(n) in E_m's q^n coefficient (n > 0)."""
    return -Fraction(2 * m) / bernoulli_number(m)


def eisenstein_level1(m: int, n_max: int) -> QExpansion:
    """Classical level-one Eisenstein series E_m = 1 - (2m/B_m) sum sigma_{m-1}(n) q^n.

    -2m/B_m = p/q is read first, so a weight whose B_m is refused computes no
    power; sigma_{m-1}(1..n_max) then comes from one ``divisor_sums`` sieve,
    O(n_max log n_max) additions, and q^n stores p sigma // q where q divides
    p sigma and ``Fraction(p sigma, q)`` elsewhere.
    """
    if m < 4 or m % 2:
        raise ValueError("weight must be even and >= 4")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p, q = eisenstein_scale(m).as_integer_ratio()
    coeffs: Table = {0: 1}
    for n, sigma in enumerate(divisor_sums(m - 1, n_max)[1:], 1):
        c = p * sigma
        coeffs[n] = c // q if c % q == 0 else Fraction(c, q)
    return QExpansion(1, n_max, coeffs)


def cohen_eisenstein(r: int, n_max: int) -> QExpansion:
    """Half-integral weight r + 1/2 Eisenstein coefficients H(r, N), N <= n_max.

    The route follows from r alone (times on a shared 2-core x86-64 machine).
    r = 1 is mock modular (Zagier 1975), so no form on Gamma0(4) has these
    coefficients, but H(1, N) is the Hurwitz class number: ``_hurwitz``
    counts reduced binary quadratic forms in O(n_max^1.5) additions (about
    0.001 s at N = 3840 and 0.004 s at 10^4).  For 2 <= r <= 5 the table is
    theta^s times a divisor-sum form on Gamma0(4) (``_cohen_ring``): one
    O(n_max log n_max) sieve and s <= 3 passes of sqrt(n_max) shifted adds
    on one packed int, with no dense product, so it grows like n_max^1.2
    (``cohen_eisenstein(4, N)``: about 0.002 s at N = 10^3, 0.007 s at 3840,
    0.02 s at 10^4 and 0.1 s at 4 10^4).  For r >= 6, M_{2r} has cusp forms,
    and the plus-space support and the constant term no longer pin H, so the
    table stays on Cohen's formula (``cohen_bernoulli``), which grows like
    n_max^2.  A negative n_max is refused before any route runs, with the
    message of every table.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if r == 1:
        return _hurwitz(n_max)
    return _cohen_ring(r, n_max) if 2 <= r <= 5 else cohen_bernoulli(r, n_max)


def _hurwitz(n_max: int) -> QExpansion:
    """H(1, N) for N <= n_max: H(0) = -B_2/2 = -1/12, and for N > 0 the
    Hurwitz class number, the count of reduced positive definite forms
    (a, b, c) of discriminant b^2 - 4ac = -N, with -a < b <= a <= c and
    b >= 0 when a = c, where multiples of x^2 + y^2 weigh 1/2 and of
    x^2 + xy + y^2 weigh 1/3.

    The walk runs over (a, b) with 0 <= b <= a and 3a^2 <= n_max, and adds
    each form's weight along N = 4ac - b^2, c = a, a + 1, ..., an arithmetic
    progression of step 4a; b and -b give the same N, so a form with
    0 < b < a and c > a counts twice.  The table holds 6 H(N) as ints: an
    ordinary form adds 6, (a, 0, a) adds 3 and (a, a, a) adds 2.  About
    (n_max/4) sqrt(n_max/3) additions in all.
    """
    six_h = [0] * (n_max + 1)
    a = 1
    while 3 * a * a <= n_max:
        step = 4 * a
        for b in range(a + 1):
            first = step * a - b * b  # c = a
            if first > n_max:
                continue
            six_h[first] += 3 if b == 0 else 2 if b == a else 6
            w = 12 if 0 < b < a else 6  # c > a, with -b for 0 < b < a
            for N in range(first + step, n_max + 1, step):
                six_h[N] += w
        a += 1
    table: Table = {
        n: c // 6 if c % 6 == 0 else Fraction(c, 6) for n, c in enumerate(six_h) if c
    }
    table[0] = -bernoulli_number(2) / 2
    return QExpansion(1, n_max, table)


def _solve(rows: List[List[Fraction]], rhs: List[Fraction]) -> List[Fraction]:
    """The solution of the square, nonsingular system rows * c = rhs, by exact
    Gauss-Jordan elimination."""
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    for i in range(len(m)):
        pivot = next(k for k in range(i, len(m)) if m[k][i])
        m[i], m[pivot] = m[pivot], m[i]
        m[i] = [c / m[i][i] for c in m[i]]
        for k in range(len(m)):
            if k != i and m[k][i]:
                m[k] = [a - m[k][i] * b for a, b in zip(m[k], m[i])]
    return [row[-1] for row in m]


# Each basis element of M_2J(Gamma0(4)), J = 1, 2, as (constant term, terms):
# its q^n coefficient for n > 0 is sum a sigma_{2J-1}(n/d) over the terms
# (a, d), where sigma(n/d) = 0 unless d | n.  J = 1: theta^4 by Jacobi's four
# squares, and F_2 = sum_{n odd} sigma_1(n) q^n, as
# sigma(n) - 3 sigma(n/2) + 2 sigma(n/4) vanishes at even n.  J = 2:
# E_4(d tau) = 1 + 240 sum sigma_3(m) q^(dm) for d = 1, 2, 4.
_BASIS = {
    1: ((1, ((8, 1), (-32, 4))), (0, ((1, 1), (-3, 2), (2, 4)))),
    2: tuple((1, ((240, d),)) for d in (1, 2, 4)),
}


def _divisor_series(
    const: int, terms: Sequence[Tuple[int, int]], sigma: List[int], n: int
) -> List[int]:
    """Coefficients 0..n of const + sum_{m > 0} sum_{(a, d)} a sigma[m/d] q^m,
    one slice pass per term; sigma[0] = 0 and len(sigma) > n."""
    out = [0] * (n + 1)
    for a, d in terms:
        out[::d] = [c + a * x for c, x in zip(out[::d], sigma)]
    out[0] = const
    return out


def _cohen_ring(r: int, n_max: int) -> QExpansion:
    """H(r, .) for 2 <= r <= 5 as theta^s G, with G in M_2J(Gamma0(4)),
    J = floor((2r + 1)/4) and s = 2r + 1 - 4J in {1, 3}.

    M_{r+1/2}(Gamma0(4)) is theta^s C[theta^4, F_2] in degree J (Koblitz,
    *Introduction to Elliptic Curves and Modular Forms*, Prop. IV.4), and its
    plus space, where the coefficient of q^N vanishes unless
    (-1)^r N = 0, 1 (mod 4), is one-dimensional because dim M_{2r} = 1.  So
    H is the one element with constant term -B_{2r}/(2r) that vanishes at
    the first J exponents off that support: one (J + 1) x (J + 1) exact
    solve on theta^s times each basis element below q^(4J + 1).  M_2 and
    M_4 of Gamma0(4) have no cusp forms, so every G is a divisor sum
    (``_BASIS``): one O(n_max log n_max) sieve of sigma_{2J-1}
    (``divisor_sums``, the sieve ``eisenstein_level1`` reads), and G is one
    integer combination of the basis over one denominator d, which
    ``theta_product`` multiplies by theta^s in s passes of
    floor(sqrt(n_max)) shifted adds on one packed int.
    """
    J, s = divmod(2 * r + 1, 4)
    off = [n for n in range(1, 4 * J + 1) if ((-1) ** r * n) % 4 in (2, 3)][:J]
    sigma = divisor_sums(2 * J - 1, max(n_max, off[-1]))
    basis = _BASIS[J]
    low = [theta_product(_divisor_series(*b, sigma, off[-1]), s, off[-1]) for b in basis]
    c = _solve(
        [[Fraction(b[n]) for b in low] for n in [0] + off],
        [-bernoulli_number(2 * r) / (2 * r)] + [Fraction(0)] * J,
    )
    d, e = clear_denominators(c)
    const = sum(ej * b[0] for ej, b in zip(e, basis))
    terms = [(ej * a, dd) for ej, b in zip(e, basis) for a, dd in b[1]]
    table = theta_product(_divisor_series(const, terms, sigma, n_max), s, n_max)
    return QExpansion(
        1, n_max, {n: c // d if c % d == 0 else Fraction(c, d) for n, c in enumerate(table)}
    )


def cohen_bernoulli(r: int, n_max: int) -> QExpansion:
    """H(r, N) for every r >= 1 from Cohen's formula: the route of
    ``cohen_eisenstein`` for r >= 6, and the independent second route for
    r = 1 (against the form count) and 2 <= r <= 5 (against the ring).

    H(r, 0) = zeta(1 - 2r); for N > 0 with (-1)^r N = D f^2 (D fundamental
    or 1),

        H(r, N) = (-B_{r,chi_D}/r) sum_{d | f} mu(d) chi_D(d) d^(r-1)
                  sigma_{2r-1}(f/d),

    and H(r, N) = 0 unless (-1)^r N = 0, 1 (mod 4).  The table is walked by
    (D, f), the formula's own index: D = (-1)^r a over the fundamental D with
    |D| <= n_max, then N = |D| f^2 over f <= sqrt(n_max/|D|), so B_{r,chi_D}
    is computed once per D, with no memo.  It is a half-range sum over the
    residues below |D|/2, with chi_D from a smallest-prime-factor sieve
    built per D over those residues (one Kronecker symbol per prime below
    |D|/2): O(|D| r / 2) integer work, so the table grows like n_max^2
    (``cohen_bernoulli(1, N)``: about 0.28 s at N = 3840 and 1.8 s at 10^4;
    ``cohen_bernoulli(4, N)``: about 0.07 s at N = 10^3, 0.6 s at 3840 and
    3.6 s at 10^4 of CPU, same machine).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    coeffs: List[RationalLike] = [-bernoulli_number(2 * r) / (2 * r)] + [0] * n_max  # zeta(1 - 2r)
    for a in range(1, n_max + 1):
        D = (-1) ** r * a
        if not is_fundamental_discriminant(D):
            continue
        scale = -_generalized_bernoulli(r, D) / r
        for f in range(1, math.isqrt(n_max // a) + 1):
            coeffs[a * f * f] = scale * sum(
                mu * kronecker_symbol(D, d) * d ** (r - 1) * divisor_power_sum(f // d, 2 * r - 1)
                for d in divisors(f)
                if (mu := moebius(d))
            )
    return QExpansion(1, n_max, dict(enumerate(coeffs)))
