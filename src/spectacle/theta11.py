"""Generating series of weighted 0-cycles for a split rank-2 lattice.

For the split plane spanned by isotropic u, u' with (u, u') = -1 and a coset
(M1 Z + h1) u + (M2 Z + h2) u', the series attached to a coefficient
w = w_u u^k + w_u' u'^k has

* constant term
    - delta(h2=0) M1^k B_{k+1}(h1/M1)/(k+1) (w, u^k)
    - delta(h1=0) M2^k B_{k+1}(h2/M2)/(k+1) (w, u'^k),
  with (u^k, u'^k) = (-1)^k and (u^k, u^k) = (u'^k, u'^k) = 0;
* coefficient of q^n (n > 0): the finite sum over coset points
  x = m1 u + m2 u' with -m1 m2 = n, m1 m2 < 0, of
  sgn(m1) * [w_u (-m2)^k + w_u' (-m1)^k];
* for k = 1 a non-holomorphic constant
  [delta(h1=0)(w, u)/(4 M2) + delta(h2=0)(w, u')/(4 M1)] / (pi v).
Each delta is one isotropic line: the coset meets the line of u iff h2 = 0
and that of u' iff h1 = 0, and each line it meets adds both terms.

The literal formula above and the classical normalization disagree by one
global sign: at level one with w = u'^k the series must equal
(-B_{k+1}/(k+1)) E_{k+1}, whose q-coefficients are +2 sigma_k(n), while the
literal sum produces -2 sigma_k(n).  ``global_sign`` calibrates that sign once
against the Eisenstein expansion and ``theta11_series`` applies it to the
whole series (both parts); nothing is hard-coded.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from math import lcm
from typing import Dict, NamedTuple, Optional, Tuple

from .exact_arith import RationalLike, bernoulli_number, bernoulli_poly
from .qseries import QExpansion, eisenstein_level1

__all__ = [
    "SplitLatticeU",
    "theta11_series",
    "global_sign",
    "siegel_weil_check",
]


class _LatticeFields(NamedTuple):
    M1: Fraction
    h1: Fraction
    M2: Fraction
    h2: Fraction


class SplitLatticeU(_LatticeFields):
    """Coset (M1 Z + h1) u + (M2 Z + h2) u' of a split rank-2 lattice."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace refuses too

    def __new__(cls, M1: RationalLike, h1: RationalLike, M2: RationalLike, h2: RationalLike
                ) -> "SplitLatticeU":
        M1, h1, M2, h2 = Fraction(M1), Fraction(h1), Fraction(M2), Fraction(h2)
        if M1 <= 0 or M2 <= 0:
            raise ValueError("progression steps must be positive")
        if not (0 <= h1 < M1 and 0 <= h2 < M2):
            raise ValueError("offsets must satisfy 0 <= h < M")
        return super().__new__(cls, M1, h1, M2, h2)

    @classmethod
    def unimodular(cls) -> "SplitLatticeU":
        return cls(Fraction(1), Fraction(0), Fraction(1), Fraction(0))

    def exp_den(self) -> int:
        """Common denominator of all products m1*m2 over the two cosets."""
        dens = [
            (self.M1 * self.M2).denominator,
            (self.M1 * self.h2).denominator,
            (self.h1 * self.M2).denominator,
            (self.h1 * self.h2).denominator,
        ]
        return lcm(*dens)


def _literal_series(
    lat: SplitLatticeU, k: int, w_u: Fraction, w_up: Fraction, n_max: int
) -> QExpansion:
    """The series exactly as displayed, before the global sign is applied."""
    den = lat.exp_den()
    coeffs: Dict[int, RationalLike] = {}
    # the line of u, then that of u' (step, offset along, offset across): the
    # constant reads (w, u^k) = (-1)^k w_u' (resp. (w, u'^k) = (-1)^k w_u) and
    # the k = 1 term (w, u') = -w_u (resp. (w, u) = -w_u')
    const = nh = Fraction(0)
    lines = ((lat.M1, lat.h1, lat.h2, w_up, w_u), (lat.M2, lat.h2, lat.h1, w_u, w_up))
    for M, h, off, w_pair, w_nh in lines:
        if off == 0:
            const += -(M**k) * bernoulli_poly(k + 1, h / M) / (k + 1) * (w_pair * (-1) ** k)
            nh += -w_nh / (4 * M)
    # m1 = i/D1 and m2 = j/D2 with i, j on the integer progressions
    # o + s Z; -m1 m2 <= n_max/den  <=>  |i j| den <= n_max D1 D2.
    D1 = lcm(lat.M1.denominator, lat.h1.denominator)
    D2 = lcm(lat.M2.denominator, lat.h2.denominator)
    o1, s1 = int(lat.h1 * D1), int(lat.M1 * D1)
    o2, s2 = int(lat.h2 * D2), int(lat.M2 * D2)
    scale = D1 * D2
    cap = n_max * scale // den
    j_min = min(o2, s2 - o2) if o2 else s2  # smallest nonzero |j|
    i_max = cap // j_min
    # w_u (-m2)^k = (w_u / D2^k) (-j)^k and w_up (-m1)^k = (w_up / D1^k) (-i)^k;
    # both scales are ints a_u, a_up over one denominator q, so each point adds
    # an int (q = 1 on an integral progression with integral weights)
    scales = [Fraction(w, D**k) for w, D in ((w_u, D2), (w_up, D1))]
    q = lcm(*(a.denominator for a in scales))
    a_u, a_up = (a.numerator * (q // a.denominator) for a in scales)
    for i in range(-i_max + (o1 + i_max) % s1, i_max + 1, s1):
        if i == 0:
            continue
        sgn = 1 if i > 0 else -1
        j_max = cap // abs(i)
        lo, hi = (-j_max, -1) if i > 0 else (1, j_max)
        # the point adds q sgn(m1) [w_up (-m1)^k + w_u (-m2)^k] at its exponent
        up_term, u_scale = a_up * sgn * (-i) ** k, a_u * sgn
        for j in range(lo + (o2 - lo) % s2, hi + 1, s2):
            key = -i * j * den // scale  # exact: den * m1 m2 is an int, as exp_den says
            coeffs[key] = coeffs.get(key, 0) + up_term + u_scale * (-j) ** k
    if q > 1:
        for key, c in coeffs.items():
            coeffs[key] = Fraction(c, q)
    if const:
        coeffs[0] = const
    nonholo: Optional[Dict[int, Fraction]] = ({0: nh} if nh else {}) if k == 1 else None
    return QExpansion(den, n_max, coeffs, nonholo)


def _eisenstein_target(k: int, n_max: int) -> QExpansion:
    """(-B_{k+1}/(k+1)) E_{k+1} to q^n_max: the level-one series for w = u'^k."""
    return (-bernoulli_number(k + 1) / (k + 1)) * eisenstein_level1(k + 1, n_max)


@functools.cache
def global_sign() -> int:
    """The module-wide sign, pinned once by the level-one Eisenstein identity.

    Reads the multiple of the literal k = 3 level-one series that gives
    (-B_4/4) E_4; it must be a sign and hold on every coefficient.
    """
    k = 3
    probe = 8
    literal = _literal_series(SplitLatticeU.unimodular(), k, Fraction(0), Fraction(1), probe)
    lam, mism = _eisenstein_target(k, probe).multiple_of(literal)
    if lam not in (1, -1) or mism is not None:
        raise RuntimeError(
            "neither sign of the split theta series matches the classical "
            "Eisenstein expansion; formula regression"
        )
    sign = int(lam)
    if "logging" in sys.modules:  # no handler can print before logging is imported
        import logging

        logging.getLogger("spectacle.theta11").info("calibrated theta global sign: %+d", sign)
    return sign


def theta11_series(
    lat: SplitLatticeU,
    k: int,
    w_u: RationalLike,
    w_up: RationalLike,
    n_max: int,
) -> QExpansion:
    """Exact generating series for the coefficient w = w_u u^k + w_up u'^k.

    All parts (constant, positive coefficients, and the k = 1
    non-holomorphic term) carry the calibrated global sign.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_max < 0:  # before the constant term reads B_{k+1}
        raise ValueError("n_max must be >= 0")
    literal = _literal_series(lat, k, Fraction(w_u), Fraction(w_up), n_max)
    return global_sign() * literal


def siegel_weil_check(k: int, n_max: int) -> Optional[Tuple[Fraction, Fraction, Fraction, str]]:
    """First mismatch of the level-one series for w = u'^k against
    (-B_{k+1}/(k+1)) E_{k+1} up to q^n_max, or None when they agree.

    Domain: the level-one lattice and odd k >= 3, where E_{k+1} is a modular
    form; any other k raises ``ValueError``.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(f"the Siegel-Weil comparison needs odd k >= 3, got k = {k}")
    series = theta11_series(SplitLatticeU.unimodular(), k, 0, 1, n_max)
    return series.first_mismatch(_eisenstein_target(k, n_max))
