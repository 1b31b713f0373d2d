"""Both sides of the capped-cycle generating series identity, on the concrete
even lattice of 2x2 integral trace-zero matrices.

Setup.  The lattice L = Z w0 + Z u + Z u' (dual quotient of order two, level
four) is Witt-split along the modular symbol y = w0, whose geodesic is the
imaginary axis:

    coset = (Z + 0) u  +  (Z w0 + h_W)  +  (Z + 0) u',   h_W in {0, w0/2}.

Pairing the theta lift against that symbol with coefficient u'^k gives a
q-series in two ways, and the package computes both:

* theta side: a Witt product.  The split-plane factor is the unimodular
  split theta series of ``theta11`` for the coefficient u'^k, taken before
  its global sign (a Bernoulli constant plus the sgn-weighted interior), and
  the other factor is theta_W = sum_{m in Z + h} q^{m^2}, the theta series of
  the w0-line.  For k = 1 the cap at the zero cusp adds a holomorphic
  remainder -2 q d/dq theta_W; the two 1/(pi v) pieces (-theta_W/4 from the
  split-plane integral, +theta_W/4 from the cap term) must cancel exactly
  and are checked symbolically per exponent.

* geometric side: intersection numbers.  Interior crossings use the cross
  product orientation sign; boundary contributions count the cap components
  of the cycles hitting each cusp (a Bernoulli multiple at infinity, and for
  k = 1 a -2cn term at zero); the degree-zero term pairs the boundary
  cycle at infinity with the symbol.  The coset meets the line Q u in Z u
  when h = 0 and misses it when h = 1/2, so that term is the boundary
  incidence sign times (-1)^(k+1) B_{k+1}/(k+1), or 0 on the half coset.

Sign arbitration.  Three binary conventions are pinned programmatically, in
order: (1) the split-plane global sign comes from ``theta11.global_sign``
(calibrated against the classical Eisenstein expansion); (2) the boundary
incidence sign of the geometric constant term is pinned by equality of the
two sides at q^0; (3) the relative sign between the theta side's interior
block and its boundary blocks is pinned, if needed, by the geometric interior
(whose orientation is the cross-product definition).  The resolved record is
attached to every report.  With the conventions pinned this way the two sides
agree exactly, and the combination of the two coset components is a rational
multiple of the half-integral weight Eisenstein coefficients H(k+1, N).
"""

from __future__ import annotations

import functools
import itertools
import sys
from fractions import Fraction
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from .exact_arith import RationalLike, bernoulli_number
from .qseries import QExpansion, cohen_eisenstein
from .quad_space import epsilon_sign_int
from . import theta11

__all__ = [
    "LiftConfig",
    "SignConvention",
    "LiftReport",
    "LiftError",
    "arbitrate_signs",
    "lift_theta_side",
    "lift_geometric_side",
    "main_theorem_check",
    "PlusSpaceResult",
    "plus_space_check",
]


class LiftError(RuntimeError):
    """Internal identity of the lift failed (formula regression)."""


class _ConfigFields(NamedTuple):
    k: int
    h: Fraction
    n_max: int


class LiftConfig(_ConfigFields):
    """Configuration: coefficient degree k, coset tag, truncation.

    ``h`` is the w0-multiple of the coset shift (0 or 1/2); ``n_max`` bounds
    the exponent numerators on the grid (1/exp_den) Z, with exp_den = 1 for
    the unshifted coset and 4 for the half-shifted one.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace refuses too

    def __new__(cls, k: int, h: RationalLike, n_max: int) -> "LiftConfig":
        h = Fraction(h)
        if k < 1:
            raise ValueError("k must be >= 1")
        if h not in (Fraction(0), Fraction(1, 2)):
            raise ValueError("coset tag must be 0 or 1/2 (times w0)")
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        return super().__new__(cls, k, h, n_max)

    @property
    def exp_den(self) -> int:
        return 1 if self.h == 0 else 4


class SignConvention(NamedTuple):
    """Resolved binary conventions, recorded with every report."""

    sigma_glob: int
    interior_relative: int
    boundary_incidence: int

    @property
    def effective_interior(self) -> int:
        return self.sigma_glob * self.interior_relative

    def to_json_dict(self) -> dict:
        return {
            "sigma_glob": self.sigma_glob,
            "interior_relative": self.interior_relative,
            "effective_interior": self.effective_interior,
            "boundary_incidence": self.boundary_incidence,
        }


# ---------------------------------------------------------------------------
# building blocks

_W0_INT = (0, 1, 0)


def _w0_points(cfg: LiftConfig) -> Iterator[Tuple[int, int]]:
    """The w0-progression Z + h up to the truncation, in integers.

    Yields (t, num) for t = 2|m| >= 0 with m in Z + h, where num = t^2 d/4
    (d = exp_den) is the exponent numerator of m^2 <= n_max/d.  Each t > 0
    stands for the two points +-m; t = 0 occurs only on the h = 0 coset.
    """
    for t in itertools.count(int(2 * cfg.h), 2):
        num = t * t * cfg.exp_den // 4
        if num > cfg.n_max:
            return
        yield t, num


def _interior_geometric(cfg: LiftConfig) -> Dict[int, int]:
    """Cross-product route: epsilon(x, w0) (x_U, u')^k per interior vector.

    x = m1 u + m2 u' + m w0 runs over coset vectors with positive split part
    (m1 m2 < 0) and q(x) = -m1 m2 + m^2 <= the truncation bound.  The walk is
    in integers: t = 2m, the sign is taken on the doubled coordinates
    (-2 m2, t, 2 m1), and the exponent numerator is -m1 m2 d + t^2 d/4 with
    d = exp_den (t is even when d = 1).

    The sign is taken once per (m1, m2) row, at t = t_first, and the row's
    value is added along the t-walk t = t_first, t_first + 2, ..., once at
    t = 0 and twice (for the points +-t) at t > 0.  This is exact: on
    y = w0 = (0, 1, 0) the kernel's plane test reads q(x) = t^2 + a c > 0
    and 4 q(x) q(w0) - (x, w0)^2 = 4 a c > 0, so it reduces to a c > 0, and
    its sign is sgn(x_a + x_c); neither depends on x_b = t.  Every walked
    row has a = -2 m2 > 0 and c = 2 m1 > 0, so the test passes on the whole
    row, and the row's two calls give the sign of every vector in it: +1
    for (a, t, c) and -1 for (-a, t, -c) (pinned vector by vector, on both
    cosets, by ``test_interior_epsilon_routes_agree_vectorwise``).  The
    per-vector walk is the test oracle ``per_vector_interior`` in
    ``tests/test_lift.py``.
    """
    d, k, n_max = cfg.exp_den, cfg.k, cfg.n_max
    t_first = int(2 * cfg.h)
    out: Dict[int, int] = {}
    for m1 in range(1, n_max // d + 1):
        w_pos, w_neg = (-m1) ** k, m1**k  # (x_U, u')^k at (m1, m2) and (-m1, -m2)
        for m2 in range(-(n_max // (d * m1)), 0):
            a, c = -2 * m2, 2 * m1
            value = (
                epsilon_sign_int((a, t_first, c), _W0_INT) * w_pos
                + epsilon_sign_int((-a, t_first, -c), _W0_INT) * w_neg
            )
            base = -m1 * m2 * d
            t = t_first
            if t == 0:  # the one point t = 0 of the h = 0 coset
                out[base] = out.get(base, 0) + value
                t = 2
            value *= 2  # the two points +-t
            num = base + t * t * d // 4
            while num <= n_max:
                out[num] = out.get(num, 0) + value
                t += 2
                num = base + t * t * d // 4
    return out


def _bernoulli_block_scalar(k: int) -> Fraction:
    """(-1)^(k+1) B_{k+1} / (k+1); the boundary cross constant."""
    return (-1) ** (k + 1) * bernoulli_number(k + 1) / (k + 1)


def _split_series(cfg: LiftConfig, interior_sign: int = 1) -> QExpansion:
    """The split-plane factor: theta11's unimodular series for w = u'^k before
    its global sign, with the q^n (n > 0) block times ``interior_sign``.

    It lives on integer exponents, so it is truncated at the first integer
    not below the coset's bound; its product with theta_W then stops there.
    """
    lit = theta11._literal_series(
        theta11.SplitLatticeU.unimodular(),
        cfg.k,
        Fraction(0),
        Fraction(1),
        -(-cfg.n_max // cfg.exp_den),
    )
    coeffs = {n: c if n == 0 else interior_sign * c for n, c in lit.coeffs.items()}
    return QExpansion(1, lit.n_max, coeffs, lit.nonholo)


def _theta_w(cfg: LiftConfig) -> QExpansion:
    """theta_W = sum over the w0-progression Z + h of q^{m^2}."""
    coeffs = {num: 2 if t else 1 for t, num in _w0_points(cfg)}
    return QExpansion(cfg.exp_den, cfg.n_max, coeffs)


def _cap_term(cfg: LiftConfig, theta_w: QExpansion) -> QExpansion:
    """k = 1 only: the cap at the zero cusp, -2 q d/dq theta_W, with
    +theta_W/4 in the 1/(pi v) part."""
    return QExpansion(
        cfg.exp_den,
        cfg.n_max,
        {n: -2 * Fraction(n, cfg.exp_den) * c for n, c in theta_w.coeffs.items()},
        {n: Fraction(c, 4) for n, c in theta_w.coeffs.items()},
    )


# ---------------------------------------------------------------------------
# sign arbitration


@functools.cache
def arbitrate_signs() -> SignConvention:
    """Pin the three binary conventions; cached for the process lifetime.

    (1) sigma_glob from the split-plane calibration; (2) the boundary
    incidence sign from equality of the two sides at q^0; (3) the interior
    relative sign, read as the multiple of the theta interior that gives the
    cross-product interior and then verified on the whole probe.
    """
    sigma = theta11.global_sign()
    probe = LiftConfig(k=1, h=Fraction(0), n_max=6)
    split = _split_series(probe)
    # theta_W(0) = 1 on the probe's h = 0 coset, so the q^0 term is the split
    # constant: the geometric constant before the incidence sign is applied
    incidence = split.coefficient(0) / _bernoulli_block_scalar(probe.k)
    if incidence not in (1, -1):
        raise LiftError(f"boundary incidence {incidence} at q^0 is not a sign")

    # the interior blocks, holomorphic parts only (the probe's 1/(pi v) part
    # cancels against the zero-cusp cap term): the split q^n, n > 0, times theta_W
    interior = QExpansion(1, split.n_max, {n: c for n, c in split.coeffs.items() if n})
    t_int = sigma * (interior * _theta_w(probe))
    g_int = QExpansion(probe.exp_den, probe.n_max, _interior_geometric(probe))
    relative, mism = g_int.multiple_of(t_int)
    if relative not in (1, -1):
        raise LiftError("interior blocks differ by more than a sign")
    if mism is not None:
        raise LiftError("interior blocks do not match after arbitration")
    conv = SignConvention(sigma, int(relative), int(incidence))
    if "logging" in sys.modules:  # no handler can print before logging is imported
        import logging

        logging.getLogger("spectacle.lift").info(
            "arbitrated signs: sigma_glob=%+d interior_relative=%+d incidence=%+d", *conv
        )
    return conv


# ---------------------------------------------------------------------------
# the two sides


def lift_theta_side(cfg: LiftConfig) -> QExpansion:
    """Theta route: split-plane factor times theta_W (+ k=1 cap remainder).

    The arbitrated sign applies to the split factor's interior block.  The
    k = 1 non-holomorphic multipliers of the two terms must cancel exactly
    per exponent; the returned expansion carries an identically-zero nonholo
    table for k = 1 as a witness.
    """
    theta_w = _theta_w(cfg)
    series = _split_series(cfg, arbitrate_signs().effective_interior) * theta_w
    if cfg.k == 1:
        series = series + _cap_term(cfg, theta_w)
    if series.nonholo:
        raise LiftError(f"non-holomorphic parts fail to cancel: {series.nonholo}")
    return series


def lift_geometric_side(cfg: LiftConfig) -> QExpansion:
    """Intersection route: cross-product interior + boundary cap counts.

    The boundary counts one cap family per point m of the w0-progression
    Z + h with m^2 within the truncation.  The point m = 0 (only on the h = 0
    coset) is the coset's vectors c u, c in Z, on the line Q u at infinity:
    paired with the symbol they give the constant term, the boundary
    incidence sign times (-1)^(k+1) B_{k+1}/(k+1).
    """
    coeffs: Dict[int, RationalLike] = _interior_geometric(cfg)
    k = cfg.k
    block = _bernoulli_block_scalar(k)
    for t, num in _w0_points(cfg):
        if t == 0:
            # the boundary cycle at infinity paired with the symbol
            coeffs[0] = arbitrate_signs().boundary_incidence * block
            continue
        # the two families of +-m terminating/originating at the cusps
        coeffs[num] = coeffs.get(num, 0) + 2 * block
        if k == 1:
            # each oriented family contributes -2 m^2 at the zero cusp
            coeffs[num] -= 4 * Fraction(num, cfg.exp_den)
    nonholo: Optional[Dict[int, Fraction]] = {} if k == 1 else None
    return QExpansion(cfg.exp_den, cfg.n_max, coeffs, nonholo)


# ---------------------------------------------------------------------------
# reports


class LiftReport(NamedTuple):
    """Both coefficient tables for ``cfg``, the convention record and the
    verdict: the sides are equal when they have no first mismatch."""

    cfg: LiftConfig
    theta_side: QExpansion
    geometric_side: QExpansion
    sign_convention: SignConvention
    first_mismatch: Optional[Tuple[Fraction, Fraction, Fraction, str]]
    proportionality: Optional[Tuple[Fraction, str]] = None

    @property
    def equal(self) -> bool:
        return self.first_mismatch is None

    def to_json_dict(self) -> dict:
        return {
            "k": self.cfg.k,
            "h": str(self.cfg.h),
            "n_max": self.cfg.n_max,
            "exp_den": self.theta_side.exp_den,
            "theta_side": self.theta_side.to_json_dict(),
            "geometric_side": self.geometric_side.to_json_dict(),
            "sign_convention": self.sign_convention.to_json_dict(),
            "equal_to": self.cfg.n_max if self.equal else None,
            "first_mismatch": None
            if self.first_mismatch is None
            else {
                "exponent": str(self.first_mismatch[0]),
                "theta": str(self.first_mismatch[1]),
                "geometric": str(self.first_mismatch[2]),
                "part": self.first_mismatch[3],
            },
            "proportionality": None
            if self.proportionality is None
            else {
                "lambda": str(self.proportionality[0]),
                "target": self.proportionality[1],
            },
        }


def main_theorem_check(cfg: LiftConfig) -> LiftReport:
    """Compute both sides and compare exactly on all exponents <= the bound."""
    ts = lift_theta_side(cfg)
    gs = lift_geometric_side(cfg)
    return LiftReport(cfg, ts, gs, arbitrate_signs(), ts.first_mismatch(gs))


class PlusSpaceResult(NamedTuple):
    k: int
    lam: Optional[Fraction]
    first_break: Optional[Tuple[int, Fraction, Fraction]]
    combined: QExpansion
    reports: Tuple[LiftReport, LiftReport]  # the h = 0 and h = 1/2 components

    @property
    def passed(self) -> bool:
        return self.first_break is None and self.lam is not None


def plus_space_check(k: int, n_max: int) -> PlusSpaceResult:
    """Combine the two coset components at 4*tau and compare with H(k+1, .).

    F(tau) = component(h=0)(4 tau) + component(h=1/2)(4 tau) must be a single
    rational multiple of the weight k + 3/2 Eisenstein coefficient series
    H(k+1, N) on all N <= n_max; lambda comes from the first nonzero
    coefficient.  Both lift sides are verified for each component first, and
    on a pass each component's report records lambda.
    """
    if k % 2 == 0:
        raise ValueError("the combined lift vanishes for even k; k must be odd")
    rep0 = main_theorem_check(LiftConfig(k=k, h=Fraction(0), n_max=n_max // 4))
    reph = main_theorem_check(LiftConfig(k=k, h=Fraction(1, 2), n_max=n_max))
    if not (rep0.equal and reph.equal):
        raise LiftError("lift sides disagree; refusing the plus-space check")
    # the sum stops at the h = 0 component's bound 4 (n_max // 4)
    combined = rep0.theta_side.dilate(4) + reph.theta_side.dilate(4)
    lam, mism = combined.multiple_of(cohen_eisenstein(k + 1, n_max))
    # both tables sit on exp_den 1, so numerators are the N themselves
    first_break = None if mism is None else (mism[0].numerator, mism[1], mism[2])
    result = PlusSpaceResult(k, lam, first_break, combined, (rep0, reph))
    if not result.passed:
        return result
    tag = (lam, f"Cohen r = {k + 1}")
    return result._replace(reports=tuple(r._replace(proportionality=tag) for r in (rep0, reph)))
