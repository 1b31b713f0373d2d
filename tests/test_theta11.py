import random
from fractions import Fraction

import pytest
from coset_oracle import literal_series_fraction

from spectacle import theta11
from spectacle.exact_arith import bernoulli_number, bernoulli_poly
from spectacle.qseries import eisenstein_level1
from spectacle.theta11 import (
    SplitLatticeU,
    _literal_series,
    global_sign,
    siegel_weil_check,
    theta11_series,
)


def brute_positive_coefficient(lat, k, w_u, w_up, n):
    """Independent enumeration of one coefficient over a wide index window."""
    total = Fraction(0)
    n = Fraction(n)
    # scan t1 with |m1| = |h1 + M1 t1| <= n / min|m2|
    bound = int(n / (lat.M2 if lat.h2 == 0 else min(lat.h2, lat.M2 - lat.h2))) + 2
    t1 = -bound - 2
    while t1 <= bound + 2:
        m1 = lat.h1 + lat.M1 * t1
        t1 += 1
        if m1 == 0:
            continue
        m2 = -n / m1
        if m1 * m2 >= 0:
            continue
        r = (m2 - lat.h2) / lat.M2
        if r.denominator != 1:
            continue
        sgn = 1 if m1 > 0 else -1
        total += sgn * (w_u * (-m2) ** k + w_up * (-m1) ** k)
    return total


def test_global_sign_calibrated():
    assert global_sign() in (-1, 1)
    # the calibration must make the level-one example hold, whatever the sign
    series = theta11_series(SplitLatticeU.unimodular(), 3, 0, 1, 10)
    assert series.coefficient(0) == Fraction(1, 120)
    assert series.coefficient(1) == 2
    assert series.coefficient(2) == 18


def test_level_one_k1():
    series = theta11_series(SplitLatticeU.unimodular(), 1, 0, 1, 10)
    assert series.coefficient(1) == 2
    assert series.nonholo_coefficient(0) == Fraction(1, 4)


def test_even_k_cancellation():
    series = theta11_series(SplitLatticeU.unimodular(), 2, 0, 1, 40)
    for n in range(41):
        assert series.coefficient(n) == 0


def test_constant_term_formula():
    k = 3
    lat = SplitLatticeU(Fraction(2), Fraction(1, 2), Fraction(3), Fraction(0))
    series = theta11_series(lat, k, Fraction(2, 7), Fraction(-3), 6)
    # only the h2 = 0 block survives; (w, u^k) = (-1)^k w_u'
    want = -(lat.M1**k) * bernoulli_poly(k + 1, lat.h1 / lat.M1) / (k + 1) * (
        (-1) ** k * Fraction(-3)
    )
    assert series.coefficient(0) == global_sign() * want


def test_positive_coefficients_match_brute_force():
    lat = SplitLatticeU(Fraction(3, 2), Fraction(1, 2), Fraction(1), Fraction(0))
    k = 2
    series = theta11_series(lat, k, Fraction(1, 3), Fraction(5), 24)
    for num in range(1, 25):
        n = Fraction(num, series.exp_den)
        want = global_sign() * brute_positive_coefficient(lat, k, Fraction(1, 3), Fraction(5), n)
        assert series.coefficient(n) == want, n


def test_exp_den_fractional_exponents():
    lat = SplitLatticeU(Fraction(1), Fraction(0), Fraction(3, 2), Fraction(1, 2))
    series = theta11_series(lat, 1, 0, 1, 12)
    assert series.exp_den == 2
    assert any(n % 2 == 1 for n in series.coeffs)


def test_swap_symmetry_brute_force():
    # swapping the two progressions and the two coefficient components
    # negates every positive coefficient (any k)
    for k in (1, 2, 3):
        a = theta11_series(SplitLatticeU(1, 0, Fraction(3, 2), Fraction(1, 2)), k, Fraction(2, 3), Fraction(-1, 5), 40)
        b = theta11_series(SplitLatticeU(Fraction(3, 2), Fraction(1, 2), 1, 0), k, Fraction(-1, 5), Fraction(2, 3), 40)
        for num in range(1, 41):
            e = Fraction(num, a.exp_den)
            if e <= b.exponent_bound:
                assert a.coefficient(e) == -b.coefficient(e)


def test_siegel_weil():
    for k in (3, 5):
        assert siegel_weil_check(k, 100) is None, k


def test_siegel_weil_rejects_even_or_small_k():
    for k in (1, 2, 4):
        with pytest.raises(ValueError, match=f"k = {k}"):
            siegel_weil_check(k, 20)


def test_siegel_weil_catches_a_flipped_sign(monkeypatch):
    sign = global_sign()
    monkeypatch.setattr(theta11, "global_sign", lambda: -sign)
    assert siegel_weil_check(3, 20) is not None


def test_global_sign_refuses_a_multiple_that_is_not_a_sign(monkeypatch):
    # twice the Eisenstein target is still a multiple of the literal series,
    # but the multiple is +-2, not a sign
    monkeypatch.setattr(theta11, "eisenstein_level1", lambda w, n: 2 * eisenstein_level1(w, n))
    global_sign.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="neither sign"):
            global_sign()
    finally:
        monkeypatch.undo()
        global_sign.cache_clear()
    assert global_sign() in (-1, 1)


def test_siegel_weil_value_identity():
    # the comparison target itself: constant is -B_{k+1}/(k+1)
    k = 5
    series = theta11_series(SplitLatticeU.unimodular(), k, 0, 1, 60)
    target = (-bernoulli_number(k + 1) / (k + 1)) * eisenstein_level1(k + 1, 60)
    assert series.first_mismatch(target) is None


def test_truncation_stability():
    lat = SplitLatticeU(Fraction(3, 2), Fraction(1, 2), Fraction(1), Fraction(0))
    small = theta11_series(lat, 3, 1, 2, 20)
    large = theta11_series(lat, 3, 1, 2, 60)
    assert small.first_mismatch(large) is None


def test_validation():
    with pytest.raises(ValueError):
        SplitLatticeU(0, 0, 1, 0)
    with pytest.raises(ValueError):
        SplitLatticeU(1, Fraction(3, 2), 1, 0)
    with pytest.raises(ValueError):
        theta11_series(SplitLatticeU.unimodular(), 0, 0, 1, 5)


def _rand_rational(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def test_literal_series_against_fraction_walk():
    # the integer walk against the vector-by-vector Fraction walk on random
    # cosets with rational steps and offsets
    rng = random.Random(7011)
    nonzero = 0
    for _ in range(420):
        steps = [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(2)]
        offsets = [
            Fraction(0) if rng.random() < 0.3 else M * Fraction(rng.randint(0, q - 1), q)
            for M, q in ((M, rng.randint(1, 6)) for M in steps)
        ]
        lat = SplitLatticeU(steps[0], offsets[0], steps[1], offsets[1])
        k = rng.randint(1, 6)
        w_u, w_up = _rand_rational(rng, 0.2), _rand_rational(rng, 0.2)
        n_max = rng.randint(0, 60)
        got = _literal_series(lat, k, w_u, w_up, n_max)
        want = literal_series_fraction(lat, k, w_u, w_up, n_max)
        assert (got.exp_den, got.n_max) == (want.exp_den, want.n_max), lat
        assert got.coeffs == want.coeffs, (lat, k, w_u, w_up, n_max)
        assert got.nonholo == want.nonholo, lat
        nonzero += any(n > 0 for n in got.coeffs)
    assert nonzero > 200
