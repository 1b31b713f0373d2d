import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohen_oracle
from spectacle import exact_arith
from spectacle.exact_arith import (
    _character_table,
    bernoulli_cleared,
    bernoulli_number,
    bernoulli_poly,
    divisor_power_sum,
    divisor_sums,
    divisors,
    fundamental_discriminant_split,
    generalized_bernoulli,
    is_fundamental_discriminant,
    kronecker_symbol,
    moebius,
    poly_product,
)

rationals = st.fractions(
    min_value=-(10**4), max_value=10**4, max_denominator=10**4
)


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_poly_values():
    assert bernoulli_poly(1, 0) == Fraction(-1, 2)
    assert bernoulli_poly(2, 0) == Fraction(1, 6)
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)


@pytest.mark.parametrize("n", range(0, 21))
def test_bernoulli_number_is_poly_at_zero(n):
    assert bernoulli_number(n) == bernoulli_poly(n, 0)


def _bernoulli_poly_horner(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_j C(n, j) B_j x^(n-j) by Horner on Fractions, at every x:
    the oracle for ``bernoulli_poly``'s integer Horner."""
    acc = Fraction(1)
    for j in range(1, n + 1):
        acc = acc * x + comb(n, j) * bernoulli_number(j)
    return acc


def test_bernoulli_poly_at_zero_agrees_with_the_horner_loop():
    for n in range(61):
        assert bernoulli_poly(n, 0) == bernoulli_poly(n, Fraction(0)) == bernoulli_number(n)
        assert _bernoulli_poly_horner(n, Fraction(0)) == bernoulli_number(n), n
    rng = random.Random(20261019)
    for _ in range(3000):
        n = rng.randint(0, 40)
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        assert bernoulli_poly(n, x) == _bernoulli_poly_horner(n, x), (n, x)


# negative, integral and proper rationals, denominators 1..30, and plain ints
_HORNER_GRID = sorted(
    {Fraction(p, q) for q in range(1, 31) for p in (-3 * q - 1, -q, -1, 1, q + 1, 2 * q)}
) + [-3, -1, 1, 2, 7]


def test_integer_horner_matches_the_fraction_horner_on_a_grid():
    for n in range(41):
        for x in _HORNER_GRID:
            got = bernoulli_poly(n, x)
            assert type(got) is Fraction
            assert got == _bernoulli_poly_horner(n, Fraction(x)), (n, x)


@settings(max_examples=50)
@given(n=st.integers(min_value=0, max_value=20), x=rationals)
def test_bernoulli_difference_equation(n, x):
    lhs = bernoulli_poly(n, x + 1) - bernoulli_poly(n, x)
    rhs = n * x ** (n - 1) if n >= 1 else 0
    assert lhs == rhs


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("m", range(1, 7))
def test_bernoulli_multiplication_theorem(n, m):
    x = Fraction(5, 7)
    lhs = sum(bernoulli_poly(n, x + Fraction(j, m)) for j in range(m))
    assert lhs * Fraction(m) ** (n - 1) == bernoulli_poly(n, m * x)


def test_kronecker_symbol_values():
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(-3, 6) == 0
    assert kronecker_symbol(5, 1) == 1
    assert kronecker_symbol(8, 7) == 1
    assert kronecker_symbol(-8, 3) == 1


@given(D=st.sampled_from([-8, -7, -4, -3, 1, 5, 8, 12, 13]),
       m=st.integers(min_value=1, max_value=200),
       n=st.integers(min_value=1, max_value=200))
def test_kronecker_multiplicative(D, m, n):
    assert kronecker_symbol(D, m * n) == kronecker_symbol(D, m) * kronecker_symbol(D, n)


def test_kronecker_matches_factorization_oracle():
    for D in range(-500, 501):
        for m in range(1, 301):
            assert kronecker_symbol(D, m) == cohen_oracle.kronecker_symbol(D, m), (D, m)


def test_generalized_bernoulli_values():
    assert generalized_bernoulli(1, -4) == Fraction(-1, 2)
    assert generalized_bernoulli(1, -3) == Fraction(-1, 3)
    assert generalized_bernoulli(2, -4) == 0
    assert generalized_bernoulli(2, 1) == bernoulli_number(2)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("D", [-24, -23, -20, -19, -15, -11, -8, -7, -4, -3, 1, 5, 8, 12, 13, 17, 21, 24])
def test_generalized_bernoulli_parity(n, D):
    # vanishes whenever chi(-1) != (-1)^n; the D = 1, n = 1 corner is carved
    # out by convention (trivial character, plain B_1 = -1/2 returned)
    if not is_fundamental_discriminant(D) or (D == 1 and n == 1):
        return
    chi_minus1 = 1 if D > 0 else -1
    if chi_minus1 != (-1) ** n:
        assert generalized_bernoulli(n, D) == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_generalized_bernoulli_matches_definition(n):
    for aD in range(1, 401):
        for D in (aD, -aD):
            if not is_fundamental_discriminant(D):
                continue
            if D != 1 and (D > 0) != (n % 2 == 0):
                # chi_D(-1) != (-1)^n: the definition's terms cancel in pairs
                # a, |D| - a, so the oracle's value is 0 without summing it
                assert generalized_bernoulli(n, D) == 0, (n, D)
            else:
                want = cohen_oracle.generalized_bernoulli(n, D)
                assert generalized_bernoulli(n, D) == want, (n, D)


def test_character_table_and_half_range_sum_match_oracle():
    # every fundamental D with |D| <= 1000, and a seeded sample up to 5000
    def fundamental(lo, hi):
        return [D for a in range(lo, hi + 1) for D in (a, -a) if is_fundamental_discriminant(D)]

    sample = fundamental(3, 1000) + random.Random(9).sample(fundamental(1001, 5000), 12)
    for D in sample:
        m, sgn = abs(D), (1 if D > 0 else -1)
        chi = [0] + [cohen_oracle.kronecker_symbol(D, a) for a in range(1, m + 1)]
        half = (m - 1) // 2
        assert _character_table(D, half) == chi[: half + 1], D
        # what the half-range sum assumes of the residues above m/2
        assert all(chi[m - a] == sgn * chi[a] for a in range(half + 1)), D
        if m % 2 == 0:
            assert chi[m // 2] == 0, D
        # both parities against the full-range sum over every residue
        for n in (1, 2):
            S = [sum(c * a**i for a, c in enumerate(chi)) for i in range(n + 1)]
            want = sum(
                comb(n, j) * bernoulli_number(j) * Fraction(m) ** (j - 1) * S[n - j]
                for j in range(n + 1)
            )
            assert generalized_bernoulli(n, D) == want, (n, D)


def test_non_fundamental_rejected_with_square_factor():
    with pytest.raises(ValueError, match="square"):
        generalized_bernoulli(2, 25)
    with pytest.raises(ValueError, match="square"):
        generalized_bernoulli(2, -12)
    with pytest.raises(ValueError):
        generalized_bernoulli(2, -5)


def test_divisor_power_sum():
    assert divisor_power_sum(2, 3) == 9
    assert divisor_power_sum(1, 17) == 1
    assert divisor_power_sum(6, 1) == 12


@pytest.mark.parametrize("k", [0, 1, 3, 11, 45])
@pytest.mark.parametrize("n", [0, 1, 2, 17, 500])
def test_divisor_sums_is_the_divisor_power_sum_list(k, n):
    assert divisor_sums(k, n) == [0] + [divisor_power_sum(m, k) for m in range(1, n + 1)]


def test_divisor_sums_refusals():
    with pytest.raises(ValueError, match="n >= 0"):
        divisor_sums(1, -1)
    with pytest.raises(ValueError, match="k >= 0"):
        divisor_sums(-1, 3)


def test_divisors_and_moebius():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert moebius(1) == 1 and moebius(6) == 1 and moebius(30) == -1
    assert moebius(4) == 0


@pytest.mark.parametrize(
    "delta,want",
    [(-12, (-3, 2)), (-4, (-4, 1)), (25, (1, 5)), (8, (8, 1)), (45, (5, 3)), (-16, (-4, 2))],
)
def test_fundamental_discriminant_split(delta, want):
    D, f = fundamental_discriminant_split(delta)
    assert (D, f) == want
    assert D == 1 or is_fundamental_discriminant(D)
    assert D * f * f == delta


def _bernoulli_recurrence(n_max):
    """B_0..B_n_max from sum_{j=0}^{m} C(m+1, j) B_j = 0 (m >= 1), in Fractions."""
    B = [Fraction(1)]
    for m in range(1, n_max + 1):
        B.append(-sum(comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B


def test_bernoulli_number_equals_the_recurrence():
    assert [bernoulli_number(n) for n in range(301)] == _bernoulli_recurrence(300)


def test_bernoulli_index_bound(monkeypatch):
    # B_2048 is the largest even index computed; von Staudt-Clausen: B_2048 plus
    # 1/p over the primes with p - 1 | 2048 (2, 3, 5, 17, 257) is an integer
    b = bernoulli_number(2048)
    assert b < 0 and (b + sum(Fraction(1, p) for p in (2, 3, 5, 17, 257))).denominator == 1
    assert bernoulli_number(2049) == 0 and bernoulli_number(100001) == 0

    def boom(m):
        raise AssertionError(f"tangent triangle of {m} built")

    monkeypatch.setattr(exact_arith, "_tangent_numbers", boom)
    for n in (2050, 100000):
        message = f"Bernoulli index {n} exceeds 2048, the largest computed"
        with pytest.raises(ValueError, match=f"^{message}$"):
            bernoulli_number(n)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 12, 30])
def test_bernoulli_cleared_is_the_integers_over_the_common_denominator(n):
    L, cleared = bernoulli_cleared(n)
    assert L == math.lcm(*(bernoulli_number(j).denominator for j in range(n + 1)))
    assert cleared == [bernoulli_number(j) * L for j in range(n + 1)]
    assert all(type(c) is int for c in cleared)


def test_bernoulli_cleared_refuses_its_largest_index_first(monkeypatch):
    def boom(m):
        raise AssertionError(f"tangent triangle of {m} built")

    monkeypatch.setattr(exact_arith, "_tangent_numbers", boom)
    for n in (3000, 3001):
        with pytest.raises(ValueError, match="^Bernoulli index 3000 exceeds 2048"):
            bernoulli_cleared(n)


def test_bernoulli_memo_concurrent_fill():
    import threading

    results = []

    def worker():
        results.append(bernoulli_number(220))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == bernoulli_poly(220, 0)


def test_cold_bernoulli_memo_recurses_shallowly():
    # B_300 from a cold memo under a recursion limit of 40, in a fresh
    # interpreter: no B_n reads another, so no call chain grows with the index
    src = str(Path(exact_arith.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys\n"
        "from spectacle import exact_arith\n"
        "exact_arith.bernoulli_number.cache_clear()\n"
        "sys.setrecursionlimit(40)\n"
        "print(exact_arith.bernoulli_number(300))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    assert Fraction(done.stdout.strip()) == _bernoulli_recurrence(300)[300]


def test_import_loads_no_other_package_module():
    # the package re-exports nothing, so importing exact_arith (which imports
    # no sibling) loads no other spectacle module
    src = str(Path(exact_arith.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, spectacle.exact_arith\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'spectacle'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["spectacle", "spectacle.exact_arith"]


def schoolbook_product(x, y, n):
    """Reference for ``poly_product``: coefficients 0..n of x * y by the
    double loop, one rational multiply-add per pair of terms."""
    out = [Fraction(0)] * (n + 1)
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if i + j <= n:
                out[i + j] += Fraction(a) * b
    return out


def test_poly_product_pads_and_truncates():
    # n beyond len(x) + len(y) - 2 pads with zeros; n = 0 keeps the constant term
    assert poly_product([1, 2], [3, -4], 6) == [3, 2, -8, 0, 0, 0, 0]
    assert poly_product([5, 7], [-3, 9], 0) == [-15]
    assert poly_product([Fraction(1, 2)], [Fraction(-2, 3), 1], 0) == [Fraction(-1, 3)]
    assert poly_product([], [1, 2], 2) == [0, 0, 0]
    assert poly_product([0, 0], [0], 1) == [0, 0]
    with pytest.raises(ValueError):
        poly_product([1], [1], -1)


def test_poly_product_returns_ints_for_integral_input():
    assert all(type(c) is int for c in poly_product([1, -2], [Fraction(4, 2), 3], 3))
    assert poly_product([Fraction(1, 3)], [3], 0) == [1]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits, terms", [(1, 1), (7, 3), (8, 255), (200, 9), (256, 40)])
def test_poly_product_at_the_slot_bound(bits, terms, sign):
    # every term at the largest magnitude and one sign: the middle coefficient
    # sums `terms` products of size ~2^(2 bits), the most a slot must hold
    top = 2**bits - 1
    x, y = [top] * terms, [sign * top] * terms
    n = 2 * terms - 2
    assert poly_product(x, y, n) == schoolbook_product(x, y, n)


def test_poly_product_long_mixed_signs():
    # n >= 3000 with 300-bit coefficients: each slot spans several machine
    # words, and the full product, beyond the n + 1 slots kept, is negative
    rng = random.Random(3001)
    n = 3200
    y = [rng.choice((-1, 1)) * rng.getrandbits(300) for _ in range(n + 1)]
    y[-1] = 2**300
    x = [0] * (n + 1)
    for i in rng.sample(range(1, n), 28) + [0, n]:
        x[i] = rng.choice((-1, 1)) * rng.getrandbits(290)
    x[n] = -abs(x[n]) or -1
    assert poly_product(x, y, n) == schoolbook_product(x, y, n)
    assert poly_product(y, x, n - 1) == schoolbook_product(x, y, n - 1)


_COEFF = st.one_of(
    st.just(0),
    st.integers(-(2**8), 2**8),
    st.integers(-(2**260), 2**260),
    st.fractions(max_denominator=30).map(lambda c: c * 2**210),
)


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(_COEFF, max_size=12),
    y=st.lists(_COEFF, max_size=12),
    n=st.integers(0, 26),
)
def test_poly_product_matches_schoolbook(x, y, n):
    assert poly_product(x, y, n) == schoolbook_product(x, y, n)
