import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohen_oracle
from spectacle import exact_arith, qseries
from spectacle.exact_arith import (
    bernoulli_number,
    divisor_power_sum,
    divisors,
    fundamental_discriminant_split,
    generalized_bernoulli,
    kronecker_symbol,
    moebius,
)
from spectacle.qseries import (
    QExpansion,
    TruncationError,
    cohen_bernoulli,
    cohen_eisenstein,
    eisenstein_level1,
)
from spectacle.shintani_lift import LiftConfig, lift_geometric_side, lift_theta_side
from spectacle.theta11 import SplitLatticeU, theta11_series


def test_eisenstein_values():
    e4 = eisenstein_level1(4, 30)
    assert e4.coefficient(0) == 1
    assert e4.coefficient(1) == 240
    assert e4.coefficient(2) == 2160
    e8 = eisenstein_level1(8, 5)
    assert e8.coefficient(1) == 480


@pytest.mark.parametrize("m", [4, 6, 8, 10, 14])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_eisenstein_prime_coefficients(m, p):
    series = eisenstein_level1(m, p)
    want = -(2 * m / bernoulli_number(m)) * (1 + p ** (m - 1))
    assert series.coefficient(p) == want


def per_n_eisenstein(m: int, n_max: int) -> QExpansion:
    """E_m as the per-n walk it was built by before the divisor-sum sieve:
    -2m/B_m times one trial-division sigma_{m-1}(n) for each n."""
    scale = -Fraction(2 * m) / bernoulli_number(m)
    coeffs = {0: 1}
    for n in range(1, n_max + 1):
        coeffs[n] = scale * divisor_power_sum(n, m - 1)
    return QExpansion(1, n_max, coeffs)


@pytest.mark.parametrize("m", range(4, 61, 2))
def test_eisenstein_sieve_equals_the_per_n_walk(m):
    for n_max in (0, 1, 300):
        got, want = eisenstein_level1(m, n_max), per_n_eisenstein(m, n_max)
        assert got == want, (m, n_max)
        assert [type(c) for _, c in sorted(got.coeffs.items())] == [
            type(c) for _, c in sorted(want.coeffs.items())
        ], (m, n_max)


def test_eisenstein_reads_its_scale_before_it_sieves(monkeypatch):
    # an out-of-range weight is refused by B_m before any power is computed
    def boom(*args):
        raise AssertionError(f"sieved before the refusal: {args}")

    monkeypatch.setattr(qseries, "divisor_sums", boom)
    with pytest.raises(ValueError, match="Bernoulli index 100000 exceeds 2048"):
        eisenstein_level1(100000, 5000)


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError):
        eisenstein_level1(5, 10)
    with pytest.raises(ValueError):
        eisenstein_level1(2, 10)


def test_cohen_values():
    h1 = cohen_eisenstein(1, 20)
    # Hurwitz class numbers
    assert h1.coefficient(0) == Fraction(-1, 12)
    assert h1.coefficient(3) == Fraction(1, 3)
    assert h1.coefficient(4) == Fraction(1, 2)
    assert h1.coefficient(7) == 1
    assert h1.coefficient(8) == 1
    assert h1.coefficient(11) == 1
    assert h1.coefficient(12) == Fraction(4, 3)
    assert h1.coefficient(15) == 2
    assert h1.coefficient(16) == Fraction(3, 2)
    assert h1.coefficient(19) == 1
    assert h1.coefficient(20) == 2
    h2 = cohen_eisenstein(2, 20)
    assert h2.coefficient(0) == Fraction(1, 120)
    assert h2.coefficient(1) == Fraction(-1, 12)
    assert h2.coefficient(4) == Fraction(-7, 12)
    assert h2.coefficient(5) == Fraction(-2, 5)
    assert h2.coefficient(8) == -1
    assert h2.coefficient(9) == Fraction(-25, 12)
    h4 = cohen_eisenstein(4, 5)
    assert h4.coefficient(0) == Fraction(1, 240)  # zeta(-7)
    assert h4.coefficient(1) == Fraction(1, 120)
    assert h4.coefficient(4) == Fraction(121, 120)


def hurwitz_by_form_counting(N):
    """Weighted count of reduced positive definite forms of discriminant -N.

    (a, b, c) with b^2 - 4ac = -N, -a < b <= a <= c, b >= 0 when a == c;
    multiples of x^2 + y^2 weigh 1/2 and of x^2 + xy + y^2 weigh 1/3.
    """
    if N == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    a = 1
    while 3 * a * a <= N:
        for b in range(-a + 1, a + 1):
            rem = b * b + N
            if rem % (4 * a):
                continue
            c = rem // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if b == 0 and a == c:
                total += Fraction(1, 2)
            elif a == b == c:
                total += Fraction(1, 3)
            else:
                total += 1
        a += 1
    return total


def test_cohen_r1_matches_form_counting():
    series = cohen_eisenstein(1, 800)
    for N in range(801):
        if (-N) % 4 in (0, 1):
            assert series.coefficient(N) == hurwitz_by_form_counting(N), N


def test_cohen_r1_kronecker_hurwitz_relation():
    # sum_{t^2 <= 4n} H(4n - t^2) = 2 sigma(n) - sum_{d | n} min(d, n/d)
    series = cohen_eisenstein(1, 800)
    for n in range(1, 201):
        s = math.isqrt(4 * n)
        lhs = sum(series.coefficient(4 * n - t * t) for t in range(-s, s + 1))
        rhs = 2 * divisor_power_sum(n, 1) - sum(
            min(d, n // d) for d in range(1, n + 1) if n % d == 0
        )
        assert lhs == rhs, n


def oracle_cohen_coefficient(r, N):
    """H(r, N) for N > 0 from the definitional Kronecker and Bernoulli routes."""
    delta = (-1) ** r * N
    D, f = fundamental_discriminant_split(delta)
    total = sum(
        moebius(d) * cohen_oracle.kronecker_symbol(D, d) * d ** (r - 1)
        * divisor_power_sum(f // d, 2 * r - 1)
        for d in divisors(f)
    )
    return -cohen_oracle.generalized_bernoulli(r, D) / r * total


@pytest.mark.parametrize("r", range(1, 7))
def test_cohen_matches_oracle_beyond_digests(r):
    # seeded N <= 1000 on the support, plus the largest |D| = N there
    series = cohen_eisenstein(r, 1000)
    support = [N for N in range(1, 1001) if ((-1) ** r * N) % 4 in (0, 1)]
    largest = max(N for N in support if fundamental_discriminant_split((-1) ** r * N)[1] == 1)
    for N in random.Random(r).sample(support, 20) + [largest]:
        assert series.coefficient(N) == oracle_cohen_coefficient(r, N), (r, N)


def per_n_cohen_table(r, n_max):
    """The table walked by N: each N is split back into (D, f), and
    B_{r,chi_D} is memoized by D (the route ``cohen_eisenstein`` replaced)."""
    bern = {}

    def coefficient(N):
        if N == 0:
            return -bernoulli_number(2 * r) / (2 * r)
        delta = (-1) ** r * N
        if delta % 4 not in (0, 1):
            return Fraction(0)
        D, f = fundamental_discriminant_split(delta)
        total = Fraction(0)
        for d in divisors(f):
            mu = moebius(d)
            if mu:
                total += (
                    mu * kronecker_symbol(D, d) * d ** (r - 1)
                    * divisor_power_sum(f // d, 2 * r - 1)
                )
        if D not in bern:
            bern[D] = generalized_bernoulli(r, D)
        return -bern[D] / r * total

    return QExpansion(1, n_max, {N: coefficient(N) for N in range(n_max + 1)})


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 5, 17, 400])
@pytest.mark.parametrize("r", range(1, 7))
def test_cohen_table_matches_per_n_route(r, n_max):
    assert cohen_eisenstein(r, n_max) == per_n_cohen_table(r, n_max)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 2000])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_ring_route_matches_bernoulli_route(r, n_max):
    # the ring route pins H by the constant term and J off-support zeros only,
    # so equality at every N <= 2000 checks the rest of the plus-space support;
    # n_max <= 3 ends at or below the exponents of its solve
    assert cohen_eisenstein(r, n_max) == cohen_bernoulli(r, n_max)


@pytest.mark.parametrize("n_max", [*range(9), 17, 400, 3840])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_ring_route_matches_koblitz_ring(r, n_max):
    # the same table, to each coefficient's type, as the Koblitz basis by
    # dense products; n_max <= 8 ends at or below the exponents of the solve
    got, want = cohen_eisenstein(r, n_max), cohen_oracle.koblitz_ring(r, n_max)
    assert got == want
    assert {n: type(c) for n, c in got.coeffs.items()} == {
        n: type(c) for n, c in want.coeffs.items()
    }


def _sieved_columns(J, n):
    sigma = [0] + [divisor_power_sum(m, 2 * J - 1) for m in range(1, n + 1)]
    return [qseries._divisor_series(*b, sigma, n) for b in qseries._BASIS[J]]


def test_weight_two_columns_are_jacobi_theta4_and_f2():
    theta, f2 = cohen_oracle.theta_and_f2(300)
    theta2 = exact_arith.poly_product(theta, theta, 300)
    theta4, sieved_f2 = _sieved_columns(1, 300)
    assert theta4 == exact_arith.poly_product(theta2, theta2, 300)
    assert sieved_f2 == f2


def test_weight_four_columns_span_the_koblitz_basis():
    # E_4(tau), E_4(2 tau), E_4(4 tau) against theta^8, theta^4 F_2 and F_2^2
    theta, f2 = cohen_oracle.theta_and_f2(300)
    theta2 = exact_arith.poly_product(theta, theta, 300)
    theta4 = exact_arith.poly_product(theta2, theta2, 300)
    columns = _sieved_columns(2, 300)
    for (x, y), coords in [
        ((theta4, theta4), (Fraction(1, 15), Fraction(-2, 15), Fraction(16, 15))),
        ((theta4, f2), (Fraction(1, 240), Fraction(-1, 240), 0)),
        ((f2, f2), (0, Fraction(1, 240), Fraction(-1, 240))),
    ]:
        combination = [sum(a * col[n] for a, col in zip(coords, columns)) for n in range(301)]
        assert exact_arith.poly_product(x, y, 300) == combination


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_ring_route_makes_no_dense_product(monkeypatch, r):
    # only products below q^(4J + 1) are allowed, so a dense product of length
    # n_max fails here
    sizes = []
    product = exact_arith.poly_product

    def counted(x, y, n):
        sizes.append(n)
        return product(x, y, n)

    monkeypatch.setattr(exact_arith, "poly_product", counted)
    monkeypatch.setattr(qseries, "poly_product", counted)
    cohen_eisenstein(r, 2000)
    assert all(n <= 4 * ((2 * r + 1) // 4) for n in sizes), sizes


@settings(max_examples=100, deadline=None)
@given(
    g=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=40),
    s=st.integers(1, 3),
    n=st.integers(0, 50),
)
def test_theta_product_matches_poly_product(g, s, n):
    theta = [1] + [2 if math.isqrt(m) ** 2 == m else 0 for m in range(1, n + 1)]
    want = g
    for _ in range(s):
        want = exact_arith.poly_product(theta, want, n)
    assert exact_arith.theta_product(g, s, n) == want


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 7, 2000])
def test_class_number_route_matches_bernoulli_route(n_max):
    # n_max <= 7 covers the first forms of each weight: (1, 0, 1) at N = 4,
    # (1, 1, 1) at 3 and (1, 1, 2) at 7
    assert cohen_eisenstein(1, n_max) == cohen_bernoulli(1, n_max)


def test_route_follows_from_r(monkeypatch):
    def unavailable(*args):
        raise RuntimeError(f"a Cohen kernel asked for at {args}")

    monkeypatch.setattr(exact_arith, "generalized_bernoulli", unavailable)
    monkeypatch.setattr(qseries, "_generalized_bernoulli", unavailable)
    monkeypatch.setattr(exact_arith, "kronecker_symbol", unavailable)
    monkeypatch.setattr(qseries, "kronecker_symbol", unavailable)
    # the ring route's sigma values come from the divisor_sums sieve, not trial division
    monkeypatch.setattr(exact_arith, "divisor_power_sum", unavailable)
    monkeypatch.setattr(qseries, "divisor_power_sum", unavailable)
    for r in (1, 2, 3, 4, 5):
        assert cohen_eisenstein(r, 50).coefficient(0) == -bernoulli_number(2 * r) / (2 * r)
    with pytest.raises(RuntimeError):
        cohen_eisenstein(6, 50)


def test_bernoulli_route_validates_each_discriminant_once(monkeypatch):
    seen = []
    defect = exact_arith._fundamental_defect
    monkeypatch.setattr(exact_arith, "_fundamental_defect", lambda D: seen.append(D) or defect(D))
    cohen_bernoulli(1, 300)
    assert seen == [-a for a in range(1, 301)]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cohen_support(r):
    series = cohen_eisenstein(r, 50)
    for n in range(51):
        if ((-1) ** r * n) % 4 in (2, 3):
            assert series.coefficient(n) == 0


def test_truncation_stability():
    small = cohen_eisenstein(3, 25)
    large = cohen_eisenstein(3, 60)
    for n in range(26):
        assert small.coefficient(n) == large.coefficient(n)
    e_small = eisenstein_level1(6, 10)
    e_large = eisenstein_level1(6, 40)
    for n in range(11):
        assert e_small.coefficient(n) == e_large.coefficient(n)


def test_add_scale_identities():
    f = eisenstein_level1(4, 15)
    zero = 0 * f
    assert (f + zero).first_mismatch(f) is None
    assert all(c == 0 for c in zero.coeffs.values())


def test_exp_den_unification():
    a = QExpansion(1, 8, {0: 1, 2: Fraction(1, 3)})
    b = QExpansion(4, 20, {1: Fraction(1, 2), 8: 5})
    c = a + b
    assert c.exp_den == 4
    assert c.coefficient(Fraction(1, 4)) == Fraction(1, 2)
    assert c.coefficient(2) == Fraction(1, 3) + 5
    assert c.exponent_bound == Fraction(5)


def test_mul_unifies_grids():
    a = QExpansion(1, 5, {0: 2, 1: Fraction(1, 3)})
    b = QExpansion(4, 20, {1: Fraction(1, 2), 8: 5})
    c = a * b
    assert c.exp_den == 4 and c.n_max == 20
    assert c.coefficient(Fraction(1, 4)) == 1
    assert c.coefficient(Fraction(5, 4)) == Fraction(1, 6)
    assert c.coefficient(2) == 10
    assert c.coefficient(3) == Fraction(5, 3)
    assert sorted(c.coeffs) == [1, 5, 8, 12]  # q^(1/4), q^(5/4), q^2, q^3
    assert b * a == c


def test_mul_truncates_at_smaller_bound():
    a = QExpansion(1, 10, {0: 1, 1: 1, 3: 1})
    b = QExpansion(2, 5, {0: 1, 3: 1})
    c = a * b
    assert c.exp_den == 2 and c.exponent_bound == Fraction(5, 2)
    # q^3 and q^(9/2) lie beyond the smaller bound 5/2
    assert c.coeffs == {0: 1, 2: 1, 3: 1, 5: 1}
    with pytest.raises(TruncationError):
        c.coefficient(3)


def test_mul_constant_one_is_identity():
    f = eisenstein_level1(4, 15)
    one = QExpansion(1, 15, {0: 1})
    assert f * one == f and one * f == f
    g = QExpansion(4, 20, {1: Fraction(1, 2), 8: 5}, {0: Fraction(-1, 4)})
    assert g * QExpansion(1, 5, {0: 1}) == g


def test_mul_carries_nonholo_times_holo():
    a = QExpansion(1, 4, {1: 3}, {0: Fraction(-1, 4), 1: 2})
    b = QExpansion(1, 4, {0: 1, 2: 5})
    c = a * b
    assert c.coeffs == {1: 3, 3: 15}
    assert c.nonholo == {0: Fraction(-1, 4), 1: 2, 2: Fraction(-5, 4), 3: 10}
    assert b * a == c
    # an identically-zero nonholo table stays present
    assert (QExpansion(1, 4, {0: 1}, {}) * b).nonholo == {}
    assert (b * b).nonholo is None


def test_mul_refuses_nonholo_squared():
    a = QExpansion(1, 4, {0: 1}, {0: 1})
    with pytest.raises(ValueError, match="non-holomorphic"):
        a * a


def test_equality_beyond_truncation_is_error():
    a = QExpansion(1, 8, {0: 1})
    b = QExpansion(1, 5, {0: 1})
    assert a.first_mismatch(b) is None  # common range
    with pytest.raises(TruncationError):
        a.coefficient(9)


@pytest.mark.parametrize(
    "coeffs, nonholo",
    [({Fraction(1, 2): 1, 2.7: 3}, None), ({2.7: 3}, None), ({1: 1}, {Fraction(3, 2): 0})],
)
def test_constructor_refuses_non_integral_numerator(coeffs, nonholo):
    with pytest.raises(ValueError, match="not an integer"):
        QExpansion(1, 5, coeffs, nonholo)


def test_constructor_accepts_integral_numerators():
    series = QExpansion(1, 5, {Fraction(4, 2): 3, 5: Fraction(1, 3), 4: 0})
    assert series.coeffs == {2: 3, 5: Fraction(1, 3)}
    assert all(type(n) is int for n in series.coeffs)


def test_nonholo_kept_separate():
    a = QExpansion(1, 5, {1: 2}, {0: Fraction(1, 4)})
    b = QExpansion(1, 5, {1: 2}, {})
    assert a.first_mismatch(b) == (Fraction(0), Fraction(1, 4), Fraction(0), "nonholo")
    c = QExpansion(1, 5, {1: 2}, None)
    # absent and identically-zero non-holomorphic parts compare equal
    assert b.first_mismatch(c) is None


def grid_walk_first_mismatch(a, b):
    """Reference for ``QExpansion.first_mismatch``: visit every point of the
    common grid up to the common bound through the public Fraction lookups."""
    bound = min(a.exponent_bound, b.exponent_bound)
    den = math.lcm(a.exp_den, b.exp_den)
    for num in range(int(bound * den) + 1):
        e = Fraction(num, den)
        for part, get in (
            ("holo", QExpansion.coefficient),
            ("nonholo", QExpansion.nonholo_coefficient),
        ):
            x, y = get(a, e), get(b, e)
            if x != y:
                return (e, x, y, part)
    return None


_GRID_DENS = st.sampled_from([1, 2, 3, 4, 6])
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_SPARSE = st.dictionaries(st.integers(0, 30), _SMALL, max_size=6)


@st.composite
def _expansion_pairs(draw):
    # one sparse series on the grid (1/g) Z shared by both sides, stored by
    # each within its own bound; then at most one coefficient of b perturbed
    den_a, den_b = draw(_GRID_DENS), draw(_GRID_DENS)
    g = math.gcd(den_a, den_b)
    holo, nonholo = draw(_SPARSE), draw(st.none() | _SPARSE)

    def stored(table, den, n_max):
        s = den // g
        return {j * s: c for j, c in table.items() if j * s <= n_max}

    n_a, n_b = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    ha, hb = stored(holo, den_a, n_a), stored(holo, den_b, n_b)
    if nonholo is None:  # absent or identically zero, chosen per side
        na, nb = (None if draw(st.booleans()) else {} for _ in range(2))
    else:
        na, nb = stored(nonholo, den_a, n_a), stored(nonholo, den_b, n_b)
    perturb = draw(
        st.none()
        | st.tuples(
            st.booleans(), st.integers(0, n_b), _SMALL.filter(lambda c: c != 0)
        )
    )
    if perturb is not None:
        in_nonholo, num, delta = perturb
        if in_nonholo and nb is None:
            nb = {}
        table = nb if in_nonholo else hb
        table[num] = table.get(num, 0) + delta
    return QExpansion(den_a, n_a, ha, na), QExpansion(den_b, n_b, hb, nb)


@settings(max_examples=200, deadline=None)
@given(case=_expansion_pairs())
def test_first_mismatch_matches_grid_walk(case):
    a, b = case
    want = grid_walk_first_mismatch(a, b)
    assert a.first_mismatch(b) == want
    assert b.first_mismatch(a) == (
        None if want is None else (want[0], want[2], want[1], want[3])
    )


def test_multiple_of_both_empty():
    assert QExpansion(1, 5, {}).multiple_of(QExpansion(4, 3, {})) == (None, None)


def test_multiple_of_other_zero_at_first_exponent():
    a = QExpansion(1, 5, {1: 3, 2: 1})
    b = QExpansion(1, 5, {2: 1})
    assert a.multiple_of(b) == (None, (Fraction(1), Fraction(3), Fraction(0), "holo"))


def test_multiple_of_across_grids():
    # exp_den 1 against 4: q^1 and q^2 are the numerators 4 and 8 of the quarter grid
    a = QExpansion(1, 3, {1: 6, 2: -3})
    assert a.multiple_of(QExpansion(4, 12, {4: 2, 8: -1})) == (3, None)
    lam, mism = a.multiple_of(QExpansion(4, 12, {4: 2, 5: 7, 8: -1}))
    assert (lam, mism) == (3, (Fraction(5, 4), Fraction(0), Fraction(21), "holo"))


def test_multiple_of_ignores_coefficients_beyond_the_common_bound():
    a = QExpansion(1, 20, {0: 2, 10: 5})
    assert a.multiple_of(QExpansion(1, 5, {0: 1})) == (2, None)
    # nothing stored within the common bound: no multiple is read past it
    assert QExpansion(1, 5, {}).multiple_of(QExpansion(1, 20, {10: 1})) == (None, None)


def inline_multiple(a, b):
    """Reference for ``QExpansion.multiple_of`` on holomorphic expansions,
    through the public Fraction lookups: lam is read at the first exponent
    either side stores within the common bound, and a zero of b there is
    itself the first mismatch."""
    bound = min(a.exponent_bound, b.exponent_bound)
    stored = [e for s in (a, b) for e in (Fraction(n, s.exp_den) for n in s.coeffs) if e <= bound]
    if not stored:
        return None, None
    e = min(stored)
    f, h = a.coefficient(e), b.coefficient(e)
    if h == 0:
        return None, (e, f, h, "holo")
    lam = f / h
    return lam, grid_walk_first_mismatch(a, lam * b)


@settings(max_examples=200, deadline=None)
@given(case=_expansion_pairs(), mu=_SMALL)
def test_multiple_of_matches_inline_rule(case, mu):
    a, b = case
    a, b = QExpansion(a.exp_den, a.n_max, a.coeffs), mu * QExpansion(b.exp_den, b.n_max, b.coeffs)
    assert a.multiple_of(b) == inline_multiple(a, b)


def convolution_product(a, b):
    """Reference for ``QExpansion.__mul__``: the dict convolution on the
    common grid, one rational multiply-add per pair of stored terms."""
    if a.nonholo and b.nonholo:
        raise ValueError("product of two non-holomorphic parts is not representable")
    den = math.lcm(a.exp_den, b.exp_den)
    sa, sb = den // a.exp_den, den // b.exp_den
    n_max = min(a.n_max * sa, b.n_max * sb)

    def convolve(x, y):
        out = {}
        for n, c in x.items():
            for m, d in y.items():
                e = n * sa + m * sb
                if e <= n_max:
                    out[e] = out.get(e, Fraction(0)) + c * d
        return out

    nh = None
    if a.nonholo is not None or b.nonholo is not None:
        nh = {**convolve(a.nonholo or {}, b.coeffs), **convolve(a.coeffs, b.nonholo or {})}
    return QExpansion(den, n_max, convolve(a.coeffs, b.coeffs), nh)


# small and large signed integers, rationals, and zeros (dropped on storing)
_PRODUCT_COEFF = st.one_of(
    st.just(0),
    _SMALL,
    st.integers(-(2**240), 2**240).map(lambda c: c + (2**201 if c >= 0 else -(2**201))),
    st.fractions(max_denominator=12).map(lambda c: c * 2**205),
)


@st.composite
def _product_factors(draw):
    # a holomorphic factor and one that may carry a 1/(pi v) part, each on
    # its own grid and bound; all-zero tables included
    def factor(nonholo):
        den, n_max = draw(_GRID_DENS), draw(st.integers(0, 30))
        table = st.dictionaries(st.integers(0, n_max), _PRODUCT_COEFF, max_size=10)
        return QExpansion(den, n_max, draw(table), draw(nonholo(table)))

    holo = factor(lambda t: st.none() | st.just({}))
    other = factor(lambda t: st.none() | st.just({}) | t)
    return holo, other


@settings(max_examples=200, deadline=None)
@given(case=_product_factors())
def test_mul_matches_convolution(case):
    a, b = case
    for x, y in ((a, b), (b, a)):
        got, want = x * y, convolution_product(x, y)
        assert got == want
        assert (got.nonholo is None) == (want.nonholo is None)


def test_dilate():
    b = QExpansion(4, 20, {1: Fraction(1, 2), 8: 5}, {0: 1})
    d = b.dilate(4)
    assert d.exp_den == 1
    assert d.coefficient(1) == Fraction(1, 2)
    assert d.coefficient(8) == 5
    assert d.nonholo_coefficient(0) == 1


def test_json_round_trip():
    b = QExpansion(4, 20, {1: Fraction(1, 2), 8: 5}, {0: Fraction(-3, 7)})
    assert QExpansion.from_json_dict(b.to_json_dict()) == b


@settings(max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=0, max_value=6),
)
def test_divisor_sum_consistency(n, k):
    # sanity anchor for the Eisenstein generator
    assert divisor_power_sum(n, k) == sum(d**k for d in range(1, n + 1) if n % d == 0)


# -- table contract: an int when integral, a Fraction otherwise, never a float


def non_contract_entries(series):
    """(part, numerator, value) of every stored value that is neither an int
    nor a Fraction (a float, say), or is a Fraction with denominator 1."""
    return [
        (part, n, c)
        for part, table in (("holo", series.coeffs), ("nonholo", series.nonholo or {}))
        for n, c in table.items()
        if type(c) not in (int, Fraction) or (type(c) is int) != (Fraction(c).denominator == 1)
    ]


def _lift_sides():
    for k in (1, 3):
        for h, n_max in ((Fraction(0), 60), (Fraction(1, 2), 240)):
            cfg = LiftConfig(k, h, n_max)
            yield f"theta k={k} h={h}", lift_theta_side(cfg)
            yield f"geometric k={k} h={h}", lift_geometric_side(cfg)


def _level_one_theta11():
    lat = SplitLatticeU.unimodular()
    for k, w_u, w_up in ((1, 0, 1), (3, 0, 1), (3, 2, -5), (5, 1, 1), (3, Fraction(1, 3), 1)):
        yield f"theta11 k={k} w=({w_u}, {w_up})", theta11_series(lat, k, w_u, w_up, 80)


def _eisenstein_and_cohen_tables():
    for m in (4, 12):  # an integral series and one with 691 in its denominators
        yield f"E_{m}", eisenstein_level1(m, 60)
    for r in range(2, 6):
        yield f"cohen r={r}", cohen_eisenstein(r, 400)


@pytest.mark.parametrize("source", [_lift_sides, _level_one_theta11, _eisenstein_and_cohen_tables])
def test_tables_hold_ints_exactly_where_integral(source):
    for name, series in source():
        assert series.coeffs, name
        assert non_contract_entries(series) == [], name


def test_constructor_normalizes_integral_fractions():
    a = QExpansion(2, 6, {0: Fraction(6, 3), 1: Fraction(1, 2), 2: True, 3: 0}, {1: Fraction(-4)})
    assert a.coeffs == {0: 2, 1: Fraction(1, 2), 2: 1}
    assert [type(c) for c in a.coeffs.values()] == [int, Fraction, int]
    assert type(a.nonholo[1]) is int
    assert non_contract_entries(a) == []
    assert non_contract_entries(a + a) == non_contract_entries(Fraction(2) * a) == []
    assert type((Fraction(2) * a).coeffs[0]) is int


def test_public_accessors_return_fractions():
    a = QExpansion(1, 4, {0: 3, 1: Fraction(1, 2)}, {0: 7})
    for c in (a.coefficient(0), a.coefficient(1), a.coefficient(2), a.nonholo_coefficient(0)):
        assert type(c) is Fraction
    e, mine, theirs, _ = a.first_mismatch(QExpansion(1, 4, {0: 4}))
    assert (type(e), type(mine), type(theirs)) == (Fraction, Fraction, Fraction)
    lam, _ = QExpansion(1, 4, {1: 3}).multiple_of(QExpansion(1, 4, {1: 2}))
    assert lam == Fraction(3, 2) and type(lam) is Fraction


@pytest.mark.parametrize("table", ["coeffs", "nonholo"])
def test_constructor_refuses_a_float(table):
    tables = {"coeffs": {0: 1}, "nonholo": None, table: {2: 0.5}}
    with pytest.raises(TypeError):
        QExpansion(1, 4, tables["coeffs"], tables["nonholo"])


def test_scalar_float_is_refused():
    a = QExpansion(1, 4, {0: 1, 1: 2})
    with pytest.raises(TypeError):
        0.5 * a
    assert type((2 * a).coeffs[1]) is int
    assert (Fraction(1, 2) * a).coeffs == {0: Fraction(1, 2), 1: 1}


@settings(max_examples=150, deadline=None)
@given(
    x=st.lists(st.fractions(max_denominator=12).map(lambda c: c * 7), min_size=1, max_size=12),
    y=st.lists(st.one_of(_SMALL, st.fractions(max_denominator=6)), min_size=1, max_size=12),
    n=st.integers(0, 24),
)
def test_poly_product_with_a_common_denominator(x, y, n):
    got = exact_arith.poly_product(x, y, n)
    a, b = (QExpansion(1, n, dict(enumerate(v[: n + 1]))) for v in (x, y))
    want = convolution_product(a, b)
    assert got == [want.coefficient(e) for e in range(n + 1)]
    for c in got:
        assert type(c) in (int, Fraction)
        assert (type(c) is int) == (Fraction(c).denominator == 1)
