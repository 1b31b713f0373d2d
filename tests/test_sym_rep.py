import random
from fractions import Fraction
from math import comb, factorial
from operator import add

import pytest

from spectacle.exact_arith import clear_denominators, poly_product
from spectacle.quad_space import U_VEC, VecV, W0_VEC, conjugate_vec, inner
from spectacle.sym_rep import (
    SymVector,
    act,
    act_n,
    embed_power,
    embed_vector,
    n_mat,
    pairing,
    raising,
    u_power,
    uprime_power,
    weight_vector,
)


def _mul(u, v):
    return (
        u[0] * v[0] + u[1] * v[2],
        u[0] * v[1] + u[1] * v[3],
        u[2] * v[0] + u[3] * v[2],
        u[2] * v[1] + u[3] * v[3],
    )


def _rand_gamma(rng):
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            m = _mul(m, (0, -1, 1, 0))
        else:
            m = _mul(m, (1, rng.randint(-3, 3), 0, 1))
    return m


def _rand_sym(rng, k):
    return SymVector(
        k, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2 * k + 1))
    )


def _per_coefficient_act(g, v):
    """``act`` coefficient by coefficient, as its reference: each v_i (a e1 +
    c e2)^i (b e1 + d e2)^(2k-i) from two binomial rows and their
    ``poly_product``, in integers over one denominator."""
    gden, (a, b, c, d) = clear_denominators([Fraction(t) for t in g])
    vden, nums = clear_denominators(v.coeffs)
    n = 2 * v.k
    out = [0] * (n + 1)
    for i, coeff in enumerate(nums):
        if coeff:
            first = [coeff * comb(i, t) * a**t * c ** (i - t) for t in range(i + 1)]
            second = [comb(n - i, t) * b**t * d ** (n - i - t) for t in range(n - i + 1)]
            out = list(map(add, out, poly_product(first, second, n)))
    den = vden * gden**n
    return SymVector(v.k, tuple(Fraction(t, den) for t in out))


def test_act_equals_the_per_coefficient_form():
    # S, U and a matrix with four non-integer entries, against random
    # rational vectors with some zero coefficients, for every k <= 12
    rng = random.Random(20261020)
    rational = (Fraction(2, 3), Fraction(1, 4), Fraction(-4, 5), Fraction(6, 5))
    mats = ((0, -1, 1, 0), (1, 1, 0, 1), rational)
    for k in range(13):
        for g in mats:
            for _ in range(3):
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) * rng.randint(0, 1)
                          for _ in range(2 * k + 1)]
                v = SymVector(k, coeffs)
                assert act(g, v) == _per_coefficient_act(g, v), (k, g, coeffs)


def test_act_validates_determinant():
    v = SymVector(1, (1, 2, 3))
    with pytest.raises(ValueError, match="determinant"):
        act((1, 1, 1, 1), v)
    act((1, 5, 0, 1), v)


def test_act_identity_and_unipotent():
    v = SymVector(2, (1, 2, 3, 4, 5))
    assert act((1, 0, 0, 1), v) == v
    # n(z) on the lowest weight vector expands (z^2 u - z w0 + u')^k
    z = Fraction(5, 3)
    assert act_n(z, uprime_power(1)) == embed_vector(VecV(-1, -z, z * z))
    got = act_n(z, uprime_power(2))
    want = embed_power(VecV(-1, -z, z * z), 2)
    assert got == want


def test_action_axiom_and_invariance():
    rng = random.Random(11)
    for _ in range(100):
        g, h = _rand_gamma(rng), _rand_gamma(rng)
        k = rng.randint(1, 4)
        v, w = _rand_sym(rng, k), _rand_sym(rng, k)
        assert act(_mul(g, h), v) == act(g, act(h, v))
        assert pairing(act(g, v), act(g, w)) == pairing(v, w)


def test_raising_basics():
    assert not any(raising(u_power(3)).coeffs)
    assert raising(uprime_power(1)) == embed_vector(-W0_VEC)
    v = weight_vector(4, -2)
    w = v
    for _ in range(9):
        w = raising(w)
    assert not any(w.coeffs)


@pytest.mark.parametrize("k", range(1, 9))
def test_weight_vector_normalizations(k):
    ck = Fraction((-2) ** k * factorial(k) ** 2, factorial(2 * k))
    assert weight_vector(k, k) == ck * u_power(k)
    assert weight_vector(k, -k) == ck * uprime_power(k)
    assert weight_vector(k, 0) == embed_power(W0_VEC, k)
    for i in range(-k, k):
        assert weight_vector(k, i + 1) == Fraction(1, i + k + 1) * raising(weight_vector(k, i))
    for i in range(-k, k + 1):
        sign = 1 if i % 2 == 0 else -1
        want = Fraction(sign * ck**2 * factorial(2 * k), factorial(k + i) * factorial(k - i))
        assert pairing(weight_vector(k, i), weight_vector(k, -i)) == want
        for j in range(-k, k + 1):
            if j != -i:
                assert pairing(weight_vector(k, i), weight_vector(k, j)) == 0


def test_weight_vector_range():
    with pytest.raises(ValueError):
        weight_vector(2, 3)


def test_pairing_normalization_and_mismatch():
    for k in range(0, 7):
        assert pairing(u_power(k), uprime_power(k)) == (-1) ** k
    with pytest.raises(ValueError, match="mismatched"):
        pairing(u_power(1), u_power(2))


def test_embed_power_equivariance():
    rng = random.Random(12)
    for _ in range(100):
        g = _rand_gamma(rng)
        x = VecV(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        k = rng.randint(1, 4)
        assert act(g, embed_power(x, k)) == embed_power(conjugate_vec(g, x), k)


def test_isotropic_power_pairing():
    rng = random.Random(13)
    for _ in range(100):
        k = rng.randint(1, 5)
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        xiso = conjugate_vec(n_mat(r), U_VEC)
        y = VecV(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        assert pairing(embed_power(xiso, k), embed_power(y, k)) == inner(xiso, y) ** k


def test_harmonic_norm_differs_from_naive_power_rule():
    # The k-th power embedding is a harmonic projection, not the full power:
    # at k = 2 the self-pairing of the w0 image is 8/3, not inner(w0,w0)^2 = 4.
    v = embed_power(W0_VEC, 2)
    assert pairing(v, v) == Fraction(8, 3)
    assert inner(W0_VEC, W0_VEC) ** 2 == 4


def test_pairing_with_unipotent_constant():
    for k in (1, 2, 3, 5):
        for t in (Fraction(0), Fraction(3, 2), Fraction(-7, 3)):
            assert pairing(act_n(t, uprime_power(k)), u_power(k)) == (-1) ** k


def test_s_mat_swaps_isotropic_powers():
    s, s_inv = (0, -1, 1, 0), (0, 1, -1, 0)
    for k in (1, 2, 3):
        assert act(s, u_power(k)) == uprime_power(k)
        assert act(s, uprime_power(k)) == u_power(k)
        # S and S^-1 agree in even degree
        v = weight_vector(k, 0)
        assert act(s, v) == act(s_inv, v)
