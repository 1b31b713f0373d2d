import itertools
import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectacle.caps import (
    CapInput,
    CapJumpError,
    CuspCap,
    boundary_pairing_polynomial,
    cap_closed_form,
    cap_solve,
    gamma0_width,
    spectacle_assemble,
)
from spectacle.exact_arith import bernoulli_poly
from spectacle.quad_space import (
    GeometryError,
    U_VEC,
    UPRIME_VEC,
    VecV,
    W0_VEC,
    conjugate_vec,
    isotropic_lines_of,
    qform,
    sigma_matrix,
)
from spectacle.sym_rep import (
    act,
    act_n,
    embed_power,
    embed_vector,
    pairing,
    u_power,
    uprime_power,
    weight_normalizer,
    weight_vector,
)


def _integral(poly, lo, hi):
    total = Fraction(0)
    for m, c in enumerate(poly):
        total += c * (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
    return total


def test_cap_example_weight_one():
    w = cap_solve(CapInput(k=1, width=1, position=0, jump=weight_vector(1, 0)))
    assert w == embed_vector(UPRIME_VEC - Fraction(1, 2) * W0_VEC + Fraction(1, 6) * U_VEC)
    w2 = cap_solve(CapInput(k=1, width=1, position=0, jump=weight_vector(1, 1)))
    assert w2 == Fraction(-1, 2) * weight_vector(1, 0) + Fraction(-1, 2) * weight_vector(1, 1)


def test_closed_form_examples():
    assert cap_closed_form(1, 0, 0, 1) == embed_vector(
        UPRIME_VEC - Fraction(1, 2) * W0_VEC + Fraction(1, 6) * U_VEC
    )
    assert cap_closed_form(1, 1, 0, 1) == Fraction(-1, 2) * weight_vector(1, 0) + Fraction(
        -1, 2
    ) * weight_vector(1, 1)


def _per_j_closed_form(k, i, r, M):
    """The closed form term by term, one ``bernoulli_poly`` per j."""
    r, M = Fraction(r), Fraction(M)
    out = [Fraction(0)] * (2 * k + 1)
    for j in range(i - 1, k + 1):
        out[k + j] = (
            (-M) ** (j - i)
            * comb(k + j, j + 1 - i)
            * bernoulli_poly(j + 1 - i, -r / M)
            / (k + i)
            * weight_normalizer(k, j)
        )
    return out


# negative, zero and non-integer positions and widths, integral and not
_POSITIONS = (Fraction(0), Fraction(-3), Fraction(5), Fraction(-7, 3), Fraction(11, 6))
_WIDTHS = (Fraction(1), Fraction(4), Fraction(2, 5), Fraction(9, 4))


@pytest.mark.parametrize("k", range(1, 13))
def test_closed_form_equals_the_per_j_bernoulli_form(k):
    for i, r, M in itertools.product(range(1 - k, k + 1), _POSITIONS, _WIDTHS):
        assert list(cap_closed_form(k, i, r, M).coeffs) == _per_j_closed_form(k, i, r, M), (i, r, M)


@pytest.mark.parametrize("k", range(1, 6))
def test_highest_weight_coefficient(k):
    # at weight index 0 the top coefficient is (2M)^k B_{k+1}(-r/M)/(k+1)
    M, r = Fraction(3, 2), Fraction(1, 3)
    w = cap_closed_form(k, 0, r, M)
    top = pairing(w, uprime_power(k)) / pairing(u_power(k), uprime_power(k))
    assert top == (2 * M) ** k * bernoulli_poly(k + 1, -r / M) / (k + 1)


def test_double_path_and_defining_conditions():
    rng = random.Random(2024)
    for k in range(1, 7):
        for i in range(-k + 1, k + 1):
            for _ in range(4):
                r = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                M = Fraction(rng.randint(1, 12), rng.randint(1, 9))
                v = act_n(r, weight_vector(k, i))
                w = cap_solve(CapInput(k=k, width=M, position=r, jump=v))
                assert w == cap_closed_form(k, i, r, M)
                # jump identity
                assert act_n(-M, w) - w == v
                # vanishing boundary period
                assert _integral(boundary_pairing_polynomial(w), r, r + M) == 0


@settings(max_examples=40)
@given(
    k=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_cap_solve_linearity(k, data):
    # the jump solve and the period normalization are both linear in v
    i1 = data.draw(st.integers(min_value=-k + 1, max_value=k))
    i2 = data.draw(st.integers(min_value=-k + 1, max_value=k))
    a = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    b = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    r = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=5))
    v1, v2 = weight_vector(k, i1), weight_vector(k, i2)
    combo = a * v1 + b * v2
    solve = lambda v: cap_solve(CapInput(k=k, width=Fraction(3, 2), position=r, jump=v))
    assert solve(combo) == a * solve(v1) + b * solve(v2)


def test_cap_solve_rejects_bad_jump():
    with pytest.raises(CapJumpError, match="highest-weight"):
        cap_solve(CapInput(k=2, width=1, position=0, jump=uprime_power(2)))


def test_closed_form_range():
    with pytest.raises(ValueError, match="out of range"):
        cap_closed_form(3, -3, 0, 1)
    cap_closed_form(3, -2, 0, 1)  # boundary index is admissible


def test_boundary_term_at_lowest_admissible_index():
    # the sum's first term j = i-1 does not vanish at i = -k+1
    k = 3
    i = -k + 1
    w = cap_closed_form(k, i, Fraction(1, 5), Fraction(2))
    lowest = w.coeffs[0]  # coefficient on e2^(2k), the v_{-2k} direction
    assert lowest != 0


def test_spectacle_assemble_worked_example():
    for N in (1, 2, 3, 5):
        cyc = spectacle_assemble(W0_VEC, 1, N)
        first, second = cyc.caps
        assert first.line.cusp == (1, 0)
        assert second.line.cusp == (0, 1)
        assert first.vector == embed_vector(
            UPRIME_VEC - Fraction(1, 2) * W0_VEC + Fraction(1, 6) * U_VEC
        )
        assert second.vector == embed_vector(
            Fraction(-1, N) * U_VEC - Fraction(1, 2) * W0_VEC - Fraction(N, 6) * UPRIME_VEC
        )


def _solved_cusp_cap(line, x, k, width):
    # the triangular-solve route: the jump x^k moved into the cusp's normal
    # form by sigma^(-1), capped by cap_solve and moved back by sigma
    sig = sigma_matrix(line)
    inv = (sig[3], -sig[1], -sig[2], sig[0])
    xt = conjugate_vec(inv, x)
    r = -xt.c / (2 * xt.b)
    jump = act(inv, embed_power(x, k))
    return CuspCap(line, r, act(sig, cap_solve(CapInput(k=k, width=width, position=r, jump=jump))))


def test_spectacle_assemble_equals_the_cap_solve_route():
    # the assembled caps come from the closed form; cap_solve, reached by
    # transporting the jump itself, must give the same cusps, positions and caps
    rng = random.Random(22)
    rand = lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
    found = 0
    while found < 320:
        # split: q(x) = b^2 + ac is the square s^2
        a, b, s = rand(), rand(), rand()
        x = VecV(a, b, (s * s - b * b) / a if a else rand())
        if qform(x) <= 0:
            continue
        k, level = rng.randint(1, 6), rng.randint(1, 6)
        width = gamma0_width(level)
        want = tuple(_solved_cusp_cap(line, x, k, width(line)) for line in isotropic_lines_of(x))
        assert spectacle_assemble(x, k, level).caps == want, (x, k, level)
        found += 1


def test_spectacle_assemble_orientation_swap():
    c1 = spectacle_assemble(W0_VEC, 1)
    c2 = spectacle_assemble(-W0_VEC, 1)
    assert c1.caps[0].line == c2.caps[1].line
    assert c1.caps[1].line == c2.caps[0].line


def test_spectacle_assemble_closed_cycle():
    cyc = spectacle_assemble(VecV(2, 0, 1), 1)
    assert cyc.caps is None
    with pytest.raises(GeometryError):
        spectacle_assemble(VecV(0, 0, 1), 1)


def test_caps_absent_exactly_when_q_is_not_a_square():
    # every spacelike integral vector of a small box, so q(x) is an integer
    closed = split = 0
    span = range(-3, 4)
    for a, b, c in ((a, b, c) for a in span for b in span for c in span):
        q = b * b + a * c
        if q <= 0:
            continue
        cyc = spectacle_assemble(VecV(a, b, c), 1 + (a + b + c) % 3)
        square = math.isqrt(q) ** 2 == q
        assert (cyc.caps is None) == (not square), (a, b, c)
        if square:
            assert len(cyc.caps) == 2 and all(isinstance(cap, CuspCap) for cap in cyc.caps)
        closed += not square
        split += square
    assert closed > 50 and split > 50


def test_spectacle_assemble_jump_in_global_coordinates():
    # (gamma_ell^{-1} - Id) w = v for the actual stabilizer generator of
    # Gamma_0(level) at each cusp, v = x^k the cycle's coefficient
    rng = random.Random(31)
    levels = set()
    found = 0
    while found < 60:
        x = VecV(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        if qform(x) <= 0:
            continue
        level = rng.randint(1, 5)
        try:
            cyc = spectacle_assemble(x, rng.randint(1, 3), level)
        except GeometryError:
            continue
        if cyc.caps is None:
            continue
        found += 1
        levels.add(level)
        v = embed_power(cyc.x, cyc.k)
        for line, _pos, w in cyc.caps:
            a, b, c, d = sigma_matrix(line)
            # gamma = sigma n(M) sigma^(-1), M the cusp's width in Gamma_0(level)
            nM = (1, gamma0_width(level)(line), 0, 1)
            gamma = _mat_mul(_mat_mul((a, b, c, d), nM), (d, -b, -c, a))
            gamma_inv = (gamma[3], -gamma[1], -gamma[2], gamma[0])
            assert act(gamma_inv, w) - w == v, (x, cyc.k, level)
    assert levels == {1, 2, 3, 4, 5}


def _mat_mul(u, v):
    return (
        u[0] * v[0] + u[1] * v[2],
        u[0] * v[1] + u[1] * v[3],
        u[2] * v[0] + u[3] * v[2],
        u[2] * v[1] + u[3] * v[3],
    )
