import math
import random
from fractions import Fraction

import pytest
from coset_oracle import (
    CosetConstraint,
    UnboundedEnumerationError,
    enumerate_coset,
)
from spectacle.quad_space import (
    LINE_INFINITY,
    GeometryError,
    IsotropicLine,
    U_VEC,
    UPRIME_VEC,
    VecV,
    W0_VEC,
    conjugate_vec,
    epsilon_sign,
    epsilon_sign_int,
    inner,
    isotropic_lines_of,
    qform,
    sigma_matrix,
    triple,
)


LINE_ZERO = IsotropicLine.from_cusp(0, 1)


def cross(x, y):
    """Minkowski cross product: the unique p with (p, z) = triple(x, y, z), the
    orientation reference that ``epsilon_sign`` is checked against."""
    return VecV(
        x.a * y.b - y.a * x.b,
        (y.a * x.c - x.a * y.c) / 2,
        x.b * y.c - y.b * x.c,
    )


def rand_vec(rng, span=9):
    return VecV(rng.randint(-span, span), rng.randint(-span, span), rng.randint(-span, span))


def test_matrix_model_identities():
    rng = random.Random(1)
    for _ in range(100):
        x, y = rand_vec(rng), rand_vec(rng)
        (m00, m01), (m10, m11) = x.as_matrix()
        det = m00 * m11 - m01 * m10
        assert qform(x) == -det
        (n00, n01), (n10, n11) = y.as_matrix()
        trace_xy = m00 * n00 + m01 * n10 + m10 * n01 + m11 * n11
        assert inner(x, y) == trace_xy


def test_inner_examples():
    assert inner(U_VEC, UPRIME_VEC) == -1
    assert inner(U_VEC, W0_VEC) == 0
    assert qform(VecV(1, 0, 1)) == 1
    assert qform(U_VEC) == 0


def test_triple_orientation():
    assert triple(U_VEC, W0_VEC, UPRIME_VEC) == 1
    assert triple(UPRIME_VEC, W0_VEC, U_VEC) == -1
    assert triple(U_VEC, U_VEC, W0_VEC) == 0


def test_cross_defining_property():
    rng = random.Random(2)
    for _ in range(100):
        x, y, z = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        assert inner(cross(x, y), z) == triple(x, y, z)
        assert cross(y, x) == -cross(x, y)
        assert inner(cross(x, y), x) == 0


def test_cross_matches_euclidean_frame_exactly():
    # Orthonormal frame e1 = (u - u')/sqrt2, e2 = w0/sqrt2, e3 = (u + u')/sqrt2;
    # the frame formula is x cross y = (x2 y3 - x3 y2) e1 - (x1 y3 - x3 y1) e2
    # - (x1 y2 - x2 y1) e3, and our rational cross is that divided by sqrt2.
    # For rational vectors all frame coordinates are rational multiples of
    # 1/sqrt2, so with x_i = a_i/sqrt2 the sqrt2 factors cancel exactly:
    # frame_num(cross(x, y)) must equal the bracket expressions over 2.

    def frame_num(v):
        # v = sum (a_i / sqrt2) e_i; returns the rational a_i
        return (
            inner(v, U_VEC - UPRIME_VEC),
            2 * v.b,
            -inner(v, U_VEC + UPRIME_VEC),
        )

    rng = random.Random(3)
    for _ in range(100):
        x, y = rand_vec(rng, 7), rand_vec(rng, 7)
        a1, a2, a3 = frame_num(x)
        b1, b2, b3 = frame_num(y)
        want = (
            Fraction(a2 * b3 - a3 * b2, 2),
            Fraction(-(a1 * b3 - a3 * b1), 2),
            Fraction(-(a1 * b2 - a2 * b1), 2),
        )
        assert frame_num(cross(x, y)) == want


def test_epsilon_examples():
    assert epsilon_sign(VecV(1, 0, 1), W0_VEC) == 1
    assert epsilon_sign(W0_VEC, VecV(1, 0, 1)) == -1
    assert epsilon_sign(2 * VecV(1, 0, 1), 3 * W0_VEC) == 1
    with pytest.raises(GeometryError, match="positive 2-plane"):
        epsilon_sign(U_VEC + UPRIME_VEC, W0_VEC)


def _rand_rational_vec(rng, span=6):
    return VecV(*(Fraction(rng.randint(-span, span), rng.randint(1, 5)) for _ in range(3)))


def _scaled_integral(rng, v):
    # a random positive multiple of v with integer coordinates
    s = math.lcm(v.a.denominator, v.b.denominator, v.c.denominator) * rng.randint(1, 4)
    return tuple(int(t * s) for t in (v.a, v.b, v.c))


def test_integer_sign_kernel_against_fraction_reference():
    # the kernel on scaled integral coordinates against the Fraction
    # definitions: the plane test from qform and inner, the sign from
    # triple(x, y, u + u'); epsilon_sign on the rational vectors agrees
    rng = random.Random(20261018)
    down = U_VEC + UPRIME_VEC
    positive = rejected = 0
    for _ in range(3000):
        x, y = _rand_rational_vec(rng), _rand_rational_vec(rng)
        xi, yi = _scaled_integral(rng, x), _scaled_integral(rng, y)
        qx, qy = qform(x), qform(y)
        if qx <= 0 or qy <= 0 or 4 * qx * qy <= inner(x, y) ** 2:
            with pytest.raises(GeometryError, match="positive 2-plane"):
                epsilon_sign_int(xi, yi)
            with pytest.raises(GeometryError, match="positive 2-plane"):
                epsilon_sign(x, y)
            rejected += 1
            continue
        t = triple(x, y, down)
        assert t != 0
        want = 1 if t > 0 else -1
        assert epsilon_sign_int(xi, yi) == want, (x, y)
        assert epsilon_sign(x, y) == want, (x, y)
        positive += 1
    assert positive > 300 and rejected > 300
    # boundary cases of the plane test: a null vector, and a degenerate plane
    with pytest.raises(GeometryError):
        epsilon_sign_int((0, 0, 1), (0, 1, 0))
    with pytest.raises(GeometryError):
        epsilon_sign_int((1, 0, 1), (2, 0, 2))


@pytest.mark.parametrize("alpha, beta", [(1, 0), (0, 1), (3, 5), (-2, 7), (1, 1), (-1, 1)])
def test_generator_is_the_primitive_vector_of_the_cusp(alpha, beta):
    want = ((-alpha * beta, alpha * alpha), (-beta * beta, alpha * beta))
    for scale in (1, -1, 3, -4):  # from_cusp normalises any multiple to (alpha, beta)
        line = IsotropicLine.from_cusp(scale * alpha, scale * beta)
        assert line.cusp == (alpha, beta)
        assert line.generator.as_matrix() == want
    g = line.generator
    assert math.gcd(int(g.a), int(g.b), int(g.c)) == 1 and qform(g) == 0


def test_isotropic_lines_of_w0():
    l1, l2 = isotropic_lines_of(W0_VEC)
    assert (l1, l2) == (LINE_INFINITY, LINE_ZERO)
    l1, l2 = isotropic_lines_of(-W0_VEC)
    assert (l1, l2) == (LINE_ZERO, LINE_INFINITY)


def test_isotropic_lines_unit_semicircle():
    pair = isotropic_lines_of(VecV(1, 0, 1))
    assert {l.cusp for l in pair} == {(1, 1), (-1, 1)}


def test_isotropic_lines_exact_properties():
    rng = random.Random(4)
    found = 0
    while found < 60:
        x = rand_vec(rng)
        q = qform(x)
        try:
            l1, l2 = isotropic_lines_of(x)
        except GeometryError:
            continue
        found += 1
        for line in (l1, l2):
            assert qform(line.generator) == 0
            assert inner(line.generator, x) == 0
            assert line.generator != VecV(0, 0, 0)
        assert triple(l1.generator, x, l2.generator) > 0
        # a positive multiple has the same oriented pair, also where the
        # triple product falls below 1
        assert isotropic_lines_of(Fraction(1, 12) * x) == (l1, l2)


def test_isotropic_lines_nonsplit_rejected():
    with pytest.raises(GeometryError, match="closed"):
        isotropic_lines_of(VecV(2, 0, 1))
    with pytest.raises(GeometryError):
        isotropic_lines_of(U_VEC)


def test_sigma_matrix_properties():
    for line in (LINE_INFINITY, LINE_ZERO, IsotropicLine.from_cusp(3, 5), IsotropicLine.from_cusp(-2, 7)):
        a, b, c, d = sigma_matrix(line)
        assert a * d - b * c == 1
        assert (a, c) == line.cusp
        assert conjugate_vec((a, b, c, d), U_VEC) == line.generator


def test_enumerate_coset_examples():
    vs = sorted(
        enumerate_coset(0, CosetConstraint(q_value=Fraction(1), u_positive=True)),
        key=lambda v: (v.a, v.b, v.c),
    )
    # divisor pairs of a*c = 1: exactly u - u' and its negative
    assert vs == [VecV(-1, 0, -1), VecV(1, 0, 1)]
    vs2 = set(enumerate_coset(Fraction(1, 2), CosetConstraint(q_value=Fraction(1, 4), u_zero=True)))
    assert vs2 == {VecV(0, Fraction(1, 2), 0), VecV(0, Fraction(-1, 2), 0)}
    assert list(enumerate_coset(0, CosetConstraint(q_value=Fraction(-3), u_positive=True))) == []


def test_enumerate_coset_box_matches_filter():
    got = set(enumerate_coset(0, CosetConstraint(q_value=Fraction(4), box=(3, 3, 3))))
    brute = {
        VecV(a, b, c)
        for a in range(-3, 4)
        for b in range(-3, 4)
        for c in range(-3, 4)
        if b * b + a * c == 4
    }
    assert got == brute


def test_enumerate_coset_refuses_unbounded():
    with pytest.raises(UnboundedEnumerationError, match="bound"):
        list(enumerate_coset(0, CosetConstraint(q_value=Fraction(4))))
