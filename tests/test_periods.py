import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from spectacle import cli, exact_arith, periods, qseries
from spectacle.caps import CapInput, boundary_pairing_polynomial, cap_closed_form, cap_solve
from spectacle.exact_arith import bernoulli_number
from spectacle.periods import (
    HolomorphicFormSpec,
    _gamma_q,
    c_constant,
    completed_L,
    geodesic_intersection_numeric,
    spectacle_period,
)
from spectacle.qseries import eisenstein_level1
from spectacle.quad_space import (
    GeometryError,
    IsotropicLine,
    VecV,
    W0_VEC,
    epsilon_sign,
    inner,
    qform,
    sigma_matrix,
)
from spectacle.sym_rep import act, weight_vector


def exact_lambda(weight: int, s: int) -> Fraction:
    """Closed form of Lambda(E_weight, s) at even integers in the strip.

    Lambda(s) = (2 pi)^(-s) Gamma(s) L(s) with L(s) = -(2m/B_m) zeta(s)
    zeta(s - m + 1); for even s both zeta factors are Bernoulli rationals
    and the pi powers cancel.
    """
    m = weight
    if s % 2 == 1:
        raise ValueError("rational closed form only at even s")
    j = s // 2
    from math import factorial

    zeta_even_over_pi = (
        Fraction((-1) ** (j + 1)) * bernoulli_number(2 * j) * 2 ** (2 * j) / (2 * factorial(2 * j))
    )  # zeta(2j) = zeta_even_over_pi * pi^(2j)
    zeta_neg = -bernoulli_number(m - s) / (m - s)  # zeta(s - m + 1), negative odd argument
    lvalue_scale = -2 * m / bernoulli_number(m)
    # (2 pi)^(-s) Gamma(s) * lvalue_scale * zeta(2j) * zeta_neg
    return (
        Fraction(factorial(s - 1), 2**s)
        * lvalue_scale
        * zeta_even_over_pi
        * zeta_neg
    )


def closed_form_lambda(weight: int, s: int) -> float:
    """Zeta-product closed form at any integer point of the open strip.

    Even s: exact rational (see exact_lambda).  Odd s strictly inside: the
    factor zeta(s - m + 1) sits at a negative even integer, so the value is
    0, except at s = m - 1 where zeta(0) = -1/2, and at s = 1 where the
    zeta(s) pole meets the zero and leaves zeta'(2 - m); both reduce to
    zeta(m - 1) by zeta'(-2n) = (-1)^n (2n)! zeta(2n+1) / (2 (2 pi)^(2n)).
    """
    import math

    from scipy.special import zeta as scipy_zeta

    m = weight
    if s % 2 == 0:
        return float(exact_lambda(m, s))
    scale = float(-2 * m / bernoulli_number(m))
    two_pi = 2 * math.pi
    if s == m - 1:
        return two_pi ** (1 - m) * math.factorial(m - 2) * scale * float(scipy_zeta(m - 1)) * -0.5
    if s == 1:
        n = (m - 2) // 2
        zeta_prime = (
            (-1) ** n * math.factorial(m - 2) * float(scipy_zeta(m - 1)) / (2 * two_pi ** (m - 2))
        )
        return scale * zeta_prime / two_pi
    return 0.0


def test_exact_lambda_oracle_values():
    assert exact_lambda(4, 2) == Fraction(-5, 6)
    assert exact_lambda(8, 4) == Fraction(1, 60)
    assert exact_lambda(6, 2) == Fraction(-7, 40)
    assert exact_lambda(8, 2) == Fraction(-5, 63)


@pytest.mark.parametrize("weight", [4, 6, 8])
def test_completed_L_matches_closed_forms(weight):
    form = HolomorphicFormSpec.eisenstein(weight)
    for s in range(1, weight):
        want = closed_form_lambda(weight, s)
        assert abs(completed_L(form, float(s)) - want) < 1e-10, (weight, s)


def test_completed_L_functional_equation():
    # each side against the closed form, not one against the other: both are
    # summed by the same code, so their difference would cancel a shared fault
    for weight in range(4, 31, 2):
        form = HolomorphicFormSpec.eisenstein(weight)
        eps = (-1) ** (form.k + 1)
        for s in range(1, weight):
            want = closed_form_lambda(weight, s)
            assert abs(completed_L(form, s) - want) < 1e-12, (weight, s)
            assert abs(eps * completed_L(form, weight - s) - want) < 1e-12, (weight, s)


def test_gamma_q_matches_scipy():
    from scipy.special import gammaincc

    for weight in range(4, 31, 2):
        for s in range(1, weight):
            for n in range(1, 61):
                x = 2 * math.pi * n
                want = float(gammaincc(s, x))
                if want > 1e-300:
                    assert abs(_gamma_q(s, x) - want) <= 1e-13 * want, (weight, s, n)


@pytest.mark.parametrize("weight", range(4, 31, 2))
def test_completed_L_matches_exact_lambda(weight, monkeypatch):
    # Lambda cancels heavily inside the strip (relative error 1e-8 at weight
    # 30), so the bound is set by the same sums with scipy's Q(s, x)
    from scipy.special import gammaincc

    form = HolomorphicFormSpec.eisenstein(weight)

    def worst() -> float:
        return max(
            abs(completed_L(form, s) / float(exact_lambda(weight, s)) - 1)
            for s in range(2, weight, 2)
        )

    err = worst()
    monkeypatch.setattr(periods, "_gamma_q", gammaincc)
    assert err <= max(1e-12, 4 * worst())


def test_completed_L_domain():
    form = HolomorphicFormSpec.eisenstein(4)
    with pytest.raises(ValueError):
        completed_L(form, 0.0)
    with pytest.raises(ValueError):
        completed_L(form, 4.0)


def test_completed_L_refuses_non_integer_s():
    form = HolomorphicFormSpec.eisenstein(6)
    for s in (0.6, 2.4):
        with pytest.raises(ValueError, match=f"s = {s} "):
            completed_L(form, s)
    assert completed_L(form, 3).hex() == completed_L(form, 3.0).hex()


def test_c_constant_values():
    assert c_constant(1, 0) == 2
    assert c_constant(3, 0) == -8
    assert abs(c_constant(3, 2) - Fraction(12, 5)) < 1e-12


def _quadrature_axis_integral(f: HolomorphicFormSpec, s: int, T: float) -> float:
    """The former adaptive-quadrature route: integrate.quad over the q-series
    truncated where |a_n| e^(-2 pi n) stays below 1e-16 twice running."""
    import math

    from scipy import integrate

    def a(n: int) -> float:
        num, den = f.a(n)
        return num / den

    coeffs = [a(0)]
    quiet = 0
    while quiet < 2:
        n = len(coeffs)
        coeffs.append(a(n))
        quiet = quiet + 1 if abs(coeffs[n]) * math.exp(-2 * math.pi * n) < 1e-16 else 0

    def integrand(y: float) -> float:
        q = math.exp(-2 * math.pi * y)
        return sum(c * q**n for n, c in enumerate(coeffs)) * y ** (s - 1)

    value, _ = integrate.quad(integrand, 1.0, T, epsabs=1e-12, epsrel=1e-12, limit=300)
    return value


def _den_deg(polys) -> tuple:
    """A common denominator of the antiderivatives' coefficients, and the longest length."""
    den = math.lcm(*(c.denominator * (m + 1) for p in polys for m, c in enumerate(p)))
    return den, max(map(len, polys))


def _boundary_terms(chain, den: int, deg: int) -> tuple:
    """Exact boundary data of int f(z) i^e P(z) dz over segments (z0, z1, e, P),
    in the form ``_general_mode_sum`` reads: endpoints x + iy as exact (x, y),
    x an integer and y > 0 rational, P rational coefficients, constant term
    first.  The integral is the boundary sum of +-i^e F(z), F' = P; as f has
    period 1, the F(x + w) of all endpoints at height y join, by an integer
    Taylor shift, in one polynomial in w: its deg + 1 real, then imaginary,
    coefficients times ``den``, at each y where nonzero."""
    by_height = {}
    for z0, z1, e, p in chain:
        anti = [0] + [c.numerator * den // (c.denominator * (m + 1)) for m, c in enumerate(p)]
        for (x, y), unit in ((z1, e), (z0, e + 2)):
            t = anti[:]
            for i in range(len(t) - 1 if x else 0):
                for m in range(len(t) - 2, i - 1, -1):
                    t[m] += x * t[m + 1]
            parts = by_height.setdefault(y, [0] * (2 * deg + 2))
            for m, c in enumerate(t, unit % 2 * (deg + 1)):  # times i^unit = 1, i, -1, -i
                parts[m] += c if unit % 4 < 2 else -c
    return tuple((y, tuple(parts)) for y, parts in by_height.items() if any(parts))


def _cap_polynomial(k: int, j: int) -> tuple:
    """Boundary pairing polynomial of the cap at infinity for the jump v_{2j},
    from the Bernoulli closed form (width 1, position 0).  The cap at zero
    solves, in cusp-normal coordinates, for S v_{2j} = (-1)^(k-j) v_{-2j};
    caps are linear in the jump, so its polynomial is (-1)^(k-j) times
    ``_cap_polynomial(k, -j)``."""
    return boundary_pairing_polynomial(cap_closed_form(k, j, 0, 1))


def _general_mode_sum(f: HolomorphicFormSpec, terms, den: int, deg: int) -> complex:
    """``periods._mode_sum`` at every height of ``terms``, as ``_boundary_terms``
    gives them: at y = N/D they are V_y(w) = sum_r t_r (w - iy)^r.  The mode
    a_n e^(2 pi i n z) gives a_0 t_0 for n = 0, summed exactly over all
    heights and rounded once, and for n >= 1 a_n e^(-2 pi n y) Q_n(iy),
    Q_n' + 2 pi i n Q_n = V_y' solved in closed form: Q_n(iy) = -sum_{r>=1}
    r! t_r mu^r, mu = i/(2 pi n).  Summation stops where ``periods._mode_sum``
    stops; a height whose e^(-2 pi n y) underflows drops out."""
    exact, heights = [Fraction(0), Fraction(0)], []
    for y, parts in terms:
        # homogenised in y = N/D: g_m D^(deg-m), Taylor-shifted by iN
        N, D = y.numerator, y.denominator
        re = [c * D ** (deg - m) for m, c in enumerate(parts[: deg + 1])]
        im = [c * D ** (deg - m) for m, c in enumerate(parts[deg + 1 :])]
        for i in range(deg):
            for m in range(deg - 1, i - 1, -1):
                re[m], im[m] = re[m] - N * im[m + 1], im[m] + N * re[m + 1]
        q = [den * D ** (deg - r) for r in range(deg + 1)]  # t_r = (re[r] + i im[r]) / q[r]
        exact = [exact[0] + Fraction(re[0], q[0]), exact[1] + Fraction(im[0], q[0])]
        heights.append((N / D, [complex(re[r] / q[r], im[r] / q[r]) for r in range(1, deg + 1)]))
    a0 = Fraction(*f.a(0))
    total = complex(a0 * exact[0], a0 * exact[1])
    scale = abs(total)
    for n in range(1, periods._MAX_MODES + 1):
        mu = 1j / (2 * math.pi * n)
        mode = 0j
        for y, taylor in heights:
            decay = math.exp(-2 * math.pi * n * y)
            if decay:
                acc = 0j  # -Q_n(iy) = sum_r r! t_r mu^r by Horner
                for r in range(len(taylor), 0, -1):
                    acc = (acc + taylor[r - 1]) * r * mu
                mode -= decay * acc
        num, d = f.a(n)
        mode *= num / d
        total += mode
        scale = max(scale, abs(mode))
        if n >= 3 and abs(mode) <= periods._TAIL_TOL * scale:
            return total
    raise RuntimeError("Fourier-mode tail did not converge")


def _cycle_integral(f: HolomorphicFormSpec, chain) -> complex:
    """Sum of int_{z0}^{z1} f(z) i^e P(z) dz over straight segments (z0, z1, e, P)."""
    den, deg = _den_deg([p for *_, p in chain])
    return _general_mode_sum(f, _boundary_terms(chain, den, deg), den, deg)


def _rationals(den: int, deg: int, terms) -> dict:
    """Boundary terms as exact rationals: height -> {(0 real or 1 imaginary, power): value}."""
    return {
        y: {divmod(n, deg + 1): Fraction(c, den) for n, c in enumerate(parts) if c}
        for y, parts in terms
    }


def _at_i(k: int, j: int) -> dict:
    """``periods._axis_boundary`` in the form of ``_rationals``: its terms at
    height 1, or nothing where they cancel."""
    den, deg, parts = periods._axis_boundary(k, j)
    return _rationals(den, deg, [(1, parts)] if any(parts) else [])


@pytest.mark.parametrize("weight", [4, 6, 8, 10, 12, 14, 16])
def test_axis_integral_matches_quadrature(weight):
    form = HolomorphicFormSpec.eisenstein(weight)
    for s in range(2, 2 * form.k + 1):
        for T in (1.5, 3.0, 10.0):
            want = _quadrature_axis_integral(form, s, T)
            # int_1^T f(iy) y^(s-1) dy = (-i)^s int_i^iT f(z) z^(s-1) dz, (-i)^s = i^(3s);
            # turned by i, the exact a_0 term is imaginary, and at T = 3/2 it is
            # read on the grid y = N/D with D = 2
            for turn, unit in ((0, 1), (1, 1j)):
                axis = ((0, Fraction(1)), (0, Fraction(T)), 3 * s + turn, (0,) * (s - 1) + (1,))
                got = _cycle_integral(form, [axis])
                assert abs(got - unit * want) <= 1e-12 * abs(want), (weight, s, T, turn, got, want)


def _oracle_chain(k: int, j: int, t1: Fraction, t2: Fraction, include_caps: bool) -> list:
    """The cycle at one (T1, T2) as segments (z0, z1, e, P): the two axis
    pieces, then, with ``include_caps``, the two caps."""
    unit, r = periods._c_exact(k, j)
    chain = [
        ((0, Fraction(1)), (0, t), unit + e + 3 * s, (Fraction(0),) * (s - 1) + (r,))
        for s, t, e in ((k - j + 1, t1, 0), (k + j + 1, t2, 2 * k + 2))
    ]
    if include_caps:
        p_zero = tuple((-1) ** (k - j) * c for c in _cap_polynomial(k, -j))
        chain += [
            ((0, t1), (1, t1), 2, _cap_polynomial(k, j)),
            ((0, t2), (1, t2), 0, p_zero),
        ]
    return chain


def pairwise_period(
    f: HolomorphicFormSpec, k: int, j: int, T1: float, T2: float, include_caps: bool = True
) -> float:
    """Test oracle for the period at one (T1, T2): the whole chain, caps
    included, through ``_cycle_integral``, built at those heights.  Without
    the caps it is the uncapped control, real only for k - j odd."""
    total = _cycle_integral(f, _oracle_chain(k, j, Fraction(T1), Fraction(T2), include_caps))
    assert abs(total.imag) <= 1e-7 * (1.0 + abs(total.real)), total
    return total.real


@pytest.mark.parametrize("weight", [4, 8, 12, 16, 30, 46])
def test_grid_route_equals_pairwise_route_bit_for_bit(weight):
    # the one capped value is the oracle's at every (T1, T2) of the grids, to
    # the last bit: the truncation heights leave no trace, 1e10 at weight 46
    # included
    form = HolomorphicFormSpec.eisenstein(weight)
    k = form.k
    compared = 0
    for j in range(-(k - 1), k):
        value = spectacle_period(form, j).hex()
        for heights in ((1.5, 3.0), (2.0, 2.0), (2.3, 7.1, 1e10), (3.0,)):
            for t1, t2 in itertools.product(heights, repeat=2):
                assert pairwise_period(form, k, j, t1, t2).hex() == value, (weight, j, t1, t2)
                compared += 1
    assert compared


def test_mode_sum_stops_at_the_first_quiet_mode_from_n_3():
    # a form with a_n = 0 for every n >= 1: each mode is quiet, and the tail
    # rule reads a_1, a_2 and a_3 before it stops, never a_4
    read = []

    def a(n: int) -> tuple:
        read.append(n)
        return (1 if n == 0 else 0), 1

    total = periods._mode_sum(HolomorphicFormSpec(4, a), *periods._axis_boundary(1, 0))
    assert total != 0 and max(read) == 3


def test_mode_sum_gives_up_after_max_modes(monkeypatch):
    # a tail that never falls below the tolerance reads a_1 .. a_{_MAX_MODES}
    # and raises, never reading one more
    read = []

    def a(n: int) -> tuple:
        read.append(n)
        return 1, 1

    monkeypatch.setattr(periods, "_TAIL_TOL", -1.0)
    monkeypatch.setattr(periods, "_MAX_MODES", 7)
    with pytest.raises(RuntimeError, match="did not converge"):
        spectacle_period(HolomorphicFormSpec(4, a), 0)
    assert max(read) == 7


def test_completed_l_gives_up_after_2000_terms(monkeypatch):
    # with Q(s, x) pinned to 1 the s = 1 tail is 1/(2 pi n), never below
    # 1e-18: the sum reads a_1 .. a_2000 and raises, never reading a_2001
    read = []

    def a(n: int) -> tuple:
        read.append(n)
        return 1, 1

    monkeypatch.setattr(periods, "_gamma_q", lambda s, x: 1.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        completed_L(HolomorphicFormSpec(4, a), 1)
    assert max(read) == 2000


def test_one_axis_boundary_and_one_mode_sum_per_call(monkeypatch, capsys):
    calls = {"_axis_boundary": 0, "_mode_sum": 0}
    for name in calls:

        def counted(*args, _name=name, _run=getattr(periods, name)):
            calls[_name] += 1
            return _run(*args)

        monkeypatch.setattr(periods, name, counted)
    for n, heights in enumerate(("1.5,3,10", "2,2", "1e300,3", "1.5,3,10"), 1):
        assert cli.main(["lvalue", "--weight", "16", "--j=3", "--T", heights]) == 0
        assert "value" in capsys.readouterr().out
        # nothing is cached: each call builds its boundary and sums it once,
        # whatever the heights
        assert calls == {"_axis_boundary": n, "_mode_sum": n}
    for n in (1, 2):
        spectacle_period(HolomorphicFormSpec.eisenstein(4), 0)
        assert calls == {"_axis_boundary": 4 + n, "_mode_sum": 4 + n}


def _fraction_boundary(k, j):
    """``periods._axis_boundary`` with each half's term formed in Fractions,
    int(r den / s), as the reference for its integer form."""
    unit, r = periods._c_exact(k, j)
    deg = k + abs(j) + 1
    den = r.denominator * math.lcm(k - j + 1, k + j + 1)
    parts = [0] * (2 * deg + 2)
    for s, e in ((k - j + 1, 0), (k + j + 1, 2 * k + 2)):
        u = e + unit + 3 * s + 2
        parts[u % 2 * (deg + 1) + s] += (1, 1, -1, -1)[u % 4] * int(r * den / s)
    return den, deg, tuple(parts)


def test_axis_boundary_terms_equal_their_fraction_form():
    for k in range(1, 23):
        for j in range(-(k - 1), k):
            assert periods._axis_boundary(k, j) == _fraction_boundary(k, j), (k, j)


def test_caps_close_the_cycle_exactly():
    # the oracle's whole capped chain leaves exactly the axis halves' terms
    # at i: each cap cancels its half's top as an exact polynomial, the
    # T-independence of the capped period with no float in between
    tops = (Fraction(2), Fraction(3))
    for weight in range(4, periods.MAX_PERIOD_WEIGHT + 1, 2):
        k = weight // 2 - 1
        for j in range(-(k - 1), k):
            capped = _oracle_chain(k, j, *tops, include_caps=True)
            den, deg = _den_deg([p for *_, p in capped])
            want = _at_i(k, j)
            assert _rationals(den, deg, _boundary_terms(capped, den, deg)) == want, (weight, j)
            assert all(y == 1 for y in want), (weight, j)
            # without the caps each half keeps its own top
            bare = _oracle_chain(k, j, *tops, include_caps=False)
            den, deg = _den_deg([p for *_, p in bare])
            heights = dict(_boundary_terms(bare, den, deg))
            assert all(T in heights for T in tops), (weight, j)


def test_zero_cusp_cap_is_the_s_symmetric_cap_at_infinity():
    # the oracle chain's zero-cusp polynomial (-1)^(k-j) _cap_polynomial(k, -j)
    # is the cap that cap_solve gives for the jump v_{2j} moved into the zero
    # cusp's normal form by sigma_0^(-1)
    sig = sigma_matrix(IsotropicLine.from_cusp(0, 1))
    inv = (sig[3], -sig[1], -sig[2], sig[0])
    for k in range(1, 13):
        for j in range(-(k - 1), k):
            jump = act(inv, weight_vector(k, j))
            solved = cap_solve(CapInput(k=k, width=1, position=0, jump=jump))
            shortcut = tuple((-1) ** (k - j) * c for c in _cap_polynomial(k, -j))
            assert shortcut == boundary_pairing_polynomial(solved), (k, j)


def test_closing_is_the_boundary_at_every_height():
    # the axis halves' terms at i are what the oracle's capped chain gives at
    # every (T1, T2); without the caps each half keeps its top, its term at i
    # negated and moved to its own height
    k, j = 5, 2
    want = _at_i(k, j)
    assert want
    for t1, t2 in ((Fraction(3, 2), Fraction(7)), (Fraction(7), Fraction(7)), (Fraction(10**10), 3)):
        capped = _oracle_chain(k, j, t1, t2, True)
        den, deg = _den_deg([p for *_, p in capped])
        assert _rationals(den, deg, _boundary_terms(capped, den, deg)) == want, (t1, t2)
        bare = _boundary_terms(_oracle_chain(k, j, t1, t2, False), den, deg)
        assert [y for y, _ in bare] == list(dict.fromkeys((t1, 1, t2))), (t1, t2)
        tops = {}
        for T, s in ((t1, k - j + 1), (t2, k + j + 1)):
            tops.setdefault(T, {}).update({key: -c for key, c in want[1].items() if key[1] == s})
        assert _rationals(den, deg, bare) == {1: want[1], **tops}, (t1, t2)


@dataclass
class _Coefficients:
    """A coefficient stream that, as a plain dataclass with ``__call__``, cannot be hashed."""

    form: HolomorphicFormSpec

    def __call__(self, n: int) -> tuple:
        return self.form.a(n)


def test_period_takes_an_unhashable_coefficient_callable():
    form = HolomorphicFormSpec.eisenstein(12)
    stream = HolomorphicFormSpec(12, _Coefficients(form))
    with pytest.raises(TypeError):
        hash(stream)
    assert spectacle_period(stream, 2) == spectacle_period(form, 2)


# the truncation heights of the benchmark's lvalue ops, and three far heights
_GRID_HEIGHTS = ((1.5, 3), (2, 2), (2, 3), (2, 4), (2.5, 3.5), (3, 3), (3, 4), (3, 5))
_FAR_HEIGHTS = ((100, 3), (1000, 3), (1e10, 3))


@pytest.mark.parametrize("weight", [4, 6, 8, 10, 12, 14, 16])
def test_spectacle_period_matches_closed_form_on_height_grid(weight, capsys):
    # the one value meets the closed form, and lvalue prints it at every
    # height pair of the grid
    form = HolomorphicFormSpec.eisenstein(weight)
    k = form.k
    pairs = {(a, b) for t1, t2 in _GRID_HEIGHTS + _FAR_HEIGHTS for a, b in ((t1, t2), (t2, t1))}
    misses = []
    for j in range(-(k - 1), k):
        want = c_constant(k, j).real * closed_form_lambda(weight, k + 1 - j)
        got = spectacle_period(form, j)
        if abs(got - want) > 1e-9 + 1e-6 * abs(want):
            misses.append((j, got, want))
        for t1, t2 in pairs:
            assert cli.main(["lvalue", "--weight", str(weight), f"--j={j}", "--T", f"{t1},{t2}"]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == f"{got:.12g}", (j, t1, t2)
    assert not misses


def test_max_period_weight_is_the_last_weight_every_j_meets(monkeypatch):
    # re-derive the limit with the guard lifted: every j passes at each weight
    # up to it and the next weight has a miss
    limit = periods.MAX_PERIOD_WEIGHT
    monkeypatch.setattr(periods, "MAX_PERIOD_WEIGHT", limit + 2)
    failing = []
    for weight in range(4, limit + 3, 2):
        form = HolomorphicFormSpec.eisenstein(weight)
        k = form.k
        for j in range(-(k - 1), k):
            want = c_constant(k, j).real * closed_form_lambda(weight, k + 1 - j)
            got = spectacle_period(form, j)
            if abs(got - want) > 1e-9 + 1e-6 * abs(want):
                failing.append(weight)
                break
    assert failing == [limit + 2]


# SHA-256 of the 484 capped values' float.hex strings, joined by newlines in
# the order weight 4, 6, ..., 46 and, within a weight, j = -(k-1), ..., k-1
_CAPPED_HEX_SHA256 = "5ba18b13076f18c03e82427850e14be88d702e51942f2a935a6d7698246ee967"


def test_capped_periods_are_frozen_to_the_bit():
    values = [
        spectacle_period(form, j).hex()
        for form in map(HolomorphicFormSpec.eisenstein, range(4, periods.MAX_PERIOD_WEIGHT + 1, 2))
        for j in range(-(form.k - 1), form.k)
    ]
    assert len(values) == 484
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == _CAPPED_HEX_SHA256


# SHA-256 of completed_L(E_w, s).hex() for w = 4, 6, ..., 46 and, within a
# weight, s = 1, ..., w - 1 (528 values), joined by newlines; frozen when a_n
# was still a Fraction converted by float()
_COMPLETED_L_HEX_SHA256 = "9ed43b0032ef35ff64c7610731bfbcfd3663aabd5b30ebc144d01cc0bc3cbac2"


def test_completed_l_values_are_frozen_to_the_bit():
    values = [
        completed_L(HolomorphicFormSpec.eisenstein(w), s).hex()
        for w in range(4, periods.MAX_PERIOD_WEIGHT + 1, 2)
        for s in range(1, w)
    ]
    assert len(values) == 528
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == _COMPLETED_L_HEX_SHA256


def _counted_sieves(monkeypatch) -> list:
    """Record the (k, n) of each ``divisor_sums`` call the float layer makes."""
    sieves = []
    sieve = exact_arith.divisor_sums
    monkeypatch.setattr(periods, "divisor_sums", lambda k, n: sieves.append((k, n)) or sieve(k, n))
    return sieves


def test_a_period_sieves_once_and_divides_never(monkeypatch):
    # up to weight 16 the mode sum stops before a_17, so E_w's first sieve
    # (to 16) serves every mode, and no sigma is found by trial division
    def boom(*args):
        raise AssertionError(f"divisor_power_sum{args}")

    for mod in (exact_arith, qseries, periods):
        if hasattr(mod, "divisor_power_sum"):
            monkeypatch.setattr(mod, "divisor_power_sum", boom)
    sieves = _counted_sieves(monkeypatch)
    for weight in range(4, 17, 2):
        k = weight // 2 - 1
        for j in range(-(k - 1), k):
            sieves.clear()
            spectacle_period(HolomorphicFormSpec.eisenstein(weight), j)
            assert sieves == [(weight - 1, 16)], (weight, j)


def test_eisenstein_stream_resieves_to_twice_the_index(monkeypatch):
    sieves = _counted_sieves(monkeypatch)
    form = HolomorphicFormSpec.eisenstein(12)
    assert form.a(0) == (1, 1) and sieves == []
    coefficients = [form.a(n) for n in range(1, 41)]
    assert sieves == [(11, 16), (11, 34), (11, 70)]
    assert all(type(num) is int and type(den) is int and den > 0 for num, den in coefficients)
    # each form keeps its own sieve: a new E_12 sieves again, from its first index
    assert HolomorphicFormSpec.eisenstein(12).a(40) == coefficients[-1]
    assert sieves[3:] == [(11, 80)]


def test_spectacle_period_values():
    e4 = HolomorphicFormSpec.eisenstein(4)
    e8 = HolomorphicFormSpec.eisenstein(8)
    assert abs(spectacle_period(e4, 0) + 5 / 3) < 1e-8
    assert abs(spectacle_period(e8, 0) + 2 / 15) < 1e-8
    # against the exact oracle through c_{k,j} Lambda
    want = float(c_constant(3, 2).real * exact_lambda(8, 2))
    assert abs(spectacle_period(e8, 2) - want) < 1e-8


def test_spectacle_period_negative_index():
    # j and -j land on reflected critical points; for these forms the values agree
    e8 = HolomorphicFormSpec.eisenstein(8)
    assert abs(spectacle_period(e8, 2) + 4 / 21) < 1e-8
    assert abs(spectacle_period(e8, -2) + 4 / 21) < 1e-8


def test_spectacle_period_t_independence():
    # the oracle, cut at each height pair, meets the one value
    e4 = HolomorphicFormSpec.eisenstein(4)
    value = spectacle_period(e4, 0)
    for t1, t2 in itertools.product((3, 5, 10), repeat=2):
        assert abs(pairwise_period(e4, 1, 0, t1, t2) - value) < 1e-8, (t1, t2)


def test_dropping_caps_breaks_t_independence():
    # the oracle's uncapped chain keeps each half's top, so it moves with T
    e4 = HolomorphicFormSpec.eisenstein(4)
    a, b = (pairwise_period(e4, 1, 0, T, T, include_caps=False) for T in (3.0, 10.0))
    assert abs(a - b) > 1e-2


def test_spectacle_period_validation():
    e4 = HolomorphicFormSpec.eisenstein(4)
    with pytest.raises(ValueError):
        spectacle_period(e4, 1)  # j = k rejected
    for weight in (periods.MAX_PERIOD_WEIGHT + 2, 60):  # above the accurate range
        with pytest.raises(ValueError, match="exceeds"):
            spectacle_period(HolomorphicFormSpec.eisenstein(weight), 1)


def test_geodesic_intersection_example():
    z, sign = geodesic_intersection_numeric(VecV(1, 0, 1), W0_VEC)
    assert abs(z - 1j) < 1e-12
    assert sign == 1
    _, swapped = geodesic_intersection_numeric(W0_VEC, VecV(1, 0, 1))
    assert swapped == -1


def test_geodesic_intersection_rejects_bad_planes():
    with pytest.raises(GeometryError):
        geodesic_intersection_numeric(VecV(0, 0, 1), W0_VEC)
    with pytest.raises(GeometryError):
        geodesic_intersection_numeric(W0_VEC, W0_VEC)


def test_intersection_sign_oracle_500():
    rng = random.Random(424242)
    checked = 0
    while checked < 500:
        x = VecV(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        y = VecV(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if qform(x) <= 0 or qform(y) <= 0:
            continue
        if 4 * qform(x) * qform(y) - inner(x, y) ** 2 <= 0:
            continue
        point, sign = geodesic_intersection_numeric(x, y)
        assert point.imag > 0
        assert sign == epsilon_sign(x, y)
        # the crossing lies on both geodesics
        for v in (x, y):
            val = float(v.a) * abs(point) ** 2 - 2 * float(v.b) * point.real - float(v.c)
            assert abs(val) < 1e-8
        checked += 1


def test_form_spec_validation():
    with pytest.raises(ValueError):
        HolomorphicFormSpec.eisenstein(5)
    with pytest.raises(ValueError):
        HolomorphicFormSpec.eisenstein(2)


def test_eisenstein_coefficients_match_the_exact_series():
    for weight in range(4, 47, 2):
        form = HolomorphicFormSpec.eisenstein(weight)
        series = eisenstein_level1(weight, 60)
        assert all(Fraction(*form.a(n)) == series.coefficient(n) for n in range(61)), weight


def test_eisenstein_form_reads_b_weight_at_its_first_a_n(monkeypatch):
    # building E_w and reading a_0 compute nothing; B_w is first read with
    # a_1, before the sigma sieve, and a weight past the bound is refused there
    def boom(*args):
        raise LookupError(args)

    def unreached(*args):
        raise AssertionError(f"sieved before B_w was read: {args}")

    monkeypatch.setattr(periods, "divisor_sums", unreached)
    with pytest.raises(ValueError, match="^Bernoulli index 100000 exceeds 2048, the largest computed$"):
        HolomorphicFormSpec.eisenstein(100000).a(1)
    for mod in (exact_arith, qseries, periods):
        if hasattr(mod, "bernoulli_number"):
            monkeypatch.setattr(mod, "bernoulli_number", boom)
    form = HolomorphicFormSpec.eisenstein(100000)
    assert form.a(0) == (1, 1)
    with pytest.raises(LookupError):
        form.a(1)


def test_geodesic_intersection_rejects_coordinates_outside_float_range():
    # the exact sign exists; the float oracle must refuse rather than crash
    # (overflow) or answer for a different vector (a nonzero a read as 0.0)
    for x in (VecV(10**400, 0, 1), VecV(Fraction(1, 10**400), 0, 1)):
        assert epsilon_sign(x, W0_VEC) == 1
        with pytest.raises(GeometryError, match="float range"):
            geodesic_intersection_numeric(x, W0_VEC)
