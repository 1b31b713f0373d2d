import hashlib
from fractions import Fraction

import pytest

from spectacle.cli import main as cli_main

from spectacle.exact_arith import bernoulli_number
from spectacle.qseries import QExpansion, cohen_eisenstein
from spectacle.quad_space import VecV, W0_VEC, epsilon_sign, epsilon_sign_int
from spectacle.shintani_lift import (
    LiftConfig,
    LiftError,
    LiftReport,
    arbitrate_signs,
    lift_geometric_side,
    lift_theta_side,
    main_theorem_check,
    plus_space_check,
)
from spectacle.theta11 import SplitLatticeU, global_sign, theta11_series


def test_sign_convention_record():
    conv = arbitrate_signs()
    assert conv.sigma_glob in (-1, 1)
    assert conv.interior_relative in (-1, 1)
    assert conv.boundary_incidence in (-1, 1)
    d = conv.to_json_dict()
    assert d["effective_interior"] == conv.sigma_glob * conv.interior_relative


def test_theta_side_frozen_values_k1():
    # q^0: Bernoulli block; q^1: interior -2, block +1/6, cusp-zero cap -4;
    # q^4: interior -30, block +1/6, cap -16.
    ts = lift_theta_side(LiftConfig(k=1, h=Fraction(0), n_max=6))
    assert ts.coefficient(0) == Fraction(1, 12)
    assert ts.coefficient(1) == Fraction(-35, 6)
    assert ts.coefficient(4) == Fraction(-275, 6)
    assert ts.nonholo == {}


def test_theta_side_frozen_values_k3():
    ts = lift_theta_side(LiftConfig(k=3, h=Fraction(0), n_max=4))
    assert ts.coefficient(0) == Fraction(-1, 120)
    assert ts.coefficient(1) == Fraction(-121, 60)
    assert ts.nonholo is None


def test_theta_side_half_coset_values():
    ts = lift_theta_side(LiftConfig(k=1, h=Fraction(1, 2), n_max=12))
    assert ts.exp_den == 4
    assert ts.coefficient(0) == 0
    assert ts.coefficient(Fraction(1, 4)) == Fraction(-5, 6)
    assert ts.coefficient(Fraction(9, 4)) == Fraction(-125, 6)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("h", [Fraction(0), Fraction(1, 2)])
def test_theta_side_is_witt_product(k, h):
    # theta side = (split series before its global sign) x theta_W, with
    # theta_W counted directly over the w0-progression Z + h
    cfg = LiftConfig(k=k, h=h, n_max=41)
    theta_w = {}
    for t in range(-10, 11):
        num = (t + h) ** 2 * cfg.exp_den
        if num <= cfg.n_max:
            theta_w[int(num)] = theta_w.get(int(num), 0) + 1
    split = global_sign() * theta11_series(SplitLatticeU.unimodular(), k, 0, 1, 42)
    want = split * QExpansion(cfg.exp_den, cfg.n_max, theta_w)
    assert want.n_max == cfg.n_max
    assert lift_theta_side(cfg) == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_coset_support_grid(k):
    # the half-shifted coset is supported on exponents in 1/4 + Z only
    ts = lift_theta_side(LiftConfig(k=k, h=Fraction(1, 2), n_max=60))
    for num, c in ts.coeffs.items():
        if c:
            assert num % 4 == 1, num
    ts0 = lift_theta_side(LiftConfig(k=k, h=Fraction(0), n_max=15))
    assert ts0.exp_den == 1


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("h", [Fraction(0), Fraction(1, 2)])
def test_main_theorem_equality(k, h):
    rep = main_theorem_check(LiftConfig(k=k, h=h, n_max=60))
    assert rep.equal, rep.first_mismatch
    assert rep.theta_side.exp_den == (1 if h == 0 else 4)
    assert rep.to_json_dict()["equal_to"] == 60


def test_report_of_unequal_sides_names_the_first_mismatch():
    cfg = LiftConfig(k=3, h=Fraction(1, 2), n_max=20)
    ts = lift_theta_side(cfg)
    gs = ts + QExpansion(4, 20, {min(ts.coeffs): Fraction(5, 7)})
    rep = LiftReport(cfg, ts, gs, arbitrate_signs(), ts.first_mismatch(gs))
    exponent, theta, geometric, part = (str(v) for v in rep.first_mismatch)
    assert len({exponent, theta, geometric}) == 3  # so each key names its own entry
    d = rep.to_json_dict()
    assert not rep.equal and d["equal_to"] is None and d["n_max"] == 20
    assert d["first_mismatch"] == {
        "exponent": exponent, "theta": theta, "geometric": geometric, "part": part
    }


def test_interior_epsilon_routes_agree_vectorwise():
    # sgn(m1) shortcut vs cross-product sign, vector by vector, over the
    # interior vectors m1 u + m2 u' + m w0 (m1 m2 < 0, m in Z + 1/2 for odd
    # t = 2m, m in Z for even t, t = 0 included) of a small window, so both
    # cosets; the integer kernel on doubled coordinates agrees too
    seen = 0
    for m1 in range(-8, 9):
        for m2 in range(-8, 9):
            if m1 * m2 >= 0:
                continue
            for t in range(-7, 8):
                x = VecV(-m2, Fraction(t, 2), m1)
                want = 1 if m1 > 0 else -1
                assert epsilon_sign(x, W0_VEC) == want
                assert epsilon_sign_int((-2 * m2, t, 2 * m1), (0, 1, 0)) == want
                seen += 1
    assert seen > 50


def per_vector_interior(cfg):
    # the geometric interior with the orientation taken on every lattice
    # vector, both signs of t: the oracle for _interior_geometric, which
    # takes it once per (m1, m2) row
    from spectacle.shintani_lift import _W0_INT

    d, k, n_max = cfg.exp_den, cfg.k, cfg.n_max
    t_first = int(2 * cfg.h)
    out = {}
    for m1 in range(1, n_max // d + 1):
        w_pos, w_neg = (-m1) ** k, m1**k  # (x_U, u')^k at (m1, m2) and (-m1, -m2)
        for m2 in range(-(n_max // (d * m1)), 0):
            a, c = -2 * m2, 2 * m1
            base = -m1 * m2 * d
            t = t_first
            num = base + t * t * d // 4
            while num <= n_max:
                for tt in (t, -t) if t else (t,):
                    out[num] = (
                        out.get(num, 0)
                        + epsilon_sign_int((a, tt, c), _W0_INT) * w_pos
                        + epsilon_sign_int((-a, tt, -c), _W0_INT) * w_neg
                    )
                t += 2
                num = base + t * t * d // 4
    return out


@pytest.mark.parametrize("n_max", [60, 960])
@pytest.mark.parametrize("h", [Fraction(0), Fraction(1, 2)])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_interior_row_sign_equals_per_vector_sign(k, h, n_max):
    from spectacle.shintani_lift import _interior_geometric

    cfg = LiftConfig(k=k, h=h, n_max=n_max)
    assert _interior_geometric(cfg) == per_vector_interior(cfg)


def test_interior_takes_two_orientation_calls_per_row(monkeypatch):
    # one call for (a, t_first, c) and one for (-a, t_first, -c) per (m1, m2)
    # row with -m1 m2 d <= n_max; a return to per-vector calls would count
    # every t of the walk as well
    from spectacle import shintani_lift

    cfg = LiftConfig(k=3, h=Fraction(1, 2), n_max=960)
    d = cfg.exp_den
    rows = sum(cfg.n_max // (d * m1) for m1 in range(1, cfg.n_max // d + 1))
    calls = []

    def counted(x, y):
        calls.append(x)
        return epsilon_sign_int(x, y)

    monkeypatch.setattr(shintani_lift, "epsilon_sign_int", counted)
    shintani_lift._interior_geometric(cfg)
    assert len(calls) == 2 * rows


def test_flipped_orientation_breaks_the_identity(monkeypatch):
    # the kernel's sign reaches the geometric table: with the conventions
    # pinned on the true kernel, a kernel returning the opposite sign negates
    # the interior and the two sides disagree
    from spectacle import shintani_lift

    cfg = LiftConfig(k=3, h=Fraction(1, 2), n_max=60)
    arbitrate_signs()
    assert main_theorem_check(cfg).equal
    true_interior = shintani_lift._interior_geometric(cfg)
    monkeypatch.setattr(shintani_lift, "epsilon_sign_int", lambda x, y: -epsilon_sign_int(x, y))
    assert shintani_lift._interior_geometric(cfg) == {n: -v for n, v in true_interior.items()}
    assert not main_theorem_check(cfg).equal


@pytest.mark.parametrize("k,h", [(1, Fraction(0)), (2, Fraction(1, 2)), (3, Fraction(0))])
def test_interior_against_generic_enumeration(k, h):
    # brute force through the generic coset enumerator: same index set,
    # epsilon from the cross product, (x_U, u')^k = (-c)^k
    from coset_oracle import CosetConstraint, enumerate_coset
    from spectacle.shintani_lift import _interior_geometric

    cfg = LiftConfig(k=k, h=h, n_max=20)
    table = _interior_geometric(cfg)
    for num in range(1, 21):
        e = Fraction(num, cfg.exp_den)
        want = Fraction(0)
        for x in enumerate_coset(cfg.h, CosetConstraint(q_value=e, u_positive=True)):
            want += epsilon_sign(x, W0_VEC) * (-x.c) ** k
        assert table.get(num, Fraction(0)) == want, (k, h, e)


def test_interior_k1_n1_counts():
    # two coset solutions at the first exponent, each weighted by its sign
    from coset_oracle import CosetConstraint, enumerate_coset

    vecs = list(enumerate_coset(Fraction(0), CosetConstraint(q_value=Fraction(1), u_positive=True)))
    assert len(vecs) == 2
    total = sum(epsilon_sign(x, W0_VEC) * -x.c for x in vecs)
    assert total == -2


def test_nonholo_cancellation_tables():
    # k = 1: the split-plane factor times theta_W carries -theta_W/4 in its
    # 1/(pi v) part and the zero-cusp cap term +theta_W/4; on both cosets the
    # two tables are non-empty and cancel per exponent
    from spectacle.shintani_lift import _cap_term, _split_series, _theta_w

    for h in (Fraction(0), Fraction(1, 2)):
        cfg = LiftConfig(k=1, h=h, n_max=25)
        theta_w = _theta_w(cfg)
        p1 = (_split_series(cfg) * theta_w).nonholo
        p2 = _cap_term(cfg, theta_w).nonholo
        assert p1 and p2
        for num in set(p1) | set(p2):
            assert p1.get(num, Fraction(0)) + p2.get(num, Fraction(0)) == 0


def test_geometric_constant_from_line_data():
    gs = lift_geometric_side(LiftConfig(k=1, h=Fraction(0), n_max=4))
    assert gs.coefficient(0) == Fraction(1, 12)
    gsh = lift_geometric_side(LiftConfig(k=1, h=Fraction(1, 2), n_max=4))
    assert gsh.coefficient(0) == 0


def test_even_k_vanishing():
    for h in (Fraction(0), Fraction(1, 2)):
        rep = main_theorem_check(LiftConfig(k=2, h=h, n_max=40))
        assert rep.equal
        assert all(c == 0 for c in rep.theta_side.coeffs.values())


@pytest.mark.parametrize("k,want_abs", [(1, 10), (3, 2)])
def test_plus_space_proportionality(k, want_abs):
    res = plus_space_check(k, 120)
    assert res.passed, res.first_break
    assert abs(res.lam) == want_abs
    # combined support satisfies the plus condition
    for num in res.combined.coeffs:
        assert num % 4 in (0, 1)
    # spot check: lambda times the Eisenstein coefficients
    target = cohen_eisenstein(k + 1, 120)
    for num in (0, 1, 4, 5, 8, 9, 12, 13, 16):
        assert res.combined.coefficient(num) == res.lam * target.coefficient(num)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("N", [1, 5, 101, 403])
def test_plus_space_reports_are_the_direct_builds(k, N):
    # the bound need not be a multiple of 4: the verdict is the one at
    # N - N % 4, and the reports are the two cosets built at their own bounds
    res = plus_space_check(k, N)
    low = plus_space_check(k, N - N % 4)
    assert (res.lam, res.passed, res.first_break) == (low.lam, low.passed, low.first_break)
    assert res.combined == low.combined
    assert res.passed
    tag = (res.lam, f"Cohen r = {k + 1}")
    for rep, h, n_max in zip(res.reports, (Fraction(0), Fraction(1, 2)), (N // 4, N)):
        direct = main_theorem_check(LiftConfig(k=k, h=h, n_max=n_max))
        assert rep == direct._replace(proportionality=tag)


def test_plus_space_rejects_even_k():
    with pytest.raises(ValueError):
        plus_space_check(2, 40)


def _delta_coefficients(n_max):
    # q prod (1 - q^n)^24, exact integer convolution
    poly = [1]
    for n in range(1, n_max + 1):
        for _ in range(24):
            new = list(poly) + [0] * n
            for idx, c in enumerate(poly):
                new[idx + n] -= c
            poly = new[: n_max + 1]
    return {m + 1: poly[m] for m in range(n_max)}  # tau(1), tau(2), ...


def _cusp_eigenform_coefficients(k, n_max):
    # the normalized cusp form of weight 2k + 2 in a one-dimensional space:
    # Delta for k = 5, Delta * E_w with w = 2k - 10 for k = 7, 9, by exact
    # convolution of q-series coefficients (index 1..n_max)
    delta = _delta_coefficients(n_max)
    if k == 5:
        return delta
    r, scale = {7: (3, 240), 9: (7, 480)}[k]  # E_{r+1} = 1 + scale sum sigma_r(n) q^n
    eis = [1] + [
        scale * sum(d**r for d in range(1, n + 1) if n % d == 0) for n in range(1, n_max)
    ]
    return {
        n: sum(delta[m] * eis[n - m] for m in range(1, n + 1)) for n in range(1, n_max + 1)
    }


@pytest.mark.parametrize(
    "k,lam,c1,first_break",
    [
        (5, Fraction(130, 691), Fraction(6, 691), (1, Fraction(1, 126), Fraction(-65, 87066))),
        (7, Fraction(-34, 3617), Fraction(-30, 3617), (1, Fraction(-1, 120), Fraction(-17, 434040))),
        (9, Fraction(50, 174611), Fraction(2646, 174611), (1, Fraction(1, 66), Fraction(-25, 11524326))),
    ],
    ids=["5", "7", "9"],
)
def test_weight_thirteen_halves_cusp_component(k, lam, c1, first_break):
    # At k = 5, 7, 9 the plus space of weight k + 3/2 is two-dimensional, so
    # the combined lift is no longer a multiple of H(k + 1, .): the leftover
    # must be a cusp form, and its normalized coefficients must
    # Shimura-correspond to the cusp form of weight 2k + 2 (Delta, Delta E_4,
    # Delta E_8, with the Eisenstein congruence primes 691, 3617, 174611 in
    # the denominators).
    n_top = 100
    res = plus_space_check(k, n_top)
    assert not res.passed
    assert res.lam == lam
    # the break: N, the combined coefficient, lambda times H(k + 1, N)
    assert res.first_break == first_break
    target = cohen_eisenstein(k + 1, n_top)
    diff = {
        N: res.combined.coefficient(N) - res.lam * target.coefficient(N)
        for N in range(n_top + 1)
    }
    assert diff[0] == 0
    for N, v in diff.items():
        if N % 4 in (2, 3):
            assert v == 0
    assert diff[1] == c1
    c = {N: v / c1 for N, v in diff.items()}
    a_f = _cusp_eigenform_coefficients(k, 10)
    if k == 5:
        assert [a_f[n] for n in (1, 2, 3, 4)] == [1, -24, 252, -1472]
    # Shimura relations at square indices: sum_{d | n} d^k c(n^2/d^2) = a_f(n)
    for n in range(1, 11):
        lhs = sum(d**k * c[(n // d) ** 2] for d in range(1, n + 1) if n % d == 0)
        assert lhs == a_f[n], (k, n)


def _arbitrate_with_interior(monkeypatch, edit):
    # re-run the arbitration with the probe's geometric interior edited
    from spectacle import shintani_lift

    original = shintani_lift._interior_geometric
    arbitrate_signs.cache_clear()
    monkeypatch.setattr(shintani_lift, "_interior_geometric", lambda cfg: edit(original(cfg)))
    try:
        return arbitrate_signs()
    finally:
        # no convention pinned on the edited interior outlives the test
        arbitrate_signs.cache_clear()


def test_arbitration_refuses_interior_beyond_a_sign(monkeypatch):
    with pytest.raises(LiftError, match="differ by more than a sign"):
        _arbitrate_with_interior(monkeypatch, lambda t: {n: 2 * v for n, v in t.items()})


def test_arbitration_refuses_interior_mismatch_after_pinning(monkeypatch):
    def flip_last(t):
        last = max(n for n, v in t.items() if v)
        assert last > min(n for n, v in t.items() if v)  # the pinned exponent stays
        return {n: -v if n == last else v for n, v in t.items()}

    with pytest.raises(LiftError, match="do not match after arbitration"):
        _arbitrate_with_interior(monkeypatch, flip_last)


def test_lift_constant_absolute_value():
    for k in (1, 3):
        ts = lift_theta_side(LiftConfig(k=k, h=Fraction(0), n_max=2))
        assert abs(ts.coefficient(0)) == abs(bernoulli_number(k + 1) / (k + 1))


def test_truncation_stability():
    small = lift_theta_side(LiftConfig(k=3, h=Fraction(1, 2), n_max=20))
    large = lift_theta_side(LiftConfig(k=3, h=Fraction(1, 2), n_max=80))
    assert small.first_mismatch(large) is None


def test_config_validation():
    with pytest.raises(ValueError):
        LiftConfig(k=0, h=Fraction(0), n_max=5)
    with pytest.raises(ValueError):
        LiftConfig(k=1, h=Fraction(1, 3), n_max=5)


# SHA-256 of the ``--format json`` bytes, frozen before the theta side was
# rebuilt as a Witt product; any change to a coefficient, the sign record or
# the serialization shows up here.
GOLDEN_DIGESTS = {
    ("lift", "--k", "1", "--h", "0", "--nmax", "40"): "f0ae460fe7032f519f9c7357810472f9c473470ecd980e6e084ad98516c22b44",
    ("lift", "--k", "1", "--h", "half", "--nmax", "160"): "0d1375811b0913daacfe8b4ba80850fe1bac509404b3332937a45be2687f458e",
    ("lift", "--k", "2", "--h", "0", "--nmax", "40"): "61b27cc3e4e69c8e30de9ddd28ab66fb770817cea3434029e760f3ddedb46bc6",
    ("lift", "--k", "2", "--h", "half", "--nmax", "160"): "53abbc813b55d2d84ee88eafb2edfbbe124402b0d327961a984c1d61543b192a",
    ("lift", "--k", "3", "--h", "0", "--nmax", "40"): "ff9c495cf7331116ff7c8989c3c968d1f61d8ed1e0c54339582ad60248441ce4",
    ("lift", "--k", "3", "--h", "half", "--nmax", "160"): "ca69b5f1a1bfbcd6371b387994e5978c91578d8424b97fb214fa53d1786bd0f5",
    ("lift", "--k", "5", "--h", "0", "--nmax", "40"): "e4854c6bc6356bfeb788ac16f5878e23a39516bac56a6c1b99bb2625262a3112",
    ("lift", "--k", "5", "--h", "half", "--nmax", "160"): "efdeb33bc142b51866599ad76cf55bcab76980864124e3fb5d06d75aa7dcefc7",
    ("theta11", "--k", "3", "--nmax", "60", "--m1", "2", "--h1", "1", "--m2", "3", "--h2", "0"): "6d95804df8c8dce8475a4b7c4826404fb4f274a8a9fb76c00c456a39b2e0bb5e",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS), ids=" ".join)
def test_golden_json_digest(argv, tmp_path):
    out = tmp_path / "out.json"
    assert cli_main(list(argv) + ["--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[argv]


# SHA-256 of the Cohen H(r, N) tables, frozen before the generalized Bernoulli
# and Kronecker kernels were rewritten (power sums, reciprocity).
COHEN_GOLDEN_DIGESTS = {
    ("cohen", "--r", "1", "--nmax", "400", "--format", "json"): "20c4aadc9eefb384dc8b3d762a596e43879024fbd41859018dd91a857ef00364",
    ("cohen", "--r", "2", "--nmax", "400", "--format", "json"): "cccce93a1595c786b8b95ff6f0811f4a8629e2f86e514968e89bc6b2f209f05a",
    ("cohen", "--r", "3", "--nmax", "400", "--format", "json"): "16a1be4d3026b0a2cc3f6114991b60ceb02ebc65809dcffa4df6987e24f06cdf",
    ("cohen", "--r", "4", "--nmax", "400", "--format", "json"): "6466183266a6cbd4b3f4b151437a290ba9b3e6dbb9823c5dd96138e5b26863ea",
    ("cohen", "--r", "5", "--nmax", "400", "--format", "json"): "de848a72922c06d220b5ed3f9f835c342c2845d341db74497700f546b639bf1f",
    ("cohen", "--r", "2", "--nmax", "400", "--format", "table"): "965c8716db8d485a62b5ce1eb49e9d019878df0ff449770c7469d73a15da2a32",
}


@pytest.mark.parametrize("argv", sorted(COHEN_GOLDEN_DIGESTS), ids=" ".join)
def test_cohen_golden_digest(argv, tmp_path):
    out = tmp_path / "out"
    assert cli_main(list(argv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COHEN_GOLDEN_DIGESTS[argv]
