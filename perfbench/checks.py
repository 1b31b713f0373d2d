"""Second routes for every operation's output, run outside the timed region.

Each exact check takes the op's argv, its parsed JSON payload and its exit
code, and returns an error string, or None when the output is right.  Exact outputs must equal a value
reached by another route; periods must lie within ``period_tolerance`` of
c_{k,j} Lambda(f, k + 1 - j).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Tuple

from spectacle.caps import CapInput, cap_closed_form, cap_solve, gamma0_width
from spectacle import periods
from spectacle.exact_arith import bernoulli_number, fundamental_discriminant_split
from spectacle.qseries import QExpansion, eisenstein_level1
from spectacle.quad_space import IsotropicLine, VecV, conjugate_vec, sigma_matrix
from spectacle.sym_rep import act, act_n, embed_power, weight_vector

# E_W spans the one-dimensional level-one space M_W, so E_W = E_a E_b.
EISENSTEIN_PRODUCTS = {8: (4, 4), 10: (4, 6), 14: (4, 10)}


def period_tolerance(ref: float) -> float:
    return 1e-9 + 1e-6 * abs(ref)


def arg_value(argv: List[str], name: str) -> str:
    """Value of option ``name`` in argv, given as ``name value`` or ``name=value``."""
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok.split("=", 1)[1]
    raise KeyError(name)


def _bernoulli(n: int) -> Fraction:
    """B_n by the Akiyama-Tanigawa algorithm (B_1 = +1/2, unused here)."""
    a = [Fraction(1, m + 1) for m in range(n + 1)]
    for m in range(n + 1):
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def _sigma1(n: int) -> int:
    return sum(d + (n // d if d * d != n else 0) for d in range(1, isqrt(n) + 1) if n % d == 0)


def check_lift(argv: List[str], payload: dict, rc: int) -> Optional[str]:
    if rc != 0:
        return f"lift --check exited {rc}"
    if payload["equal_to"] != int(arg_value(argv, "--nmax")):
        return "sides not equal up to the truncation"
    return None


def check_theta11(argv: List[str], payload: dict, rc: int) -> Optional[str]:
    """Siegel-Weil: the level-one series is (-B_{k+1}/(k+1)) E_{k+1}."""
    k, nmax = int(arg_value(argv, "--k")), int(arg_value(argv, "--nmax"))
    want = (-bernoulli_number(k + 1) / (k + 1)) * eisenstein_level1(k + 1, nmax)
    if QExpansion.from_json_dict(payload) != want:
        return "theta series differs from the Eisenstein multiple"
    return None


def check_cohen(argv: List[str], payload: dict, rc: int) -> Optional[str]:
    """H(r, 0) = -B_{2r}/(2r), H(r, N) = 0 off (-1)^r N = 0, 1 (mod 4), and
    for r = 1 the Kronecker-Hurwitz class number relation."""
    r, nmax = int(arg_value(argv, "--r")), int(arg_value(argv, "--nmax"))
    h = {n: Fraction(c) for n, c in payload["coeffs"]}
    if h.get(0) != -_bernoulli(2 * r) / (2 * r):
        return "constant term is not zeta(1 - 2r)"
    for n in range(1, nmax + 1):
        if ((-1) ** r * n) % 4 in (2, 3) and h.get(n, 0) != 0:
            return f"H({r}, {n}) should vanish"
    if r == 1:
        for n in range(1, nmax // 4 + 1):
            t_max = isqrt(4 * n)
            lhs = sum(h.get(4 * n - t * t, Fraction(0)) for t in range(-t_max, t_max + 1))
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            rhs = 2 * _sigma1(n) - sum(min(d, n // d) for d in divisors)
            if lhs != rhs:
                return f"Kronecker-Hurwitz relation fails at n = {n}"
    return None


def check_eisenstein(argv: List[str], payload: dict, rc: int) -> Optional[str]:
    weight, nmax = int(arg_value(argv, "--weight")), int(arg_value(argv, "--nmax"))
    a, b = EISENSTEIN_PRODUCTS[weight]
    ea, eb = eisenstein_level1(a, nmax), eisenstein_level1(b, nmax)
    got = {n: Fraction(c) for n, c in payload["coeffs"]}
    for n in range(nmax + 1):
        want = sum(ea.coeffs[m] * eb.coeffs[n - m] for m in range(n + 1))
        if got.get(n) != want:
            return f"E_{weight} differs from E_{a} E_{b} at q^{n}"
    return None


def check_caps_closed(argv: List[str], payload: dict, rc: int) -> Optional[str]:
    """Closed form against the triangular solve for the same jump n(r) v_{2i}."""
    k, i = int(arg_value(argv, "--k")), int(arg_value(argv, "--i"))
    r, M = Fraction(arg_value(argv, "--r")), Fraction(arg_value(argv, "--M"))
    solved = cap_solve(CapInput(k=k, width=M, position=r, jump=act_n(r, weight_vector(k, i))))
    if [Fraction(c) for c in payload["cap"]] != list(solved.coeffs):
        return "cap_closed_form != cap_solve"
    return None


def check_caps_assembled(argv: List[str], payload: dict, rc: int) -> Optional[str]:
    """Each cap, moved to its cusp's normal form, is a multiple of the closed
    form for n(r) v_0: there the geodesic is vertical and x^k is a multiple
    of n(r) v_0."""
    k, level = int(arg_value(argv, "--k")), int(arg_value(argv, "--level"))
    x = VecV(*(Fraction(t) for t in arg_value(argv, "--x").split(",")))
    caps = payload["caps"]
    if caps is None:
        return "split vector assembled as a closed cycle"
    width = gamma0_width(level)
    for side in ("first", "second"):
        line = IsotropicLine.from_cusp(*caps[f"{side}_cusp"])
        r = Fraction(caps[f"{side}_position"])
        sig = sigma_matrix(line)
        inv = (sig[3], -sig[1], -sig[2], sig[0])
        if conjugate_vec(inv, x).a != 0:
            return f"{side} cusp: transported geodesic is not vertical"
        jump = act(inv, embed_power(x, k))
        unit = act_n(r, weight_vector(k, 0))
        idx = next(n for n, c in enumerate(unit.coeffs) if c)
        lam = jump.coeffs[idx] / unit.coeffs[idx]
        if jump != lam * unit:
            return f"{side} cusp: jump is not a multiple of n(r) v_0"
        want = act(sig, lam * cap_closed_form(k, 0, r, width(line)))
        if [Fraction(c) for c in caps[f"cap_{side}"]] != list(want.coeffs):
            return f"{side} cusp: assembled cap differs from the closed form"
    return None


def check_intersect(argv: List[str], payload: dict, rc: int) -> Optional[str]:
    if rc != 0 or payload["agree"] is not True:
        return "cross-product sign and numeric sign disagree"
    return None


class PeriodReference:
    """c_{k,j} Lambda(f, k + 1 - j), one completed_L call per (weight, j)."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[int, int], float] = {}

    def __call__(self, weight: int, j: int) -> float:
        key = (weight, j)
        if key not in self._cache:
            k = weight // 2 - 1
            f = periods.HolomorphicFormSpec.eisenstein(weight)
            # looked up on the module so that a traced run times it
            value = periods.completed_L(f, k + 1 - j)
            self._cache[key] = (periods.c_constant(k, j) * value).real
        return self._cache[key]


def period_error(argv: List[str], payload: dict, reference: PeriodReference) -> Tuple[bool, Optional[float]]:
    """(within tolerance?, relative error or None when the target is a trivial zero).

    c_{k,j} is imaginary for even k - j, so those periods must vanish.
    """
    weight, j = int(arg_value(argv, "--weight")), int(arg_value(argv, "--j"))
    ref = reference(weight, j)
    err = abs(float(payload["value"]) - ref)
    k = weight // 2 - 1
    rel = err / abs(ref) if (k - j) % 2 else None
    return err <= period_tolerance(ref), rel


EXACT_CHECKS = {
    "lift": check_lift,
    "theta11": check_theta11,
    "cohen": check_cohen,
    "eisenstein": check_eisenstein,
    "caps-closed": check_caps_closed,
    "caps-assemble": check_caps_assembled,
    "intersect": check_intersect,
}


def rational_bits(payload: object) -> Tuple[int, int]:
    """Largest numerator and denominator bit length of any "p/q" in the payload."""
    num = den = 0
    stack = [payload]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str):
            try:
                q = Fraction(item)
            except ValueError:
                continue
            num = max(num, q.numerator.bit_length())
            den = max(den, q.denominator.bit_length())
    return num, den


def discriminant_sharing(r: int, nmax: int) -> Tuple[int, int]:
    """(coefficients with (-1)^r N = 0, 1 mod 4, distinct fundamental D among them)."""
    ds = set()
    count = 0
    for n in range(1, nmax + 1):
        delta = (-1) ** r * n
        if delta % 4 in (0, 1):
            count += 1
            ds.add(fundamental_discriminant_split(delta)[0])
    return count, len(ds)

