"""The coefficient representation: degree-2k forms in two variables.

An element is a rational linear combination of the monomials
e1^i * e2^(2k-i), stored as the coefficient tuple indexed by i (the e1-degree).
The group acts by substitution e1 -> a*e1 + c*e2, e2 -> b*e1 + d*e2, which
matches the conjugation action on the quadratic space under the dictionary

    e1^2 <-> u,   e2^2 <-> u',   e1*e2 <-> -w0/2.

The invariant pairing is normalized so that (u^k, u'^k) = (-1)^k; on monomials

    (e1^i e2^(2k-i), e1^j e2^(2k-j)) = 0 unless i + j = 2k, and
    (e1^i e2^(2k-i), e1^(2k-i) e2^i) = (-1)^(k+i) / C(2k, i).

The raising operator R is the derivation with R e2 = e1, R e1 = 0, so the
unipotent n(t) acts as exp(t R).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence, Tuple

from .exact_arith import RationalLike, clear_denominators, poly_product
from .quad_space import VecV, _frozen

__all__ = [
    "SymVector",
    "n_mat",
    "act",
    "act_n",
    "raising",
    "pairing",
    "embed_vector",
    "embed_power",
    "u_power",
    "uprime_power",
    "weight_vector",
    "weight_normalizer",
]


class SymVector:
    """Homogeneous degree-2k form; coeffs[i] multiplies e1^i e2^(2k-i).  An
    immutable value with vector arithmetic, not a tuple, like ``VecV``."""

    __slots__ = ("k", "coeffs")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, k: int, coeffs: Sequence[RationalLike]) -> None:
        if k < 0:
            raise ValueError("k must be >= 0")
        if len(coeffs) != 2 * k + 1:
            raise ValueError("coefficient tuple must have length 2k+1")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.coeffs) == (other.k, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.k, self.coeffs))

    def __repr__(self) -> str:
        return f"SymVector(k={self.k!r}, coeffs={self.coeffs!r})"

    @classmethod
    def monomial(cls, k: int, i: int, coeff: RationalLike = 1) -> "SymVector":
        c = [Fraction(0)] * (2 * k + 1)
        c[i] = Fraction(coeff)
        return cls(k, tuple(c))

    def __add__(self, other: "SymVector") -> "SymVector":
        self._check(other)
        return SymVector(self.k, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "SymVector") -> "SymVector":
        self._check(other)
        return SymVector(self.k, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "SymVector":
        return SymVector(self.k, tuple(-a for a in self.coeffs))

    def __rmul__(self, t: RationalLike) -> "SymVector":
        t = Fraction(t)
        return SymVector(self.k, tuple(t * a for a in self.coeffs))

    def _check(self, other: "SymVector") -> None:
        if self.k != other.k:
            raise ValueError(f"mismatched degrees: k={self.k} vs k={other.k}")


def n_mat(r: RationalLike) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Upper unipotent n(r) = [[1, r], [0, 1]] with rational r."""
    return (Fraction(1), Fraction(r), Fraction(0), Fraction(1))


def _entries(g: Sequence[RationalLike]) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    a, b, c, d = (Fraction(t) for t in g)
    if a * d - b * c != 1:
        raise ValueError("determinant must be 1")
    return a, b, c, d


def act(g: Sequence[RationalLike], v: SymVector) -> SymVector:
    """Substitution action of a determinant-1 matrix: the sum over i of
    v_i X^i Y^(2k-i), X = a e1 + c e2, Y = b e1 + d e2, by Horner in X from
    i = 2k down, H <- H X + v_i Y^(2k-i), each power of Y one factor past the
    last.  The matrix and v are cleared to integers first, so the sum runs in
    integers and is divided once."""
    gden, (a, b, c, d) = clear_denominators(_entries(g))
    vden, nums = clear_denominators(v.coeffs)
    n = 2 * v.k
    out, y_pow = [nums[n]], [1]  # coefficients of e1^t e2^(deg - t), t = 0..deg
    for coeff in reversed(nums[:n]):
        y_pow = [b * lo + d * hi for lo, hi in zip([0, *y_pow], [*y_pow, 0])]
        out = [a * lo + c * hi + coeff * y for lo, hi, y in zip([0, *out], [*out, 0], y_pow)]
    den = vden * gden**n
    return SymVector(v.k, tuple(Fraction(t, den) for t in out))


def act_n(r: RationalLike, v: SymVector) -> SymVector:
    return act(n_mat(r), v)


def raising(v: SymVector) -> SymVector:
    """R v for the derivation R with R e2 = e1, R e1 = 0."""
    n = 2 * v.k
    out = [Fraction(0)] * (n + 1)
    for i in range(n):
        if v.coeffs[i]:
            out[i + 1] += (n - i) * v.coeffs[i]
    return SymVector(v.k, tuple(out))


def pairing(v1: SymVector, v2: SymVector) -> Fraction:
    """Invariant pairing, normalized by (u^k, u'^k) = (-1)^k."""
    if v1.k != v2.k:
        raise ValueError(f"mismatched degrees: k={v1.k} vs k={v2.k}")
    k = v1.k
    n = 2 * k
    total = Fraction(0)
    for i in range(n + 1):
        a = v1.coeffs[i]
        b = v2.coeffs[n - i]
        if a and b:
            total += (-1) ** (k + i) * a * b / comb(n, i)
    return total


def embed_vector(x: VecV) -> SymVector:
    """The quadratic form of x: c*e1^2 - 2b*e1*e2 - a*e2^2 (k = 1 element)."""
    return SymVector(1, (-x.a, -2 * x.b, x.c))


def embed_power(x: VecV, k: int) -> SymVector:
    """Image of the harmonic part of x^k: the k-th power of embed_vector(x),
    k products by ``poly_product`` in integers over one denominator.

    For isotropic y one has pairing(embed_power(x, k), embed_power(y, k)) =
    inner(x, y)^k; against the weight basis it reproduces the classical
    weight-vector normalizations.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    den, base = clear_denominators(embed_vector(x).coeffs)
    out = [1]
    for _ in range(k):
        out = poly_product(out, base, len(out) + 1)
    den **= k
    return SymVector(k, tuple(Fraction(t, den) for t in out))


def u_power(k: int) -> SymVector:
    """Embedding of u^k, the highest weight vector e1^(2k)."""
    return SymVector.monomial(k, 2 * k)


def uprime_power(k: int) -> SymVector:
    """Embedding of u'^k, the lowest weight vector e2^(2k)."""
    return SymVector.monomial(k, 0)


def weight_normalizer(k: int, i: int) -> Fraction:
    return Fraction(
        (-2) ** k * factorial(k) ** 2, factorial(k + i) * factorial(k - i)
    )


def weight_vector(k: int, i: int) -> SymVector:
    """Weight-2i vector v_{2i} = (-2)^k (k!)^2 / ((k+i)! (k-i)!) e1^(k+i) e2^(k-i).

    v_0 = embed_power(w0, k); v_{2k} and v_{-2k} are c_k times the u- and
    u'-powers with c_k = (-2)^k (k!)^2 / (2k)!.
    """
    if abs(i) > k:
        raise ValueError(f"weight index i={i} out of range [-{k}, {k}]")
    return SymVector.monomial(k, k + i, weight_normalizer(k, i))
