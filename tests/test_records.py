"""The record types: construction by field name, value semantics, immutability
and the refusals of the validated inputs.

The two vectors (``VecV``, ``SymVector``) carry arithmetic and are slotted
classes, never tuples; every other record is a ``typing.NamedTuple``, the
validated inputs through a subclass whose ``__new__`` coerces and refuses.
"""

import re
from fractions import Fraction

import pytest

from spectacle import quad_space
from spectacle.caps import CapInput, CuspCap, SpectacleCycle
from spectacle.periods import HolomorphicFormSpec
from spectacle.qseries import QExpansion
from spectacle.quad_space import LINE_INFINITY, IsotropicLine, VecV
from spectacle.shintani_lift import LiftConfig, LiftReport, PlusSpaceResult, SignConvention
from spectacle.sym_rep import SymVector
from spectacle.theta11 import SplitLatticeU
from spectacle.verify import CriterionResult


def _one(n):
    return 1, 1


_SERIES = QExpansion(1, 2, {0: 1, 2: Fraction(1, 2)})
_CONVENTION = SignConvention(sigma_glob=-1, interior_relative=-1, boundary_incidence=1)
_REPORT = LiftReport(cfg=LiftConfig(1, 0, 2), theta_side=_SERIES, geometric_side=_SERIES,
                     sign_convention=_CONVENTION, first_mismatch=None)
_CAP = CuspCap(line=LINE_INFINITY, position=Fraction(1, 2), vector=SymVector(1, (0, 1, 0)))

# name -> (type, keyword arguments, fields coerced to Fraction, hashable?)
RECORDS = {
    "VecV": (VecV, dict(a=1, b=Fraction(1, 2), c=-3), ("a", "b", "c"), True),
    "SymVector": (SymVector, dict(k=1, coeffs=[1, 0, Fraction(1, 2)]), (), True),
    "IsotropicLine": (IsotropicLine, dict(cusp=(1, 0)), (), True),
    "CapInput": (CapInput, dict(k=1, width=2, position=Fraction(1, 3),
                                jump=SymVector(1, (0, 1, 0))), ("width", "position"), True),
    "CuspCap": (CuspCap, _CAP._asdict(), (), True),
    "SpectacleCycle": (SpectacleCycle, dict(x=VecV(0, 1, 0), k=1, caps=(_CAP, _CAP)), (), True),
    "HolomorphicFormSpec": (HolomorphicFormSpec, dict(weight=4, a=_one), (), True),
    "SplitLatticeU": (SplitLatticeU, dict(M1=1, h1=0, M2=2, h2=Fraction(1, 2)),
                      ("M1", "h1", "M2", "h2"), True),
    "LiftConfig": (LiftConfig, dict(k=1, h=0, n_max=6), ("h",), True),
    "SignConvention": (SignConvention, _CONVENTION._asdict(), (), True),
    # a QExpansion has value equality and no hash, so neither has a record holding one
    "LiftReport": (LiftReport, _REPORT._asdict(), (), False),
    "PlusSpaceResult": (PlusSpaceResult, dict(
        k=1, lam=Fraction(3), first_break=None, combined=_SERIES,
        reports=(_REPORT, _REPORT)), (), False),
    "CriterionResult": (CriterionResult, dict(name="c", passed=True, detail="d", seconds=0.5),
                        (), True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_value(name):
    cls, kwargs, coerced, hashable = RECORDS[name]
    first, second = cls(**kwargs), cls(**kwargs)
    assert first == second and first is not second
    if hashable:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)
    field = next(iter(kwargs))
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(first, attribute, kwargs[field])
    for attribute, value in kwargs.items():
        got = getattr(first, attribute)
        if attribute in coerced:
            assert type(got) is Fraction and got == value
        elif attribute == "coeffs":
            assert got == tuple(value) and all(type(c) is Fraction for c in got)
        else:
            assert got is value
    assert repr(first).startswith(f"{name}(")


def test_each_fact_is_one_field():
    assert SpectacleCycle._fields == ("x", "k", "caps")
    assert CuspCap._fields == ("line", "position", "vector")
    assert IsotropicLine._fields == ("cusp",)
    assert LiftReport._fields[0] == "cfg"
    assert not {"k", "h", "n_max", "equal_to"} & set(LiftReport._fields)
    assert "passed" not in PlusSpaceResult._fields
    assert not hasattr(quad_space, "cross") and not hasattr(quad_space, "LINE_ZERO")


@pytest.mark.parametrize(
    "name, stale, value, read",
    [
        ("LiftReport", "equal_to", 2, lambda r: r.to_json_dict()["equal_to"]),
        ("PlusSpaceResult", "passed", True, lambda r: r.passed),
        ("SpectacleCycle", "cap_first", _CAP.vector, lambda r: r.caps[0].vector),
        ("IsotropicLine", "generator", VecV(0, 0, 1), lambda r: r.generator),
    ],
)
def test_derived_value_is_not_a_constructor_argument(name, stale, value, read):
    # each is read from the record's other fields, so it cannot be passed in
    # to disagree with them
    cls, kwargs, _, _ = RECORDS[name]
    with pytest.raises(TypeError):
        cls(**kwargs, **{stale: value})
    assert read(cls(**kwargs)) == value


def test_vectors_are_not_tuples():
    v, w = VecV(1, 2, 3), SymVector(1, (1, 2, 3))
    for vec in (v, w):
        assert not isinstance(vec, tuple)
        with pytest.raises(TypeError):
            vec * 2
        with pytest.raises(TypeError):
            len(vec)
        with pytest.raises(AttributeError):
            delattr(vec, "k" if vec is w else "a")
    assert 2 * v == VecV(*(Fraction(t) for t in (2, 4, 6)))
    assert v != (Fraction(1), Fraction(2), Fraction(3)) and w != (1, (1, 2, 3))
    assert repr(v) == "VecV(a=Fraction(1, 1), b=Fraction(2, 1), c=Fraction(3, 1))"
    assert repr(w) == "SymVector(k=1, coeffs=(Fraction(1, 1), Fraction(2, 1), Fraction(3, 1)))"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SymVector(k=-1, coeffs=()), "k must be >= 0"),
        (lambda: SymVector(k=1, coeffs=(1, 2)), "coefficient tuple must have length 2k+1"),
        (lambda: CapInput(k=1, width=0, position=0, jump=SymVector(1, (0, 1, 0))),
         "cusp width must be positive"),
        (lambda: CapInput(k=2, width=1, position=0, jump=SymVector(1, (0, 1, 0))),
         "jump value degree does not match k"),
        (lambda: HolomorphicFormSpec(weight=2, a=_one), "weight must be even and >= 4"),
        (lambda: HolomorphicFormSpec(weight=5, a=_one), "weight must be even and >= 4"),
        (lambda: SplitLatticeU(M1=0, h1=0, M2=1, h2=0), "progression steps must be positive"),
        (lambda: SplitLatticeU(M1=1, h1=0, M2=-1, h2=0), "progression steps must be positive"),
        (lambda: SplitLatticeU(M1=1, h1=1, M2=1, h2=0), "offsets must satisfy 0 <= h < M"),
        (lambda: SplitLatticeU(M1=1, h1=0, M2=1, h2=Fraction(-1, 2)),
         "offsets must satisfy 0 <= h < M"),
        (lambda: LiftConfig(k=0, h=0, n_max=1), "k must be >= 1"),
        (lambda: LiftConfig(k=1, h=Fraction(1, 3), n_max=1),
         "coset tag must be 0 or 1/2 (times w0)"),
        (lambda: LiftConfig(k=1, h=0, n_max=-1), "n_max must be >= 0"),
        (lambda: LiftConfig(1, 0, 4)._replace(k=0), "k must be >= 1"),
        (lambda: HolomorphicFormSpec(4, _one)._replace(weight=5),
         "weight must be even and >= 4"),
        (lambda: SplitLatticeU(1, 0, 1, 0)._replace(h2=1), "offsets must satisfy 0 <= h < M"),
        (lambda: CapInput(1, 1, 0, SymVector(1, (0, 1, 0)))._replace(width=-1),
         "cusp width must be positive"),
    ],
)
def test_validated_input_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()

