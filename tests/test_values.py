"""Value semantics of the library's record types: immutable tuples of their
fields, equal (and, when every field hashes, of equal hash) exactly when
their fields are, with a stable repr."""

import pytest

from wittcount.asw import AswGenerator, AswNormalForm, InfinityBehavior, PrimeBlock, witt_normalize
from wittcount.carlitz import CarlitzPoly, carlitz_poly
from wittcount.checks import CheckConfig
from wittcount.counting import AswClassesResult, CountParams, VerificationReport
from wittcount.fields import field
from wittcount.polys import parse_poly
from wittcount.witt import WittUniversalTables, parse_witt, witt_tables

F2 = field(2, 1)


def _beta():
    return parse_witt(F2, "(1/T^3 + T, 1/(T^2+T+1))")


def _normal_form():
    return witt_normalize(AswGenerator(_beta()))


def _tables():
    return tuple(witt_tables.__wrapped__(2, 2))  # a fresh build, not the cached one


# (class, zero-argument builder of positional field values, hashable, pinned repr)
ROWS = [
    (AswGenerator, lambda: (_beta(),), True, None),
    (PrimeBlock, lambda: tuple(_normal_form().primes[0]), True, None),
    (InfinityBehavior, lambda: (0, 1, 2, 1, 1), True,
     "InfinityBehavior(s=0, t=1, e=2, f=1, g=1)"),
    (AswNormalForm, lambda: tuple(_normal_form()), True, None),
    (CarlitzPoly, lambda: tuple(carlitz_poly(parse_poly(F2, "T^2+1"))), True, None),
    (CountParams, lambda: (2, 1, 1, 3, 1), True, "CountParams(p=2, s=1, d=1, alpha=3, n=1)"),
    (AswClassesResult, lambda: (1, 2, (2, 3), (1, 1)), True,
     "AswClassesResult(count=1, candidates=2, bounds_tried=(2, 3), counts_per_bound=(1, 1))"),
    (VerificationReport, lambda: ("c00", {"p": 2}, 3, 3, (("note", True),), "pass", 0), False,
     None),
    (WittUniversalTables, _tables, False, None),  # its integer polynomials do not hash
    (CheckConfig, lambda: (64, 1, True), True, None),
]


@pytest.mark.parametrize("cls, values, hashable, pinned", ROWS, ids=[row[0].__name__ for row in ROWS])
def test_value_semantics(cls, values, hashable, pinned):
    args = values()
    value = cls(*args)
    assert cls(**dict(zip(cls._fields, args))) == value
    again = cls(*values())
    assert again == value
    if hashable:
        assert hash(again) == hash(value)
    else:
        with pytest.raises(TypeError):
            hash(value)
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], args[0])
    if pinned is not None:
        assert repr(value) == pinned


def test_inconsistent_infinity_behavior_is_rejected():
    with pytest.raises(ValueError, match="inconsistent infinity behavior"):
        InfinityBehavior(s=2, t=1, e=1, f=1, g=1)
