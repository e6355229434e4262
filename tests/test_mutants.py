"""Pinned mutants: each row plants one fault this library has met and must
be killed by the checks it names (mutation analysis: DeMillo, Lipton and
Sayward, *Hints on test data selection*, 1978).

A row replaces one module attribute with its mutant through ``monkeypatch``.
A mutant that no row kills marks a check that is vacuous against that fault.
"""

import inspect
import itertools
import textwrap

import pytest

from wittcount import carlitz
from wittcount.fields import field
from wittcount.polys import Polynomial


def _rewritten(func, old, new):
    """``func`` recompiled with the one occurrence of ``old`` in its source
    replaced by ``new``, reading the globals of its own module."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, f"{func.__name__} no longer contains {old!r} once"
    namespace = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(func), "exec"),
         func.__globals__, namespace)
    return namespace[func.__name__]


def _stride_one(mul_into):
    return lambda out, rows, b, stride, add: mul_into(out, rows, b, 1, add)


def _no_frobenius_spread(step):
    return _rewritten(step, "f *= q", "pass")


# (module, attribute, mutant factory, what the fault is)
CARLITZ_ROWS = [
    (carlitz, "_mul_into", _stride_one, "twisted products without the twist"),
    (carlitz, "_carlitz_step", _no_frobenius_spread, "C_T steps with n(T) for n(T^q)"),
]


def _carlitz_pairs():
    """Every pair of nonzero polynomials of degree <= 2 over F_2, then F_4."""
    for fld in (field(2, 1), field(2, 2)):
        polys = [Polynomial.from_int(fld, enc) for enc in range(1, fld.q**3)]
        yield from itertools.product(polys, polys)


def _carlitz_checks_hold(m, n):
    return carlitz.carlitz_compose_check(m, n) and carlitz.carlitz_gcd_check(m, n)


@pytest.mark.parametrize("module, name, mutate, fault", CARLITZ_ROWS,
                         ids=[row[1] for row in CARLITZ_ROWS])
def test_carlitz_checks_kill_the_mutant(monkeypatch, module, name, mutate, fault):
    # cached C_M built before the mutant was applied would hide it
    carlitz._carlitz_sparse.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutate(getattr(module, name)))
            killer = next((pair for pair in _carlitz_pairs()
                           if not _carlitz_checks_hold(*pair)), None)
        assert killer is not None, f"no q = 2 or 4 pair of degree <= 2 kills {fault}"
        carlitz._carlitz_sparse.cache_clear()
        assert _carlitz_checks_hold(*killer)  # the unmutated library passes it
    finally:
        carlitz._carlitz_sparse.cache_clear()
