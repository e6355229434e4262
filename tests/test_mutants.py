"""Pinned mutants: each row plants one fault this library has met and must
be killed by the checks it names (mutation analysis: DeMillo, Lipton and
Sayward, *Hints on test data selection*, 1978).

A Carlitz row replaces one module attribute with its mutant through
``monkeypatch``; so do the Witt row, whose mutant is a plan that the compiled
Witt functions are then built from, and the field row, whose mutant is a row
of F_4's arithmetic.  A code row (the counting rows and two normaliser rows)
gives one function the code of its mutant, so that every name bound to it,
in the test modules too, runs the mutant, and names the tests that must then
fail.  A mutant that no row kills marks a check that is vacuous against that
fault.
"""

import inspect
import itertools
import textwrap

import pytest

import test_counting
from wittcount import asw, carlitz, checks, counting, polys, rationals, witt
from wittcount.fields import FiniteField, field
from wittcount.polys import Polynomial


def _rewritten(func, old, new):
    """``func`` recompiled, with its decorators, with the one occurrence of
    ``old`` in its source replaced by ``new``, reading the globals of its own
    module."""
    func = inspect.unwrap(func)
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


def _unit_scaled(right_rem):
    # q - 1 encodes a unit, 1 only at q = 2: a gcd compared only up to a unit
    # would pass every pair
    def mutant(fld, a, b):
        row = fld._mul_table[fld.q - 1]
        return {i: {e: row[c] for e, c in terms.items()}
                for i, terms in right_rem(fld, a, b).items()}
    return mutant


# (module, attribute, mutant factory, what the fault is)
CARLITZ_ROWS = [
    (carlitz, "_mul_into", _stride_one, "twisted products without the twist"),
    (carlitz, "_carlitz_step", _no_frobenius_spread, "C_T steps with n(T) for n(T^q)"),
    (carlitz, "_right_rem", _unit_scaled, "right remainders scaled by a unit"),
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


def _records_pass(group):
    """The records of one ``verify-all`` check group at the default config."""
    failed = [rec.check_id for rec in group(checks.CheckConfig()) if rec.status != "pass"]
    assert not failed, failed


def _without_last_top_sum_term(plan):
    """``witt._plan`` whose mod-p sum plans lack the last term of their top
    component."""
    def mutant(p, n, op, modular):
        comps = plan(p, n, op, modular)
        return comps[:-1] + (comps[-1][:-1],) if op == "sum_polys" and modular else comps
    return mutant


def _clear_witt_plans():
    witt._compiled.cache_clear()


def test_witt_records_kill_the_plan_mutant(monkeypatch):
    # functions compiled from the unmutated plans would hide the mutant, and
    # the mutant's must not outlive it
    survivors = []
    _clear_witt_plans()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(witt, "_plan", _without_last_top_sum_term(witt._plan))
            for group in (checks.checks_witt_ring_laws, checks.checks_normalizer_certificates,
                          checks.checks_asw_class_oracle):
                try:
                    _records_pass(group)
                except AssertionError:
                    continue
                survivors.append(group.__name__)
    finally:
        _clear_witt_plans()
    assert not survivors, f"{survivors} pass with a Witt sum lacking a top term"


def _clear_field_memos():
    """The memos whose values a wrong F_q inverse can change."""
    for memo in (rationals._plan, polys._factor_monic, polys.canonical_prime,
                 carlitz._carlitz_sparse, FiniteField.wp_coset_rep_val, counting.monic_prime):
        memo.cache_clear()
    _clear_counting_memos()


def test_records_kill_a_swapped_inverse(monkeypatch):
    # F_4 with 1/g and 1/g^2 swapped: 1/1 stays 1, so only a division by a
    # leading coefficient other than 1 goes wrong.  c11's record c11-gcd/q4
    # kills it too, at several times the cost of these two groups; no record
    # of c01-c07, c09 or the supporting group does.
    f4 = field(2, 2)
    swapped = list(f4._inv_table)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    survivors = []
    _clear_field_memos()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(f4, "_inv_table", swapped)
            for group in (checks.checks_normalizer_certificates, checks.checks_infinity_classifier):
                try:
                    _records_pass(group)
                except AssertionError:
                    continue
                survivors.append(group.__name__)
    finally:
        _clear_field_memos()
    assert not survivors, f"{survivors} pass with 1/g and 1/g^2 swapped in F_4"


# (function, source text, mutant text, what the fault is, the tests that kill it
# as (test function, its parametrize arguments))
CODE_ROWS = [
    (counting._lifted_wp_basis, "range(fld.s)", "range(1)",
     "class links through a wp basis without its digits t >= 1",
     [(_records_pass, (checks.checks_degree_p_classes,)),
      (_records_pass, (checks._exact_conductor_checks,)),
      (test_counting.test_as_classes_over_prime_power_fields, (2, 2, 1, 6)),
      (test_counting.test_as_classes_over_prime_power_fields, (2, 2, 2, 4)),
      (test_counting.test_as_classes_over_prime_power_fields, (3, 2, 1, 5)),
      (test_counting.test_asw_classes_n1_matches_as_classes, ())]),
    # no record kills it: a class count depends only on how many images there
    # are, so c02, c09 and c10 pass; the class-partition record of ROADMAP item 3 would
    (counting._lifted_wp_basis, "(0,) * (fld.p * e)", "(0,) * e",
     "the degree-p wp basis images with the T^(p e) of h^p put at T^e",
     [(test_counting.test_class_oracle_lifts_match_the_witt_lift, (2, 2, 1, 5)),
      (test_counting.test_class_oracle_lifts_match_the_witt_lift, (2, 1, 2, 5)),
      (test_counting.test_class_oracle_lifts_match_the_witt_lift, (3, 1, 2, 4))]),
    # at s = 1 the F_p-basis scale p^t is 1, so the multiples d p^t T^e that
    # the walk makes by repeated adds are the only scaling q = 3 records see
    (counting._linear_columns, "col[-size:]", "col[:size]",
     "the columns of d p^t T^e adding the image of p^t T^e once for every d",
     [(_records_pass, (checks.checks_degree_p_classes,)),
      (_records_pass, (checks._exact_conductor_checks,)),
      (test_counting.test_as_classes_frozen_examples, ()),
      (test_counting.test_as_classes_equal_t1, ()),
      (test_counting.test_as_classes_over_prime_power_fields, (3, 2, 1, 5)),
      (test_counting.test_class_oracle_lifts_match_the_witt_lift, (3, 1, 2, 4)),
      (test_counting.test_asw_classes_detail_pinned_cells,
       (3, 1, 1, 5, 1, (13, 62, (2, 3), (13, 13))))]),
    # the class oracle's numerators and the unit oracle's columns start from
    # these images, so c01's q4 records fail with it too
    (counting._basis_images, "c << pk.stride * e", "pk.slots[1] << pk.stride * e",
     "the image p^t T^e of the F_p-basis without its scale p^t",
     [(_records_pass, (checks.checks_degree_p_classes,)),
      (_records_pass, (checks._exact_conductor_checks,)),
      (_records_pass, (checks.checks_cyclic_subgroup_oracle,)),
      (test_counting.test_p_power_order_counts_match_a_direct_tally, (2, 2, 2, 3)),
      (test_counting.test_class_oracle_lifts_match_the_witt_lift, (2, 2, 1, 5)),
      (test_counting.test_lifted_candidates_at_their_own_pole_order_are_the_numerators,
       (2, 2, 1)),
      (test_counting.test_as_classes_over_prime_power_fields, (2, 2, 1, 6)),
      (test_counting.test_asw_classes_n1_matches_as_classes, ())]),
    # g^2 = 1 at p = 3, so each candidate is linked to no multiple; at p = 5
    # and 7, g^2 generates a proper subgroup of F_p^*.  c02's q3, q5 and q7
    # records at alpha >= 2 fail with it, and c09's q3 record
    (counting._lambda_classes, "_power(x, g, pk.add)", "_power(x, g * g, pk.add)",
     "the degree-p classes linked by beta -> g^2 beta in place of g beta",
     [(_records_pass, (checks.checks_degree_p_classes,)),
      (test_counting.test_as_classes_equal_t1, ()),
      (test_counting.test_as_classes_over_prime_power_fields, (5, 1, 1, 7)),
      (test_counting.test_as_classes_over_prime_power_fields, (7, 1, 1, 4))]),
    # c01's q4/d2 records at alpha = 3, 5 and n = 2, 3 fail with it too
    (counting._power_columns, "fld._frob_table[pk.values[b >> stride * i]]",
     "pk.values[b >> stride * i]",
     "a Frobenius row c^p T^(i p) of the g^(p^m) columns scaled by c in place of c^p",
     [(test_counting.test_power_columns_match_per_residue_images, (2, 2, 1)),
      (test_counting.test_power_columns_match_per_residue_images, (3, 2, 2))]),
    # every residue but 0 then reads as a unit, which the closed-form Phi(P^alpha) rejects
    (counting._power_columns, "_basis_images(pk, prime, deg)", "_basis_images(pk, modulus, deg)",
     "the unit test of each residue made by a walk mod P^alpha in place of mod P",
     [(_records_pass, (checks.checks_cyclic_subgroup_oracle,)),
      (test_counting.test_p_power_order_counts_match_a_direct_tally, (2, 2, 2, 3))]),
    # -c = c at p = 2, so only p >= 3 cases see it, and only where M - T^deg M != 0
    # (every canonical prime of degree 1 is T): c01's q3/d2 records do
    (counting._walk, "pk.fld._neg_table[pk.values[c]]", "pk.values[c]",
     "a walk step adding +c (M - T^deg M) in place of -c (M - T^deg M)",
     [(_records_pass, (checks.checks_cyclic_subgroup_oracle,)),
      (test_counting.test_power_columns_match_per_residue_images, (3, 1, 2)),
      (test_counting.test_power_columns_match_per_residue_images, (5, 1, 2))]),
    (counting._teich, "e * vec.p**i", "e",
     "[P^e] scaling every level by P^e in place of P^(e p^i)",
     [(_records_pass, (checks.checks_asw_class_oracle,)),
      (test_counting.test_teich_is_the_teichmuller_product, (2, 1, 3)),
      (test_counting.test_asw_classes_frozen_examples, ()),
      (test_counting.test_asw_classes_match_v_n, ()),
      (test_counting.test_class_oracles_with_other_primes, ()),
      (test_counting.test_ln1_bounds_oracle_growth, ())]),
    (counting.oracle_asw_classes_detail, "v.frobenius()", "v",
     "the length-n corrections wp(c) without their Frobenius",
     [(_records_pass, (checks.checks_asw_class_oracle,)),
      (test_counting.test_asw_classes_frozen_examples, ()),
      (test_counting.test_asw_classes_match_v_n, ()),
      (test_counting.test_asw_classes_n1_matches_as_classes, ()),
      (test_counting.test_class_oracles_with_other_primes, ()),
      (test_counting.test_ln1_bounds_oracle_growth, ())]),
    # c08-normcert/q3 kills it; the c07-laws and c10 records do not
    (asw._hasse_parts, "while q_num and not (qr := divmod(q_num, prime))[1]:",
     "if q_num and not (qr := divmod(q_num, prime))[1]:",
     "a peeled numerator with the prime P divided out of it only once",
     [(_records_pass, (checks.checks_normalizer_certificates,))]),
    # every c08-normcert record kills it, and c10-efg-product; the c07-laws records do not
    (asw.witt_normalize, "running.comps[:level] + tail.comps",
     "running.comps[:level + 1] + tail.comps[1:]",
     "a Witt level update that keeps level L and slices the sum at L + 1",
     [(_records_pass, (checks.checks_normalizer_certificates,))]),
]


def _clear_counting_memos():
    counting._lambda_classes.cache_clear()
    counting._p_power_order_counts.cache_clear()


def _code_row_ids():
    """A row is named by its function, a later row of the same function also by its place."""
    names = [row[0].__name__ for row in CODE_ROWS]
    return [f"{name}-{names[:k].count(name) + 1}" if name in names[:k] else name
            for k, name in enumerate(names)]


@pytest.mark.parametrize("func, old, new, fault, killers", CODE_ROWS, ids=_code_row_ids())
def test_counting_tests_kill_the_mutant(monkeypatch, func, old, new, fault, killers):
    # memoised counts of the unmutated oracles would hide the mutant, and
    # the mutant's counts must not outlive it
    mutant = inspect.unwrap(_rewritten(func, old, new))
    survivors = []
    _clear_counting_memos()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(inspect.unwrap(func), "__code__", mutant.__code__)
            for test, args in killers:
                try:
                    test(*args)
                except AssertionError:
                    continue
                survivors.append(f"{test.__name__}{args}")
    finally:
        _clear_counting_memos()
    assert not survivors, f"{survivors} pass with {fault}"
