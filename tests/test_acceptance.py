"""Acceptance suite: every verification criterion at its stated tolerance.

All comparisons are exact integer (or exact rational / exact polynomial)
equalities; there are no numeric tolerances anywhere.  Each test prints a
single CRITERION line; run with ``pytest -s tests/test_acceptance.py`` to
see them.  Each reads the records of its groups from the one ``verify-all``
run of the session (the ``verify_all`` fixture), whose every output byte
is pinned here too.
"""

import hashlib

from wittcount.checks import (
    checks_asw_class_oracle,
    checks_carlitz,
    checks_conductor,
    checks_cyclic_subgroup_oracle,
    checks_degree_p_classes,
    checks_floor_ceil_lemmas,
    checks_infinity_classifier,
    checks_normalizer_certificates,
    checks_ratio_identity,
    checks_s_n_identity,
    checks_t1_identity,
    checks_witt_ghost_symbolic,
    checks_witt_ring_laws,
)
from wittcount.cli import EXIT_PASS


def test_verify_all_jsonl_golden_digest(verify_all):
    # every byte of ``verify-all --format jsonl`` at the defaults; a change
    # to any record's formula, oracle, status or params changes the digest
    assert verify_all.code == EXIT_PASS
    assert len(verify_all.out.splitlines()) == 208
    digest = hashlib.sha256(verify_all.out.encode()).hexdigest()
    assert digest == "4a5801f82bf2a91b9cf96f1836f5890cdf3111ad0f93a1e3be6da225484672cd"


def _run(verify_all, label, groups, expect_no_skips=True):
    records = [rec for group in groups for rec in verify_all.records[group]]
    elapsed = sum(verify_all.seconds[group] for group in groups)
    failed = [r for r in records if r.status == "fail"]
    skipped = [r for r in records if r.status == "skipped"]
    detail = "; ".join(
        f"{r.check_id}: formula={r.formula_value} oracle={r.oracle_value} "
        f"notes={[n for n, ok in r.identity_checks if not ok]}"
        for r in failed[:4]
    )
    status = "PASS" if not failed and not (expect_no_skips and skipped) else "FAIL"
    print(f"CRITERION {label}: {status} "
          f"({len(records)} records, {elapsed:.1f}s)" + (f" [{detail}]" if detail else ""))
    assert not failed, detail
    if expect_no_skips:
        assert not skipped, f"unexpected skips: {[r.check_id for r in skipped]}"
    return records


def test_criterion_01_cyclic_subgroup_oracle(verify_all):
    records = _run(verify_all, "1 (cyclic subgroup counts vs unit enumeration)",
                   [checks_cyclic_subgroup_oracle])
    # grid covers every feasible point: 3 q's x 2 d's x alpha<=6 x n<=3
    # minus the single (q=4, d=2, alpha=6) ring above 2^20
    assert len(records) == 105


def test_criterion_02_degree_p_classes_and_t1(verify_all):
    records = _run(verify_all, "2 (degree-p class oracle and t1 = v1 identity)",
                   [checks_degree_p_classes, checks_t1_identity])
    assert sum(1 for r in records if r.check_id.startswith("c02-asclasses")) == 18
    assert sum(1 for r in records if r.check_id.startswith("c02-t1v1")) == 15


def test_criterion_03_asw_classes_saturated(verify_all):
    records = _run(verify_all, "3 (length-2 class oracle with saturation)",
                   [checks_asw_class_oracle])
    assert len(records) == 4
    for rec in records:
        notes = dict(rec.identity_checks)
        assert notes["stabilized-within-3-rounds"]
        if rec.params["alpha"] == 3:
            assert notes["exactly-2-candidates"]
            assert rec.formula_value == rec.oracle_value == 1


def test_criterion_04_s_n_identity(verify_all):
    _run(verify_all, "4 (s_n product identity, n<=4, alpha<=200)", [checks_s_n_identity])


def test_criterion_05_ratio_identity(verify_all):
    _run(verify_all, "5 (v_n ratio identity)", [checks_ratio_identity])


def test_criterion_06_floor_ceil_lemmas(verify_all):
    _run(verify_all, "6 (floor/ceil lemmas on [-1000,1000])", [checks_floor_ceil_lemmas])


def test_criterion_07_witt_ring_laws(verify_all):
    _run(verify_all, "7 (Witt ghost identities and sampled ring laws)",
         [checks_witt_ghost_symbolic, checks_witt_ring_laws])


def test_criterion_08_normalizer_certificates(verify_all):
    records = _run(verify_all, "8 (normalizer certificates, 500+ random generators)",
                   [checks_normalizer_certificates])
    assert sum(r.formula_value for r in records) >= 500


def test_criterion_09_conductor(verify_all):
    _run(verify_all, "9 (conductor closed form vs recursion; exact-conductor counts)",
         [checks_conductor])


def test_criterion_10_infinity_classifier(verify_all):
    _run(verify_all, "10 (infinite-place trichotomy and e*f*g = p^n)",
         [checks_infinity_classifier])


def test_criterion_11_carlitz(verify_all):
    records = _run(verify_all, "11 (Carlitz shape/compose/gcd grids)", [checks_carlitz])
    pair_records = [r for r in records if "pairs" in r.params]
    # unordered pairs over all nonzero polynomials of degree <= 3:
    # 15*16/2 = 120 (q=2), 80*81/2 = 3240 (q=3), 255*256/2 = 32640 (q=4)
    assert sorted(r.formula_value for r in pair_records) == [120, 120, 3240, 3240, 32640, 32640]
