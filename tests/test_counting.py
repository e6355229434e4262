import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcount.counting import (
    MAX_COUNT_BITS,
    CountParams,
    VerificationReport,
    ln1_bound,
    lemma42_ceil,
    lemma42_floor,
    monic_prime,
    oracle_as_classes,
    oracle_as_classes_by_conductor,
    oracle_asw_classes,
    oracle_asw_classes_detail,
    oracle_cyclic_subgroups,
    ratio_check,
    s_n,
    t1,
    telescoped_phi_sum,
    v_n,
    w,
    _DSU,
    _lifted_candidates,
    _lifted_wp_images,
    _p_power_order_counts,
    _power_columns,
    _teich,
)
from wittcount.fields import field
from wittcount.polys import (DEFAULT_ENUM_CAP, CapExceededError, Polynomial, canonical_prime,
                             monic_irreducibles, parse_poly, phi, polys_below)
from wittcount.rationals import RationalFunction
from wittcount.witt import WittVector

from oracles import (ResidueRing, _lift, _lifted_wp, _pole_parts, as_classes_by_every_transform,
                     power_images)


def params(p, s, d, alpha, n):
    return CountParams(p=p, s=s, d=d, alpha=alpha, n=n)


def test_v_n_frozen_examples():
    assert v_n(params(2, 1, 1, 2, 1)) == 1
    assert v_n(params(2, 1, 1, 4, 1)) == 3
    assert v_n(params(2, 1, 1, 3, 2)) == 1


def test_v_n_zero_iff_alpha_small():
    for p, s in ((2, 1), (3, 1), (2, 2)):
        for n in (1, 2, 3):
            for alpha in range(1, 30):
                value = v_n(params(p, s, 1, alpha, n))
                assert (value == 0) == (alpha <= p ** (n - 1))


def test_v_n_monotone_in_alpha():
    for p, s, d in ((2, 1, 1), (3, 1, 2), (2, 2, 1)):
        for n in (1, 2, 3):
            values = [v_n(params(p, s, d, a, n)) for a in range(1, 40)]
            assert all(x <= y for x, y in zip(values, values[1:]))


def test_w_frozen_examples():
    assert w(3, params(2, 1, 1, 3, 1)) == 1
    assert w(1, params(2, 1, 1, 1, 1)) == 0
    assert w(5, params(2, 1, 1, 5, 1)) == 3
    with pytest.raises(ValueError):
        w(0, params(2, 1, 1, 1, 1))


def test_t1_frozen_examples():
    assert t1(3, params(2, 1, 1, 3, 1)) == 1
    assert t1(2, params(3, 1, 1, 2, 1)) == 1
    assert t1(1, params(2, 1, 1, 1, 1)) == 0


def test_s_n_frozen_examples():
    assert s_n(params(2, 1, 1, 3, 1)) == 1
    assert s_n(params(2, 1, 1, 3, 2)) == 2
    assert s_n(params(2, 1, 1, 1, 1)) == 0


@settings(max_examples=300, deadline=None)
@given(alpha=st.integers(-1000, 1000), s=st.integers(1, 10), p=st.sampled_from([2, 3, 5]))
def test_lemma42_property(alpha, s, p):
    assert lemma42_floor(alpha, s, p) == alpha // p ** (s + 1)
    assert lemma42_ceil(alpha, s, p) == -((-alpha) // p**s)


def test_lemma42_frozen():
    assert lemma42_ceil(7, 2, 2) == 2
    assert lemma42_floor(9, 1, 3) == 1
    assert lemma42_floor(0, 3, 2) == 0


def test_ratio_check_frozen():
    lhs, rhs = ratio_check(params(2, 1, 1, 3, 2))
    assert lhs == rhs == 1
    lhs, rhs = ratio_check(params(2, 1, 1, 5, 2))
    assert lhs == rhs == 2
    lhs, rhs = ratio_check(params(3, 1, 1, 4, 2))
    assert lhs == rhs
    with pytest.raises(ZeroDivisionError):
        ratio_check(params(2, 1, 1, 2, 3))  # v_2(floor(1/2)+1) = v_2(1) = 0
    with pytest.raises(ValueError):
        ratio_check(params(2, 1, 1, 3, 1))


def test_ln1_frozen():
    assert ln1_bound(params(2, 1, 1, 3, 1)) == 1
    assert ln1_bound(params(2, 1, 1, 5, 1)) == 2
    assert ln1_bound(params(2, 1, 1, 2, 1)) == 1
    with pytest.raises(ValueError):
        ln1_bound(params(2, 1, 1, 1, 1))


def test_telescoping():
    for r, s in ((1, 1), (2, 5), (3, 12), (1, 12)):
        telescoped_phi_sum(params(2, 1, 1, 1, 1), r, s)
        telescoped_phi_sum(params(3, 1, 2, 1, 1), r, s)


# -- cyclic subgroup oracle --

def test_oracle_cyclic_frozen_examples():
    assert oracle_cyclic_subgroups(params(2, 1, 1, 3, 2)) == 1
    assert oracle_cyclic_subgroups(params(2, 1, 1, 2, 1)) == 1
    assert oracle_cyclic_subgroups(params(3, 1, 1, 2, 1)) == 1
    assert oracle_cyclic_subgroups(params(2, 1, 1, 4, 1)) == 3


def test_oracle_cyclic_cap():
    with pytest.raises(CapExceededError):
        oracle_cyclic_subgroups(params(2, 1, 1, 6, 1), cap=50)


def test_oracle_cyclic_independent_of_prime_choice():
    # closed forms depend only on deg P; spot-check with a non-canonical prime
    fld = field(2, 1)
    other = monic_irreducibles(fld, 2)[-1]
    par = params(2, 1, 2, 3, 1)
    assert oracle_cyclic_subgroups(par, prime=other) == oracle_cyclic_subgroups(par) == v_n(par)


def test_oracle_cyclic_matches_residue_ring_orders():
    # cross-check the split enumeration against the generic residue ring
    for p, s, d, alpha in ((2, 1, 1, 4), (3, 1, 1, 3), (2, 2, 1, 2), (2, 1, 2, 2)):
        fld = field(p, s)
        prime = canonical_prime(fld, d)
        ring = ResidueRing(prime**alpha)
        for n in (1, 2):
            by_order = sum(1 for u in ring.units() if ring.elem_order(u) == p**n)
            expected = by_order // (p ** (n - 1) * (p - 1))
            assert oracle_cyclic_subgroups(params(p, s, d, alpha, n)) == expected


def _orders_by_residue_ring(prime, alpha, n):
    """Order-p^n cyclic subgroups of the units mod P^alpha, by elem_order."""
    p = prime.field.p
    ring = ResidueRing(prime**alpha)
    by_order = sum(1 for u in ring.units() if ring.elem_order(u) == p**n)
    return by_order // (p ** (n - 1) * (p - 1))


@pytest.mark.parametrize("p, s, d, alpha", [
    (2, 1, 1, 5), (3, 1, 1, 3),  # odd d*alpha: halves of unequal degree
    (2, 1, 1, 1), (3, 1, 1, 1), (2, 2, 1, 1),  # d*alpha = 1: the low half is {0}
    (2, 2, 2, 1), (2, 2, 2, 2),  # q = 4, d = 2
])
def test_oracle_cyclic_split_edge_cases(p, s, d, alpha):
    prime = canonical_prime(field(p, s), d)
    for n in (1, 2, 3):
        assert oracle_cyclic_subgroups(params(p, s, d, alpha, n)) == \
            _orders_by_residue_ring(prime, alpha, n)


def test_oracle_cyclic_split_non_canonical_prime():
    for p, s, d, alpha in ((3, 1, 2, 2), (2, 1, 3, 2), (2, 2, 1, 3)):
        primes = monic_irreducibles(field(p, s), d)
        other = primes[-1]
        assert other != primes[0]
        for n in (1, 2):
            assert oracle_cyclic_subgroups(params(p, s, d, alpha, n), prime=other) == \
                _orders_by_residue_ring(other, alpha, n)


@pytest.mark.parametrize("p", [131, 257])
def test_oracle_cyclic_large_characteristic(p):
    # digit sums above 255 overflowed a one-byte-per-digit packing here
    fld = field(p, 1)
    t_plus_1 = Polynomial(fld, (1, 1))
    for n in (1, 2, 3):
        par = params(p, 1, 1, 2, n)
        assert oracle_cyclic_subgroups(par, prime=t_plus_1) == v_n(par)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_power_columns_match_per_residue_images(p, s, d):
    # d = 1 runs d*alpha = 1 (the low half is {0}) and odd d*alpha (halves of unequal degree)
    fld = field(p, s)
    prime = canonical_prime(fld, d)
    one = Polynomial.one(fld)
    n_max = 3
    for alpha in range(1, 4 // d + 1):
        modulus = prime**alpha
        k = d * alpha // 2
        low = _power_columns(fld, prime, modulus, k, 0, [()] * (n_max + 2))
        expected = list(zip(*power_images(polys_below(fld, k), prime, modulus, n_max)))
        assert low == [[g.coeffs for g in col] for col in expected]
        high = _power_columns(fld, prime, modulus, d * alpha - k, k,
                              [()] + [(1,)] * (n_max + 1))
        highs = (Polynomial(fld, (0,) * k + h.coeffs) for h in polys_below(fld, d * alpha - k))
        residues, *powers = zip(*power_images(highs, prime, modulus, n_max))
        assert high == [[g.coeffs for g in residues]] + \
            [[(one + g).coeffs for g in col] for col in powers]


@pytest.mark.parametrize("p, s, d, alpha", [(2, 2, 2, 3), (3, 2, 1, 3), (5, 1, 1, 3)])
def test_p_power_order_counts_match_a_direct_tally(p, s, d, alpha):
    prime = canonical_prime(field(p, s), d)
    counts = _p_power_order_counts(p, s, prime.coeffs, alpha, 3, DEFAULT_ENUM_CAP)
    assert list(itertools.accumulate(counts)) == ResidueRing(prime**alpha).p_power_torsion(3)


def test_oracle_cyclic_agrees_with_formula_small_grid():
    for p, s in ((2, 1), (3, 1), (2, 2)):
        for d in (1, 2):
            for alpha in range(1, 5):
                if (p**s) ** (d * alpha) > 2**14:
                    continue
                for n in (1, 2):
                    par = params(p, s, d, alpha, n)
                    assert oracle_cyclic_subgroups(par) == v_n(par)


# -- degree-p class oracle --

def test_as_classes_frozen_examples():
    assert oracle_as_classes(params(2, 1, 1, 3, 1)) == 1
    assert oracle_as_classes(params(2, 1, 1, 5, 1)) == 3
    assert oracle_as_classes(params(3, 1, 1, 2, 1)) == 1


def test_as_classes_equal_t1():
    for p, s in ((2, 1), (3, 1)):
        for alpha in range(1, 7):
            assert oracle_as_classes(params(p, s, 1, alpha, 1)) == t1(alpha, params(p, s, 1, alpha, 1))


def test_as_classes_by_conductor():
    by_lam = oracle_as_classes_by_conductor(params(2, 1, 1, 6, 1))
    assert by_lam == {1: 1, 3: 2, 5: 4}
    # each bucket matches Phi(P^(lam - floor(lam/p)))/(p-1)
    from wittcount.polys import phi
    fld = field(2, 1)
    prime = canonical_prime(fld, 1)
    for lam, count in by_lam.items():
        assert count == phi(prime ** (lam - lam // 2))


def test_as_classes_memo_hands_out_fresh_dicts():
    par = params(3, 1, 1, 5, 1)
    first = oracle_as_classes_by_conductor(par)
    first.clear()
    assert oracle_as_classes_by_conductor(par) == {1: 1, 2: 3, 4: 9}
    assert oracle_as_classes(par) == 13


# -- length-n class oracle --

def test_asw_classes_frozen_examples():
    detail = oracle_asw_classes_detail(params(2, 1, 1, 3, 2))
    assert detail.count == 1
    assert detail.candidates == 2
    assert detail.rounds <= 3
    assert oracle_asw_classes(params(2, 1, 1, 2, 2)) == 0
    assert oracle_asw_classes(params(2, 1, 1, 4, 1)) == 3


def test_asw_classes_match_v_n():
    for alpha in (2, 3, 4, 6):
        par = params(2, 1, 1, alpha, 2)
        assert oracle_asw_classes(par) == v_n(par)


def test_asw_classes_n1_matches_as_classes():
    cells = [(p, 1, 1, alpha) for p in (2, 3) for alpha in range(1, 7)]
    for p, s, d, alpha in cells + [(2, 2, 1, 4), (2, 1, 2, 4)]:
        par = params(p, s, d, alpha, 1)
        assert oracle_asw_classes(par) == oracle_as_classes(par) == t1(alpha, par)


@pytest.mark.parametrize("p, s, d, alpha", [(2, 2, 1, 5), (2, 1, 2, 5), (3, 1, 2, 4)])
def test_class_oracle_lifts_match_the_witt_lift(p, s, d, alpha):
    # The class count depends only on how many corrections there are, so a
    # wp image without its Frobenius still counts t1 on these cells; the
    # images themselves are pinned to _lifted_wp here.  Each cell has a
    # gamma0 >= 1 with an h whose p-th power is not h.
    fld = field(p, s)
    prime = monic_irreducibles(fld, d)[-1]
    e_bound = alpha - 1
    for lam in range(1, alpha):
        betas = [beta for _, beta in _pole_parts(fld, prime, [lam], DEFAULT_ENUM_CAP)]
        assert _lifted_candidates(fld, prime, lam, e_bound, DEFAULT_ENUM_CAP) == \
            [_lift(WittVector(p, (beta,)), prime, e_bound).comps[0].coeffs for beta in betas]
    moved = False
    for gamma0 in range(1, e_bound // p + 1):
        hs = list(polys_below(fld, gamma0 * d))
        expected = [_lifted_wp(WittVector(p, (RationalFunction(h, prime**gamma0),)), prime,
                               e_bound).comps[0].coeffs for h in hs]
        assert _lifted_wp_images(fld, prime, e_bound, gamma0) == expected
        moved = moved or any(h.frobenius() != h for h in hs)
    assert moved


@pytest.mark.parametrize("p, s, d, alpha_max", [
    (2, 2, 1, 6), (2, 2, 2, 4), (2, 3, 1, 4), (2, 3, 2, 3), (3, 2, 1, 5), (3, 2, 2, 3),
])
def test_as_classes_over_prime_power_fields(p, s, d, alpha_max):
    # q in {4, 8, 9}: the corrections are spanned by wp(p^t T^e / P^gamma0)
    # for t < s, so here the digits t >= 1 are needed.  The largest alpha has
    # gamma0 * d = 2 in the q = 4 rows and 1 in q8/d1 and q9/d1; q8/d2 and
    # q9/d2 stop at gamma0 = 0, as their first cell with gamma0 = 1 has 8^6
    # or 9^8 candidates.
    fld = field(p, s)
    prime = monic_irreducibles(fld, d)[-1]
    for alpha in range(2, alpha_max + 1):
        par = params(p, s, d, alpha, 1)
        by_lam = oracle_as_classes_by_conductor(par, prime=prime)
        assert by_lam == {lam: phi(prime ** (lam - lam // p)) // (p - 1)
                          for lam in range(1, alpha) if lam % p}
        count = oracle_as_classes(par, prime=prime)
        assert count == t1(alpha, par)
        assert (count, by_lam) == as_classes_by_every_transform(prime, alpha)


def test_class_oracles_with_other_primes():
    # non-canonical primes of degree 1 and 2: every lift is by a power of that prime
    for p, s, d, alpha, text in ((2, 1, 2, 3, "T^2+T+1"), (3, 1, 1, 4, "T+2"),
                                 (2, 1, 1, 6, "T+1")):
        prime = parse_poly(field(p, s), text)
        par = params(p, s, d, alpha, 1)
        assert oracle_as_classes(par, prime=prime) == t1(alpha, par)
        assert oracle_asw_classes(par, prime=prime) == t1(alpha, par)
    for alpha in (5, 6):
        par = params(2, 1, 1, alpha, 2)
        assert oracle_asw_classes(par, prime=parse_poly(field(2, 1), "T+1")) == v_n(par)


@pytest.mark.parametrize("oracle", [oracle_cyclic_subgroups, oracle_as_classes,
                                    oracle_asw_classes])
@pytest.mark.parametrize("text", ["T^2+1", "T^2"])
def test_oracles_reject_a_reducible_prime(oracle, text):
    # T^2 + 1 = (T + 1)^2 over F_2; the lift and the unit count need P irreducible
    with pytest.raises(ValueError, match="not irreducible"):
        oracle(params(2, 1, 2, 2, 1), prime=parse_poly(field(2, 1), text))


def test_monic_prime_reads_a_unit_multiple_as_monic():
    fld = field(3, 1)
    assert monic_prime(parse_poly(fld, "2*T+2")) == parse_poly(fld, "T+1")
    for text in ("0", "2", "T^2", "T^2+2*T+1"):  # zero, a unit, T^2, (T+1)^2
        with pytest.raises(ValueError, match="not irreducible"):
            monic_prime(parse_poly(fld, text))


def _random_p_power_vector(rng, prime, n, bound):
    """Length-n vector whose level-i component is N/P^e, e <= bound * p^i,
    deg N < (e + 2) deg P: a polynomial part is allowed."""
    fld, p = prime.field, prime.field.p
    comps = []
    for i in range(n):
        e = rng.randrange(bound * p**i + 1)
        num = Polynomial(fld, [rng.randrange(fld.q) for _ in range((e + 2) * prime.degree)])
        comps.append(RationalFunction(num, prime**e))
    return WittVector(p, comps)


@pytest.mark.parametrize("p, s, n, d", [(2, 1, 3, 1), (2, 1, 2, 2), (3, 1, 2, 1), (3, 1, 3, 1),
                                        (2, 2, 2, 1), (2, 2, 3, 1)])
def test_lift_commutes_with_witt_arithmetic(p, s, n, d):
    fld = field(p, s)
    prime = monic_irreducibles(fld, d)[-1]
    rng = random.Random(f"lift/{fld.q}/{n}/{d}")
    bound = 2
    for _ in range(6):
        x = _random_p_power_vector(rng, prime, n, bound)
        y = _random_p_power_vector(rng, prime, n, bound)
        lx, ly = _lift(x, prime, bound), _lift(y, prime, bound)
        assert all(isinstance(c, Polynomial) for c in lx.comps)
        assert lx.add(ly) == _lift(x.add(y), prime, bound)
        assert lx.neg() == _lift(x.neg(), prime, bound)
        for m in (2, p + 1, -1):
            assert lx.int_mul(m) == _lift(x.int_mul(m), prime, bound)
        # wp(x) has pole order up to p * bound at level 0
        assert _lifted_wp(x, prime, p * bound) == _lift(x.wp(), prime, p * bound)


def test_lift_never_truncates():
    fld = field(2, 1)
    prime = parse_poly(fld, "T+1")
    x = WittVector(2, (RationalFunction(Polynomial.one(fld), prime**3),
                       RationalFunction(Polynomial.one(fld), prime**5)))
    lifted = _lift(x, prime, 3)  # level 1 scales by P^(3*2) >= P^5
    assert lifted.comps == (Polynomial.one(fld), prime)
    with pytest.raises(ValueError, match="pole order 3 at level 0"):
        _lift(x, prime, 2)
    y = WittVector(2, (RationalFunction.zero(fld), RationalFunction(Polynomial.one(fld), prime**5)))
    assert _lift(y, prime, 3).comps == (Polynomial.zero(fld), prime)
    with pytest.raises(ValueError, match="pole order 5 at level 1"):
        _lift(y, prime, 2)
    other = WittVector(2, (RationalFunction(Polynomial.one(fld), parse_poly(fld, "T")),))
    with pytest.raises(ValueError, match="not a power"):
        _lift(other, prime, 5)


@pytest.mark.parametrize("p, s, n", [(2, 1, 3), (3, 1, 2), (2, 2, 3), (3, 1, 3)])
def test_teich_is_the_teichmuller_product(p, s, n):
    # [P^e] x, component i times P^(e p^i), is the Witt product (P^e, 0, ..., 0) x
    fld = field(p, s)
    prime = monic_irreducibles(fld, 1)[-1]
    zero = Polynomial.zero(fld)
    rng = random.Random(f"teich/{fld.q}/{n}")
    for e in (0, 1, 2):
        for _ in range(3):
            x = WittVector(p, [Polynomial(fld, [rng.randrange(fld.q) for _ in range(3)])
                               for _ in range(n)])
            assert _teich(x, prime, e) == WittVector(p, (prime**e,) + (zero,) * (n - 1)).mul(x)


@pytest.mark.parametrize("p, s, d, alpha, n, expected", [
    (3, 1, 1, 5, 1, (13, 62, (2, 3), (13, 13))),
    (2, 2, 1, 4, 1, (15, 51, (2, 3), (15, 15))),
    (2, 1, 2, 4, 1, (15, 51, (2, 3), (15, 15))),
    (2, 1, 1, 6, 2, (4, 22, (3, 4), (4, 4))),
])
def test_asw_classes_detail_pinned_cells(p, s, d, alpha, n, expected):
    detail = oracle_asw_classes_detail(params(p, s, d, alpha, n))
    assert (detail.count, detail.candidates, detail.bounds_tried,
            detail.counts_per_bound) == expected


def test_asw_class_counts_never_rise():
    # the union-find is kept across rounds, so a round only merges classes
    for cell in ((3, 1, 1, 5, 1), (2, 2, 1, 4, 1), (2, 1, 2, 4, 1), (2, 1, 1, 6, 2)):
        counts = oracle_asw_classes_detail(params(*cell)).counts_per_bound
        assert all(a >= b for a, b in zip(counts, counts[1:])), cell


def test_saturation_ends_at_the_cap(monkeypatch):
    # a count falling every round never gives two equal rounds; the one
    # candidate of q2/a2/n1 takes 2^b Witt sums at pole bound b, b = 1, 2, ...
    falling = itertools.count(100, -1)
    monkeypatch.setattr(_DSU, "class_count", lambda self: next(falling))
    counts = re.escape(str(list(range(100, 88, -1))))
    with pytest.raises(CapExceededError, match=f"pole bound 13 .*class counts so far: {counts}"):
        oracle_asw_classes_detail(params(2, 1, 1, 2, 1), cap=2**12)


def test_asw_classes_work_is_capped():
    # candidates x multipliers x correction vectors: 6 x 2 x 64 = 768 in the
    # first round, 6 x 2 x 256 = 3072 in the second
    par = params(2, 1, 1, 5, 2)
    assert oracle_asw_classes_detail(par, cap=3072).rounds == 2
    with pytest.raises(CapExceededError, match="3072"):
        oracle_asw_classes_detail(par, cap=1000)
    with pytest.raises(CapExceededError, match="768"):
        oracle_asw_classes_detail(par, cap=700)


def test_asw_classes_rejects_large_n():
    with pytest.raises(ValueError):
        oracle_asw_classes(params(2, 1, 1, 3, 4))


def test_ln1_bounds_oracle_growth():
    # the number of n-classes over a fixed (n-1)-class is at most
    # (1 + w(alpha))/p; checked on the saturated oracle counts
    for alpha in (3, 4, 5):
        delta = (alpha - 1) // 2 + 1
        upper = oracle_asw_classes(params(2, 1, 1, delta, 1))
        total = oracle_asw_classes(params(2, 1, 1, alpha, 2))
        if upper:
            assert total <= upper * ln1_bound(params(2, 1, 1, alpha, 1))


# -- report records --

def test_report_pass_fail_semantics():
    rec = VerificationReport.compare("x", {}, 3, 3)
    assert rec.passed() and rec.status == "pass"
    rec = VerificationReport.compare("x", {}, 3, 4)
    assert not rec.passed() and rec.status == "fail"
    rec = VerificationReport.skipped("x", {}, "cap")
    assert rec.status == "skipped" and not rec.passed()


def test_params_validation():
    with pytest.raises(ValueError):
        CountParams(2, 1, 1, 0, 1)
    with pytest.raises(ValueError):
        CountParams(2, 1, 0, 1, 1)
    assert CountParams(2, 2, 1, 1, 1).q == 4
    # p must be a prime <= MAX_CHARACTERISTIC, as for field(p)
    for p in (4, 0, 1, 9, -2):
        with pytest.raises(ValueError, match=f"characteristic {p} is not prime"):
            CountParams(p, 1, 1, 3, 1)
    with pytest.raises(ValueError, match="exceeds bound"):
        CountParams(2**41 + 1, 1, 1, 3, 1)


def test_params_budget_counts_the_length():
    # (d*alpha*s + n) * ceil(log2 p) bits: s_n and v_n build powers up to p^n
    assert CountParams(2, 1, 1, 2, MAX_COUNT_BITS - 2).n == MAX_COUNT_BITS - 2
    with pytest.raises(CapExceededError):
        CountParams(2, 1, 1, 2, MAX_COUNT_BITS - 1)
    with pytest.raises(CapExceededError):
        CountParams(3, 1, 1, 1, MAX_COUNT_BITS // 2)
