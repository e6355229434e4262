"""The verification grid: every identity and oracle comparison, as records.

This is the single source the CLI ``verify-all`` command and the acceptance
test suite both run.  Oracle comparisons produce one record per grid point;
identity sweeps produce one aggregate record per family, whose formula
field holds the instance count and whose oracle field holds the number of
instances that passed (so the record passes exactly when all did).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import partial

from .asw import (
    AswGenerator,
    conductor_exponent,
    infinity_behavior,
    is_normal_form,
    witt_normalize,
)
from .carlitz import carlitz_compose_check, carlitz_gcd_check, carlitz_poly
from .counting import (
    CountParams,
    VerificationReport,
    ln1_bound,
    lemma42_ceil,
    lemma42_floor,
    oracle_as_classes,
    oracle_as_classes_by_conductor,
    oracle_asw_classes_detail,
    oracle_cyclic_subgroups,
    ratio_check,
    s_n,
    t1,
    telescoped_phi_sum,
    v_n,
)
from .fields import field
from .polys import CapExceededError, DEFAULT_ENUM_CAP, Polynomial, canonical_prime, phi, polys_below
from .rationals import RationalFunction
from .witt import WittVector, witt_tables

ORACLE_GRID_LIMIT = 2**20  # the oracle grids are defined up to this ring size


@dataclass
class CheckConfig:
    cap: int = DEFAULT_ENUM_CAP
    seed: int = 0
    timing: bool = False

    def clock(self):
        return time.perf_counter() if self.timing else None


_VACUOUS = object()  # a sweep case with nothing to compare; left out of the count


def _sweep(check_id, params, cfg, cases):
    """One aggregate record over ``cases``, pairs (label, check) of a label
    ``(template, *args)`` and a zero-argument callable.  A case fails when its
    check returns False or raises; one returning ``_VACUOUS`` is tallied in a
    ``vacuous:N`` note instead of being counted.  The record names its first
    five failures, with the exception of a case that raised; only their
    labels are formatted, by ``template.format(*args)``.  Building the cases
    over its cap makes the record ``skipped``, as in :func:`_oracle`, unless
    a case has already failed: then it fails with a ``cap:`` note.  Any other
    exception fails it with an ``error:`` note."""
    started = cfg.clock()
    count = vacuous = failed = 0
    failures, notes = [], []
    try:
        for label, check in cases:
            error = None
            try:
                result = check()
            except Exception as exc:  # a raising check fails its case; the sweep goes on
                result, error = False, exc
            if result is _VACUOUS:
                vacuous += 1
                continue
            count += 1
            if result is False:
                failed += 1
                if failed <= 5:
                    text = label[0].format(*label[1:])
                    failures.append(text if error is None
                                    else f"{text} {type(error).__name__}: {error}")
    except CapExceededError as exc:  # raised by ``cases`` itself
        if not failed:
            return VerificationReport.skipped(check_id, params, str(exc))
        notes.append((f"cap:{exc}", False))
    except Exception as exc:
        notes.append((f"error:{type(exc).__name__}: {exc}", False))
    if vacuous:
        notes.append((f"vacuous:{vacuous}", True))
    notes += [(f"fail:{f}", False) for f in failures]
    return VerificationReport.compare(check_id, params, count, count - failed,
                                      started=started, identity_checks=notes)


def _oracle(check_id, params, cfg, compare):
    """One formula-vs-oracle record from ``compare() -> (formula, oracle, notes)``.

    An oracle over its cap gives a ``skipped`` record; any other exception is
    a failure, never a skip."""
    started = cfg.clock()
    try:
        formula, oracle, notes = compare()
    except CapExceededError as exc:
        return VerificationReport.skipped(check_id, params, str(exc))
    except Exception as exc:
        formula, oracle, notes = None, None, ((f"error:{type(exc).__name__}: {exc}", False),)
    return VerificationReport.compare(check_id, params, formula, oracle, started=started,
                                      identity_checks=notes)


QS_SMALL = ((2, 1), (3, 1), (2, 2))  # q in {2, 3, 4}
QS_WIDE = ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2))  # q in {2, 3, 4, 8, 9}


# -- criterion 1: cyclic subgroup counts vs full unit enumeration --

def checks_cyclic_subgroup_oracle(cfg: CheckConfig):
    out = []
    for p, s in QS_SMALL:
        q = p**s
        for d in (1, 2):
            for alpha in range(1, 7):
                if q ** (d * alpha) > ORACLE_GRID_LIMIT:
                    continue
                for n in (1, 2, 3):
                    par = CountParams(p, s, d, alpha, n)
                    out.append(_oracle(
                        f"c01-cyclic/q{q}/d{d}/a{alpha}/n{n}", par.as_dict(), cfg,
                        lambda: (v_n(par), oracle_cyclic_subgroups(par, cap=cfg.cap), ())))
    return out


# -- criterion 2: degree-p classes and the t1 = v1 identity --

def _degree_p_classes(par, cap):
    oracle = oracle_as_classes(par, cap=cap)
    formula = t1(par.alpha, par)
    return formula, oracle, (("t1-equals-v1", formula == v_n(par)),)


def checks_degree_p_classes(cfg: CheckConfig):
    out = []
    for p, s in ((2, 1), (3, 1)):
        for alpha in range(1, 7):
            par = CountParams(p, s, 1, alpha, 1)
            out.append(_oracle(f"c02-asclasses/q{p**s}/a{alpha}", par.as_dict(), cfg,
                               partial(_degree_p_classes, par, cfg.cap)))
    return out


def checks_t1_identity(cfg: CheckConfig):
    out = []
    for p, s in QS_WIDE:
        for d in (1, 2, 3):
            cases = ((("alpha={}", alpha), partial(t1, alpha, CountParams(p, s, d, alpha, 1)))
                     for alpha in range(1, 201))
            out.append(_sweep(f"c02-t1v1/q{p**s}/d{d}", {"q": p**s, "d": d, "alpha": "1..200"},
                              cfg, cases))
    return out


# -- criterion 3: length-n classes by saturation --

def _asw_classes(par, cap):
    detail = oracle_asw_classes_detail(par, cap=cap)
    notes = [("stabilized-within-3-rounds", detail.rounds <= 3)]
    if par.alpha == 3:
        notes.append(("exactly-2-candidates", detail.candidates == 2))
    return v_n(par), detail.count, notes


def checks_asw_class_oracle(cfg: CheckConfig):
    out = []
    for alpha in (2, 3, 4, 5):
        par = CountParams(2, 1, 1, alpha, 2)
        out.append(_oracle(f"c03-aswclasses/q2/a{alpha}/n2", par.as_dict(), cfg,
                           partial(_asw_classes, par, cfg.cap)))
    return out


# -- criterion 4: the product identity for s_n --

def checks_s_n_identity(cfg: CheckConfig):
    out = []
    for p, s in QS_WIDE:
        for d in (1, 2, 3):
            cases = ((("n={},alpha={}", n, alpha), partial(s_n, CountParams(p, s, d, alpha, n)))
                     for n in (1, 2, 3, 4) for alpha in range(1, 201))
            out.append(_sweep(f"c04-sn/q{p**s}/d{d}",
                              {"q": p**s, "d": d, "n": "1..4", "alpha": "1..200"}, cfg, cases))
    return out


# -- criterion 5: the ratio identity --

def _ratio_case(par):
    try:
        return ratio_check(par)
    except ZeroDivisionError:  # v_(n-1)(delta) = 0: there is no ratio to compare
        return _VACUOUS


def checks_ratio_identity(cfg: CheckConfig):
    out = []
    for p, s in QS_WIDE:
        for d in (1, 2, 3):
            cases = ((("n={},alpha={}", n, alpha),
                      partial(_ratio_case, CountParams(p, s, d, alpha, n)))
                     for n in (2, 3, 4) for alpha in range(1, 201))
            out.append(_sweep(f"c05-ratio/q{p**s}/d{d}", {"q": p**s, "d": d}, cfg, cases))
    return out


# -- criterion 6: floor/ceil lemmas --

def checks_floor_ceil_lemmas(cfg: CheckConfig):
    out = []
    for p in (2, 3, 5):
        cases = ((("alpha={},s={}", alpha, s), partial(lemma, alpha, s, p))
                 for alpha in range(-1000, 1001) for s in range(1, 11)
                 for lemma in (lemma42_floor, lemma42_ceil))
        out.append(_sweep(f"c06-lemma42/p{p}", {"p": p, "alpha": "-1000..1000", "s": "1..10"},
                          cfg, cases))
    return out


# -- criterion 7: Witt ring laws --

def checks_witt_ghost_symbolic(cfg: CheckConfig):
    return [_oracle(f"c07-ghost/p{p}/n{n}", {"p": p, "n": n}, cfg,
                    lambda: (True, witt_tables(p, n).verify_ghost_compatibility(), ()))
            for p in (2, 3) for n in (1, 2, 3)]


def _random_fq_vector(rng, fld, n):
    return WittVector(fld.p, tuple(fld.elem(rng.randrange(fld.q)) for _ in range(n)))


def _random_rf(rng, fld):
    """Random numerator and nonzero denominator, each of degree <= 2."""
    num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(3))])
    den = Polynomial.zero(fld)
    while den.is_zero():
        den = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 4))])
    return RationalFunction(num, den)


def _ring_laws_hold(x, y, z):
    zero = x.zero_like()
    return (
        x.add(y) == y.add(x)
        and x.add(y.add(z)) == x.add(y).add(z)
        and x.add(zero) == x
        and x.add(x.neg()) == zero
        and x.mul(y) == y.mul(x)
        and x.mul(y.mul(z)) == x.mul(y).mul(z)
        and x.mul(y.add(z)) == x.mul(y).add(x.mul(z))
        and x.add(y).wp() == x.wp().add(y.wp())
    )


def checks_witt_ring_laws(cfg: CheckConfig):
    out, triples = [], 1000
    domains = [
        ("F2/n3", field(2, 1), 3, _random_fq_vector),
        ("F4/n3", field(2, 2), 3, _random_fq_vector),
        ("F9/n3", field(3, 2), 3, _random_fq_vector),
        ("F2T/n2", field(2, 1), 2,
         lambda rng, fld, n: WittVector(fld.p, tuple(_random_rf(rng, fld) for _ in range(n)))),
    ]
    for name, fld, n, make in domains:
        rng = random.Random(f"{cfg.seed}/{name}")  # str seeding is stable across runs
        cases = ((("triple#{}", k),
                  partial(_ring_laws_hold, *(make(rng, fld, n) for _ in range(3))))
                 for k in range(triples))
        out.append(_sweep(f"c07-ringlaws/{name}", {"domain": name, "triples": triples},
                          cfg, cases))
    return out


# -- criterion 8: normalizer certificates --

def _random_generator(rng, fld, n):
    """Random length-n vector with poles at small primes, orders <= 12."""
    from .polys import monic_irreducibles

    primes = monic_irreducibles(fld, 1)[:2] + monic_irreducibles(fld, 2)[:1]
    comps = []
    for _ in range(n):
        den = Polynomial.one(fld)
        budget = 12
        for p_ in primes:
            if rng.random() < 0.5:
                continue
            e = rng.randrange(1, max(2, budget // p_.degree // 2 + 1))
            den = den * p_**e
            budget -= e * p_.degree
        num_deg = den.degree + rng.randrange(0, 4)
        num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(num_deg + 1)])
        comps.append(RationalFunction(num, den))
    return AswGenerator(WittVector(fld.p, tuple(comps)))


def _certificate_holds(gen):
    nf = witt_normalize(gen)  # validated on return
    again = witt_normalize(AswGenerator(nf.normalized_beta))
    return (nf.certificate_holds() and is_normal_form(nf.normalized_beta)
            and again.certificate.is_zero() and again.normalized_beta == nf.normalized_beta)


def checks_normalizer_certificates(cfg: CheckConfig):
    out = []
    per_field = 167  # about 500 generators over the three fields
    for p, s in QS_SMALL:
        fld = field(p, s)
        rng = random.Random(cfg.seed * 7919 + fld.q)
        cases = ((("gen#{}/n{}", k, 1 + k % 3),
                  partial(_certificate_holds, _random_generator(rng, fld, 1 + k % 3)))
                 for k in range(per_field))
        out.append(_sweep(f"c08-normcert/q{fld.q}", {"q": fld.q, "count": per_field},
                          cfg, cases))
    return out


# -- criterion 9: conductor formula and exact-conductor counts --

def _conductor_grid(p, n):
    """Every lambda tuple of length n with entries <= 20 coprime to p (or 0
    past the first)."""
    valid = [0] + [lam for lam in range(1, 21) if lam % p]
    return itertools.product(valid[1:], *[valid] * (n - 1))


def _exact_conductor_counts(par, cap):
    p = par.p
    prime = canonical_prime(field(p, par.s), 1)
    by_lam = oracle_as_classes_by_conductor(par, cap=cap)
    expected = {}
    notes = []
    for lam in range(1, 6):
        if lam % p == 0:
            continue
        expected[lam], rem = divmod(phi(prime ** (lam - lam // p)), p - 1)
        if rem:
            notes.append((f"lam{lam}-phi-divisible-by-p-1", False))
    notes += [(f"lam{lam}", by_lam.get(lam, 0) == expected[lam]) for lam in expected]
    notes.append(("no-p-divisible-conductors", all(lam % p for lam in by_lam)))
    return sum(expected.values()), sum(by_lam.values()), notes


def checks_conductor(cfg: CheckConfig):
    out = []
    for p in (2, 3, 5):
        # conductor_exponent compares its closed form with the recursion
        cases = ((("{}", lams), partial(conductor_exponent, lams, p))
                 for n in (1, 2, 3, 4) for lams in _conductor_grid(p, n))
        out.append(_sweep(f"c09-conductor/p{p}", {"p": p, "entries": "<=20", "n": "1..4"},
                          cfg, cases))
    for p, s in ((2, 1), (3, 1)):
        par = CountParams(p, s, 1, 6, 1)
        out.append(_oracle(f"c09-exact-conductor/q{p**s}", par.as_dict(), cfg,
                           partial(_exact_conductor_counts, par, cfg.cap)))
    return out


# -- criterion 10: infinite-place classifier --

def _normal_pole_part(rng, fld, prime, lam):
    num = Polynomial.zero(fld)
    while num.is_zero() or num.gcd(prime).degree > 0:
        num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(lam * prime.degree)])
    return RationalFunction(num, prime**lam)


def _infinity_label_is(beta, expected):
    nf = witt_normalize(AswGenerator(WittVector(beta.field.p, (beta,))))
    return infinity_behavior(nf).label == expected


def _trichotomy_cases(cfg):
    """Every n=1 normal form with conductor dividing P^6 (the criterion-2
    grid), extended by each non-image constant and a polynomial part."""
    from .counting import _coprime_numerators

    for p, s in ((2, 1), (3, 1)):
        fld = field(p, s)
        prime = canonical_prime(fld, 1)
        rng = random.Random(cfg.seed + fld.q)
        for lam in range(1, 6):
            if lam % p == 0:
                continue
            for q_num in _coprime_numerators(fld, prime, lam, cfg.cap):
                frac = RationalFunction(q_num, prime**lam)
                cases = [(frac, "decomposed")]
                for c in range(1, fld.q):
                    if not fld.in_wp_image_val(c):
                        cases.append((frac + RationalFunction.const(fld, c), "inert"))
                poly = Polynomial(fld, [rng.randrange(fld.q), 1])  # degree 1, coprime to p
                cases.append((frac + RationalFunction(poly), "ramified"))
                for beta, expected in cases:
                    yield (("q{}/lam{}:{} not {}", fld.q, lam, beta, expected),
                           partial(_infinity_label_is, beta, expected))


def _efg_product_holds(seed, k):
    p, s = ((2, 1), (3, 1), (2, 2))[k % 3]
    fld = field(p, s)
    rng = random.Random(seed * 31 + k)
    n = 1 + k % 3
    prime = canonical_prime(fld, 1)
    comps = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            comps.append(RationalFunction.zero(fld))
        elif kind == 1:
            nonwp = [c for c in range(1, fld.q) if not fld.in_wp_image_val(c)]
            comps.append(RationalFunction.const(fld, rng.choice(nonwp)) if nonwp
                         else RationalFunction.zero(fld))
        elif kind == 2:
            deg = rng.choice([d_ for d_ in range(1, 5) if d_ % p])
            comps.append(RationalFunction(Polynomial(
                fld, [rng.randrange(fld.q) for _ in range(deg)] + [rng.randrange(1, fld.q)])))
        else:
            lam = rng.choice([l_ for l_ in range(1, 6) if l_ % p])
            comps.append(_normal_pole_part(rng, fld, prime, lam))
    b = infinity_behavior(witt_normalize(AswGenerator(WittVector(p, tuple(comps)))))
    return b.e * b.f * b.g == p**n


def checks_infinity_classifier(cfg: CheckConfig):
    total = 1000
    return [
        _sweep("c10-trichotomy", {"grid": "criterion-2 extended"}, cfg, _trichotomy_cases(cfg)),
        _sweep("c10-efg-product", {"forms": total}, cfg,
               ((("form#{}", k), partial(_efg_product_holds, cfg.seed, k)) for k in range(total))),
    ]


# -- criterion 11: Carlitz identities --

def checks_carlitz(cfg: CheckConfig):
    out = []
    for p, s in QS_SMALL:
        q = p**s
        polys = list(polys_below(field(p, s), 4))[1:]  # every nonzero M of degree <= 3
        pairs = [(m, n) for i, m in enumerate(polys) for n in polys[i:]]
        # the constructor asserts shape/degree/derivative data
        out.append(_sweep(f"c11-shape/q{q}", {"q": q, "deg": "<=3"}, cfg,
                          ((("{}", m), partial(carlitz_poly, m)) for m in polys)))
        for name, check in (("compose", carlitz_compose_check), ("gcd", carlitz_gcd_check)):
            out.append(_sweep(f"c11-{name}/q{q}", {"q": q, "pairs": len(pairs)}, cfg,
                              ((("{};{}", m, n), partial(check, m, n)) for m, n in pairs)))
    return out


# -- supporting identities surfaced in verify-all --

def checks_supporting(cfg: CheckConfig):
    telescope = ((("q{}/d{}/r{}/s{}", p**s, d, r, s_top),
                  partial(telescoped_phi_sum, CountParams(p, s, d, 1, 1), r, s_top))
                 for p, s in ((2, 1), (3, 1)) for d in (1, 2)
                 for r in range(1, 13) for s_top in range(r, 13))
    ln1 = ((("q{}/d{}/a{}", p**s, d, alpha), partial(ln1_bound, CountParams(p, s, d, alpha, 1)))
           for p, s in QS_WIDE for d in (1, 2) for alpha in range(2, 30))
    return [_sweep("c12-phi-telescope", {"r<=s": "<=12"}, cfg, telescope),
            _sweep("c12-ln1-bound", {"alpha": "2..29"}, cfg, ln1)]


ALL_CHECK_GROUPS = (
    ("criterion-1", checks_cyclic_subgroup_oracle),
    ("criterion-2-oracle", checks_degree_p_classes),
    ("criterion-2-identity", checks_t1_identity),
    ("criterion-3", checks_asw_class_oracle),
    ("criterion-4", checks_s_n_identity),
    ("criterion-5", checks_ratio_identity),
    ("criterion-6", checks_floor_ceil_lemmas),
    ("criterion-7-ghost", checks_witt_ghost_symbolic),
    ("criterion-7-laws", checks_witt_ring_laws),
    ("criterion-8", checks_normalizer_certificates),
    ("criterion-9", checks_conductor),
    ("criterion-10", checks_infinity_classifier),
    ("criterion-11", checks_carlitz),
    ("supporting", checks_supporting),
)
