"""The verification grid: every identity and oracle comparison, as records.

This is the single source the CLI ``verify-all`` command and the acceptance
test suite both run.  Oracle comparisons produce one record per grid point;
identity sweeps produce one aggregate record per family, whose formula
field holds the instance count and whose oracle field holds the number of
instances that passed (so the record passes exactly when all did).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

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
    DEFAULT_SATURATION_ROUNDS,
    NotStabilizedError,
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
    saturation_rounds: int = DEFAULT_SATURATION_ROUNDS
    seed: int = 0
    timing: bool = False

    def clock(self):
        return time.perf_counter() if self.timing else None


def _aggregate(check_id, params, instances, failures, cfg, started, notes=()):
    rec = VerificationReport.compare(
        check_id, params, instances, instances - len(failures), started=started,
        identity_checks=tuple(notes),
    )
    if failures:
        rec.identity_checks += tuple((f"fail:{f}", False) for f in failures[:5])
        rec.status = "fail"
    return rec


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
                    check_id = f"c01-cyclic/q{q}/d{d}/a{alpha}/n{n}"
                    if q ** (d * alpha) > cfg.cap:
                        out.append(VerificationReport.skipped(check_id, par.as_dict(), "cap"))
                        continue
                    started = cfg.clock()
                    out.append(VerificationReport.compare(
                        check_id, par.as_dict(), v_n(par),
                        oracle_cyclic_subgroups(par, cap=cfg.cap), started=started))
    return out


# -- criterion 2: degree-p classes and the t1 = v1 identity --

def checks_degree_p_classes(cfg: CheckConfig):
    out = []
    for p, s in ((2, 1), (3, 1)):
        q = p**s
        for alpha in range(1, 7):
            par = CountParams(p, s, 1, alpha, 1)
            check_id = f"c02-asclasses/q{q}/a{alpha}"
            started = cfg.clock()
            try:
                oracle = oracle_as_classes(par, cap=cfg.cap)
            except CapExceededError as exc:
                out.append(VerificationReport.skipped(check_id, par.as_dict(), str(exc)))
                continue
            formula = t1(alpha, par)
            out.append(VerificationReport.compare(
                check_id, par.as_dict(), formula, oracle, started=started,
                identity_checks=(("t1-equals-v1", formula == v_n(par)),)))
    return out


def checks_t1_identity(cfg: CheckConfig):
    out = []
    for p, s in QS_WIDE:
        q = p**s
        for d in (1, 2, 3):
            started = cfg.clock()
            failures = []
            for alpha in range(1, 201):
                par = CountParams(p, s, d, alpha, 1)
                try:
                    t1(alpha, par)
                except AssertionError:
                    failures.append(f"alpha={alpha}")
            out.append(_aggregate(f"c02-t1v1/q{q}/d{d}", {"q": q, "d": d, "alpha": "1..200"},
                                  200, failures, cfg, started))
    return out


# -- criterion 3: length-n classes by saturation --

def checks_asw_class_oracle(cfg: CheckConfig):
    out = []
    p, s, d, n = 2, 1, 1, 2
    for alpha in (2, 3, 4, 5):
        par = CountParams(p, s, d, alpha, n)
        check_id = f"c03-aswclasses/q2/a{alpha}/n2"
        started = cfg.clock()
        try:
            detail = oracle_asw_classes_detail(par, cap=cfg.cap,
                                               max_rounds=cfg.saturation_rounds)
        except (CapExceededError, NotStabilizedError) as exc:
            out.append(VerificationReport.skipped(check_id, par.as_dict(), str(exc)))
            continue
        except Exception as exc:  # an oracle fault is a failure, never a skip
            out.append(VerificationReport.compare(
                check_id, par.as_dict(), v_n(par), None, started=started,
                identity_checks=((f"error:{type(exc).__name__}: {exc}", False),)))
            continue
        notes = [("stabilized-within-3-rounds", detail.rounds <= 3)]
        if alpha == 3:
            notes.append(("exactly-2-candidates", detail.candidates == 2))
        out.append(VerificationReport.compare(
            check_id, par.as_dict(), v_n(par), detail.count, started=started,
            identity_checks=tuple(notes)))
    return out


# -- criterion 4: the product identity for s_n --

def checks_s_n_identity(cfg: CheckConfig):
    out = []
    for p, s in QS_WIDE:
        q = p**s
        for d in (1, 2, 3):
            started = cfg.clock()
            failures = []
            count = 0
            for n in (1, 2, 3, 4):
                for alpha in range(1, 201):
                    count += 1
                    try:
                        s_n(CountParams(p, s, d, alpha, n))
                    except AssertionError:
                        failures.append(f"n={n},alpha={alpha}")
            out.append(_aggregate(f"c04-sn/q{q}/d{d}", {"q": q, "d": d, "n": "1..4",
                                                        "alpha": "1..200"},
                                  count, failures, cfg, started))
    return out


# -- criterion 5: the ratio identity --

def checks_ratio_identity(cfg: CheckConfig):
    out = []
    for p, s in QS_WIDE:
        q = p**s
        for d in (1, 2, 3):
            started = cfg.clock()
            failures = []
            count = 0
            vacuous = 0
            for n in (2, 3, 4):
                for alpha in range(1, 201):
                    try:
                        ratio_check(CountParams(p, s, d, alpha, n))
                        count += 1
                    except ZeroDivisionError:
                        vacuous += 1
                    except AssertionError:
                        count += 1
                        failures.append(f"n={n},alpha={alpha}")
            out.append(_aggregate(f"c05-ratio/q{q}/d{d}", {"q": q, "d": d},
                                  count, failures, cfg, started,
                                  notes=((f"vacuous:{vacuous}", True),)))
    return out


# -- criterion 6: floor/ceil lemmas --

def checks_floor_ceil_lemmas(cfg: CheckConfig):
    out = []
    for p in (2, 3, 5):
        started = cfg.clock()
        failures = []
        count = 0
        for alpha in range(-1000, 1001):
            for s in range(1, 11):
                count += 2
                try:
                    lemma42_floor(alpha, s, p)
                    lemma42_ceil(alpha, s, p)
                except AssertionError:
                    failures.append(f"alpha={alpha},s={s}")
        out.append(_aggregate(f"c06-lemma42/p{p}", {"p": p, "alpha": "-1000..1000",
                                                    "s": "1..10"},
                              count, failures, cfg, started))
    return out


# -- criterion 7: Witt ring laws --

def checks_witt_ghost_symbolic(cfg: CheckConfig):
    out = []
    for p in (2, 3):
        for n in (1, 2, 3):
            started = cfg.clock()
            ok = witt_tables(p, n).verify_ghost_compatibility()
            out.append(VerificationReport.compare(
                f"c07-ghost/p{p}/n{n}", {"p": p, "n": n}, True, ok, started=started))
    return out


def _random_fq_vector(rng, fld, n):
    return WittVector(fld.p, tuple(fld.elem(rng.randrange(fld.q)) for _ in range(n)))


def _random_rf(rng, fld, max_deg=2):
    num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(max_deg + 1))])
    den = Polynomial.zero(fld)
    while den.is_zero():
        den = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, max_deg + 2))])
    return RationalFunction(num, den)


def checks_witt_ring_laws(cfg: CheckConfig, triples=1000):
    out = []
    domains = [
        ("F2/n3", field(2, 1), 3, _random_fq_vector),
        ("F4/n3", field(2, 2), 3, _random_fq_vector),
        ("F9/n3", field(3, 2), 3, _random_fq_vector),
        ("F2T/n2", field(2, 1), 2,
         lambda rng, fld, n: WittVector(fld.p, tuple(_random_rf(rng, fld) for _ in range(n)))),
    ]
    for name, fld, n, make in domains:
        rng = random.Random(f"{cfg.seed}/{name}")  # str seeding is stable across runs
        started = cfg.clock()
        failures = []
        zero = None
        for k in range(triples):
            x, y, z = make(rng, fld, n), make(rng, fld, n), make(rng, fld, n)
            if zero is None:
                zero = x.zero_like()
            laws = (
                x.add(y) == y.add(x)
                and x.add(y.add(z)) == x.add(y).add(z)
                and x.add(zero) == x
                and x.add(x.neg()) == zero
                and x.mul(y) == y.mul(x)
                and x.mul(y.mul(z)) == x.mul(y).mul(z)
                and x.mul(y.add(z)) == x.mul(y).add(x.mul(z))
                and x.add(y).wp() == x.wp().add(y.wp())
            )
            if not laws:
                failures.append(f"triple#{k}")
        out.append(_aggregate(f"c07-ringlaws/{name}", {"domain": name, "triples": triples},
                              triples, failures, cfg, started))
    return out


# -- criterion 8: normalizer certificates --

def _random_generator(rng, fld, n, max_order=12):
    """Random length-n vector with poles at small primes, orders <= max_order."""
    from .polys import monic_irreducibles

    primes = monic_irreducibles(fld, 1)[:2] + monic_irreducibles(fld, 2)[:1]
    comps = []
    for _ in range(n):
        den = Polynomial.one(fld)
        budget = max_order
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


def checks_normalizer_certificates(cfg: CheckConfig, count=500):
    out = []
    per_field = count // 3 + 1
    for p, s in QS_SMALL:
        fld = field(p, s)
        rng = random.Random(cfg.seed * 7919 + fld.q)
        started = cfg.clock()
        failures = []
        done = 0
        for k in range(per_field):
            n = 1 + k % 3
            gen = _random_generator(rng, fld, n)
            try:
                nf = witt_normalize(gen)
                nf.validate()
                ok = nf.certificate_holds() and is_normal_form(nf.normalized_beta)
                again = witt_normalize(AswGenerator(nf.normalized_beta))
                ok = ok and again.certificate.is_zero() \
                    and again.normalized_beta == nf.normalized_beta
            except Exception:
                ok = False
            done += 1
            if not ok:
                failures.append(f"gen#{k}/n{n}")
        out.append(_aggregate(f"c08-normcert/q{fld.q}", {"q": fld.q, "count": done},
                              done, failures, cfg, started))
    return out


# -- criterion 9: conductor formula and exact-conductor counts --

def checks_conductor(cfg: CheckConfig):
    out = []
    for p in (2, 3, 5):
        started = cfg.clock()
        failures = []
        count = 0
        valid = [0] + [lam for lam in range(1, 21) if lam % p]
        first = [lam for lam in valid if lam]
        for n in (1, 2, 3, 4):
            def grids(level):
                if level == n:
                    yield ()
                    return
                for lam in (first if level == 0 else valid):
                    for rest in grids(level + 1):
                        yield (lam,) + rest
            for lams in grids(0):
                count += 1
                try:
                    conductor_exponent(lams, p)  # compares closed form vs recursion
                except AssertionError:
                    failures.append(str(lams))
        out.append(_aggregate(f"c09-conductor/p{p}", {"p": p, "entries": "<=20", "n": "1..4"},
                              count, failures, cfg, started))

    for p, s in ((2, 1), (3, 1)):
        q = p**s
        par = CountParams(p, s, 1, 6, 1)
        check_id = f"c09-exact-conductor/q{q}"
        if q**5 > cfg.cap:
            out.append(VerificationReport.skipped(check_id, par.as_dict(), "cap"))
            continue
        started = cfg.clock()
        fld = field(p, s)
        prime = canonical_prime(fld, 1)
        by_lam = oracle_as_classes_by_conductor(par, cap=cfg.cap)
        expected = {}
        notes = []
        for lam in range(1, 6):
            if lam % p == 0:
                continue
            expected[lam], rem = divmod(phi(prime ** (lam - lam // p)), p - 1)
            if rem:
                notes.append((f"lam{lam}-phi-divisible-by-p-1", False))
        notes += [(f"lam{lam}", by_lam.get(lam, 0) == expected[lam]) for lam in expected]
        notes.append(("no-p-divisible-conductors",
                      all(lam % p for lam in by_lam)))
        out.append(VerificationReport.compare(
            check_id, par.as_dict(), sum(expected.values()), sum(by_lam.values()),
            started=started, identity_checks=tuple(notes)))
    return out


# -- criterion 10: infinite-place classifier --

def _normal_pole_part(rng, fld, prime, lam):
    num = Polynomial.zero(fld)
    while num.is_zero() or num.gcd(prime).degree > 0:
        num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(lam * prime.degree)])
    return RationalFunction(num, prime**lam)


def checks_infinity_classifier(cfg: CheckConfig):
    from .counting import _coprime_numerators

    out = []
    started = cfg.clock()
    failures = []
    count = 0
    # every n=1 normal form with conductor dividing P^6 (the criterion-2
    # grid), extended by each non-image constant and a polynomial part
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
                    count += 1
                    nf = witt_normalize(AswGenerator(WittVector(p, (beta,))))
                    got = infinity_behavior(nf).label
                    if got != expected:
                        failures.append(f"q{fld.q}/lam{lam}:{got}!={expected}")
    out.append(_aggregate("c10-trichotomy", {"grid": "criterion-2 extended"},
                          count, failures, cfg, started))

    started = cfg.clock()
    failures = []
    total = 1000
    for k in range(total):
        p, s = ((2, 1), (3, 1), (2, 2))[k % 3]
        fld = field(p, s)
        rng = random.Random(cfg.seed * 31 + k)
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
        nf = witt_normalize(AswGenerator(WittVector(p, tuple(comps))))
        b = infinity_behavior(nf)
        if b.e * b.f * b.g != p**n:
            failures.append(f"form#{k}")
    out.append(_aggregate("c10-efg-product", {"forms": total}, total, failures, cfg, started))
    return out


# -- criterion 11: Carlitz identities --

def checks_carlitz(cfg: CheckConfig):
    out = []
    for p, s in QS_SMALL:
        fld = field(p, s)
        q = fld.q
        polys = list(polys_below(fld, 4))[1:]  # every nonzero M of degree <= 3

        started = cfg.clock()
        failures = []
        for m in polys:
            try:
                carlitz_poly(m)  # constructor asserts shape/degree/derivative data
            except AssertionError:
                failures.append(str(m))
        out.append(_aggregate(f"c11-shape/q{q}", {"q": q, "deg": "<=3"},
                              len(polys), failures, cfg, started))

        started = cfg.clock()
        failures = []
        count = 0
        for i, m in enumerate(polys):
            for n in polys[i:]:
                count += 1
                if not carlitz_compose_check(m, n):
                    failures.append(f"{m};{n}")
        out.append(_aggregate(f"c11-compose/q{q}", {"q": q, "pairs": count},
                              count, failures, cfg, started))

        started = cfg.clock()
        failures = []
        count = 0
        for i, m in enumerate(polys):
            for n in polys[i:]:
                count += 1
                if not carlitz_gcd_check(m, n):
                    failures.append(f"{m};{n}")
        out.append(_aggregate(f"c11-gcd/q{q}", {"q": q, "pairs": count},
                              count, failures, cfg, started))
    return out


# -- supporting identities surfaced in verify-all --

def checks_supporting(cfg: CheckConfig):
    out = []
    started = cfg.clock()
    failures = []
    count = 0
    for p, s in ((2, 1), (3, 1)):
        for d in (1, 2):
            for r in range(1, 13):
                for s_top in range(r, 13):
                    count += 1
                    try:
                        telescoped_phi_sum(CountParams(p, s, d, 1, 1), r, s_top)
                    except AssertionError:
                        failures.append(f"q{p**s}/d{d}/r{r}/s{s_top}")
    out.append(_aggregate("c12-phi-telescope", {"r<=s": "<=12"}, count, failures, cfg, started))

    started = cfg.clock()
    failures = []
    count = 0
    for p, s in QS_WIDE:
        for d in (1, 2):
            for alpha in range(2, 30):
                count += 1
                try:
                    ln1_bound(CountParams(p, s, d, alpha, 1))
                except (AssertionError, ValueError):
                    failures.append(f"q{p**s}/d{d}/a{alpha}")
    out.append(_aggregate("c12-ln1-bound", {"alpha": "2..29"}, count, failures, cfg, started))
    return out


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


def run_all_checks(cfg: CheckConfig = None):
    cfg = cfg or CheckConfig()
    records = []
    for _, group in ALL_CHECK_GROUPS:
        records.extend(group(cfg))
    return records
