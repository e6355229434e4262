"""Seeded workloads of the wittcount benchmark.

Each workload turns a seed into a fixed-size list of items and checks every
item by exact equality against an independent computation.  The seed picks
the contents of the items (primes, numerators, operands, order); the shape
of the list (how many items, of which sizes) is fixed per workload, so the
work in one pass varies little from seed to seed.

Library functions are called through their modules (``wc.v_n``, not a
name bound at import time), so the wrappers that ``tracing`` installs on
the wittcount modules see every call.
"""

from __future__ import annotations

import random
import time

import wittcount as wc
from wittcount import counting
from wittcount.polys import Polynomial
from wittcount.rationals import RationalFunction
from wittcount.witt import WittVector

FIELDS = ((2, 1), (3, 1), (2, 2))  # q in {2, 3, 4}

# -- enum-oracle: cyclic-subgroup and class oracles on residue rings --

# Rings F_q[T]/(P^alpha) of size q^(d*alpha) >= 2^12, as (p, s, d, alpha),
# each with a seeded prime P.  Two have 2^16 elements, so the per-element
# enumeration cost dominates the per-ring set-up.  The rest of the pass is
# the criterion-1 grid up to 2^10 elements with every monic irreducible P:
# the cost of a small ring depends on P by about 10%, and the seed must not
# move the item percentiles.
ENUM_LARGE_RINGS = (
    (2, 2, 2, 4), (2, 1, 1, 16),
    (3, 1, 2, 4), (3, 1, 1, 8), (2, 2, 1, 6), (2, 1, 2, 6), (2, 1, 1, 12),
)
ENUM_SMALL_RING_LIMIT = 2**10
AS_CLASSES_MAX_ALPHA = 5  # class oracle on d = 1 rings with alpha <= 5


def setup_enum_oracle(rng):
    # The rings keep one order for every seed, so each item's place in the
    # pass, and the state earlier items leave behind, does not change with
    # the seed.
    primes = {(p, s, d): wc.monic_irreducibles(wc.field(p, s), d)
              for p, s in FIELDS for d in (1, 2)}
    items = [("ring", p, s, d, alpha, rng.choice(primes[p, s, d]))
             for p, s, d, alpha in ENUM_LARGE_RINGS]
    for p, s in FIELDS:
        for d in (1, 2):
            for alpha in range(1, 7):
                if (p**s) ** (d * alpha) <= ENUM_SMALL_RING_LIMIT:
                    items += [("ring", p, s, d, alpha, prime) for prime in primes[p, s, d]]
    return items


def check_ring(item):
    _, p, s, d, alpha, prime = item
    ok = True
    found = []
    for n in (1, 2, 3):
        par = wc.CountParams(p, s, d, alpha, n)
        oracle = wc.oracle_cyclic_subgroups(par, prime=prime)
        ok = ok and oracle == wc.v_n(par)
        found.append(oracle)
    if d == 1 and alpha <= AS_CLASSES_MAX_ALPHA:
        par = wc.CountParams(p, s, 1, alpha, 1)
        classes = wc.oracle_as_classes(par, prime=prime)
        ok = ok and classes == wc.t1(alpha, par)
        by_lam = counting.oracle_as_classes_by_conductor(par, prime=prime)
        expected = {}
        for lam in range(1, alpha):
            if lam % p:
                count, rem = divmod(wc.phi(prime ** (lam - lam // p)), p - 1)
                ok = ok and rem == 0
                expected[lam] = count
        ok = ok and by_lam == expected
        found += [classes, sorted(by_lam.items())]
    return ok, f"q{p**s}/d{d}/a{alpha}/{prime}:{found}"


def ring_elements(item):
    """Ring size q^(d*alpha): the residues one unit enumeration walks."""
    _, p, s, d, alpha, _ = item
    return (p**s) ** (d * alpha)


# -- carlitz-grid: Carlitz composition and gcd identities --

# Pairs per pass for each field, weighted toward q = 4 as in criterion 11.
CARLITZ_PAIRS = {(2, 1): 60, (3, 1): 240, (2, 2): 1500}
CARLITZ_MAX_DEGREE = 3


def setup_carlitz_grid(rng):
    # The degrees of M and N come from a generator with a fixed seed, the
    # same for every workload seed (the cost of a pair grows with the
    # degrees); the workload seed picks the coefficients.
    shape = random.Random("carlitz-grid/shapes")
    items = []
    for (p, s), count in CARLITZ_PAIRS.items():
        fld = wc.field(p, s)
        polys = [Polynomial.from_int(fld, enc)
                 for enc in range(1, fld.q ** (CARLITZ_MAX_DEGREE + 1))]
        by_degree = {}
        for poly in polys:
            by_degree.setdefault(poly.degree, []).append(poly)

        def draw():
            return rng.choice(by_degree[shape.choice(polys).degree])

        items += [("pair", draw(), draw()) for _ in range(count)]
    rng.shuffle(items)
    return items


def check_pair(item):
    _, m, n = item
    compose = wc.carlitz_compose_check(m, n)
    gcd = wc.carlitz_gcd_check(m, n)
    return compose and gcd, f"q{m.field.q}:{m};{n}:{compose},{gcd}"


# -- witt-normalize: generator normal forms and Witt ring laws --

# Generators per pass for each (q, length n); the pole budget of the
# component at level i is POLE_BUDGET // p^(n-1-i), because a pole of
# order e at level i carries into level j with order about p^(j-i) * e.
# Small budgets keep every item short, so the pass total is steady.
GENERATORS_PER_LENGTH = {1: 120, 2: 75, 3: 45}
POLE_BUDGET = 6
MAX_POLY_PART_DEGREE = 3
# Ring-law triples per pass, as in criterion 7: F_q with n = 3, F_2(T) with n = 2.
LAW_DOMAINS = (("F2/n3", (2, 1), 3), ("F4/n3", (2, 2), 3), ("F9/n3", (3, 2), 3),
               ("F2T/n2", (2, 1), 2))
TRIPLES_PER_DOMAIN = 40
WITT_TABLES = tuple((p, n) for p in (2, 3) for n in (1, 2, 3))


def _random_generator(shape, rng, fld, n, deg1, deg2):
    """Length-n generator with poles at two of the degree-1 primes ``deg1``
    and one of the degree-2 primes ``deg2``.

    ``shape`` draws the pole orders and degrees, ``rng`` the primes and the
    coefficients.
    """
    p = fld.p
    primes = rng.sample(deg1, 2) + [rng.choice(deg2)]
    comps = []
    for level in range(n):
        budget = max(1, POLE_BUDGET // p ** (n - 1 - level))
        den = Polynomial.one(fld)
        left = budget
        for prime in primes:
            if left < prime.degree or shape.random() < 0.5:
                continue
            e = shape.randrange(1, left // prime.degree + 1)
            den = den * prime**e
            left -= e * prime.degree
        num_deg = den.degree + shape.randrange(min(budget, MAX_POLY_PART_DEGREE) + 1)
        num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(num_deg)]
                         + [rng.randrange(1, fld.q)])
        comps.append(RationalFunction(num, den))
    return wc.AswGenerator(WittVector(p, tuple(comps)))


def _random_rf(shape, rng, fld, max_deg=2):
    num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(shape.randrange(max_deg + 1))])
    den = Polynomial.zero(fld)
    while den.is_zero():
        den = Polynomial(fld, [rng.randrange(fld.q) for _ in range(shape.randrange(1, max_deg + 2))])
    return RationalFunction(num, den)


def _random_law_vector(shape, rng, name, fld, n):
    if name.startswith("F2T"):
        return WittVector(fld.p, tuple(_random_rf(shape, rng, fld) for _ in range(n)))
    return WittVector(fld.p, tuple(fld.elem(rng.randrange(fld.q)) for _ in range(n)))


def setup_witt_normalize(rng):
    # The shapes (pole orders, degrees) come from a generator with a fixed
    # seed, the same for every workload seed: the cost of normalising
    # depends mostly on the shape, so this keeps the work per pass steady.
    shape = random.Random("witt-normalize/shapes")
    items = []
    for p, s in FIELDS:
        fld = wc.field(p, s)
        deg1, deg2 = wc.monic_irreducibles(fld, 1), wc.monic_irreducibles(fld, 2)
        for n, count in GENERATORS_PER_LENGTH.items():
            items += [("generator", _random_generator(shape, rng, fld, n, deg1, deg2))
                      for _ in range(count)]
    for name, (p, s), n in LAW_DOMAINS:
        fld = wc.field(p, s)
        for _ in range(TRIPLES_PER_DOMAIN):
            items.append(("laws", name) + tuple(_random_law_vector(shape, rng, name, fld, n)
                                                for _ in range(3)))
    rng.shuffle(items)
    return items


def check_generator(item):
    gen = item[1]
    nf = wc.witt_normalize(gen)
    ok = nf.certificate_holds() and wc.is_normal_form(nf.normalized_beta)
    again = wc.witt_normalize(wc.AswGenerator(nf.normalized_beta))
    ok = ok and again.certificate.is_zero() and again.normalized_beta == nf.normalized_beta
    behavior = wc.infinity_behavior(nf)
    ok = ok and behavior.e * behavior.f * behavior.g == nf.p**nf.n
    return ok, f"{gen.beta}->{nf.normalized_beta};{nf.certificate};{behavior.label}"


def check_laws(item):
    _, name, x, y, z = item
    zero = x.zero_like()
    xy = x.add(y)
    xy_mul = x.mul(y)
    laws = (
        xy == y.add(x),
        x.add(y.add(z)) == xy.add(z),
        x.add(zero) == x,
        x.add(x.neg()) == zero,
        xy_mul == y.mul(x),
        x.mul(y.mul(z)) == xy_mul.mul(z),
        x.mul(y.add(z)) == xy_mul.add(x.mul(z)),
        xy.wp() == x.wp().add(y.wp()),
    )
    return all(laws), f"{name}:{x};{y};{z}:{xy};{xy_mul}:{laws}"


def check_witt_item(item):
    return check_generator(item) if item[0] == "generator" else check_laws(item)


# -- registry --

def _build_witt_tables():
    """Build the Witt tables the generators need; returns the build time."""
    started = time.perf_counter()
    for p, n in WITT_TABLES:
        wc.witt_tables(p, n)
    return time.perf_counter() - started


WORKLOADS = {
    "enum-oracle": (setup_enum_oracle, check_ring),
    "carlitz-grid": (setup_carlitz_grid, check_pair),
    "witt-normalize": (setup_witt_normalize, check_witt_item),
}


def setup(workload, seed):
    """Everything before the body: fields, primes, Witt tables and the items.

    Returns (items, check, tables_build_s).
    """
    make, check = WORKLOADS[workload]
    tables_build_s = _build_witt_tables() if workload == "witt-normalize" else 0.0
    items = make(random.Random(f"{workload}/{seed}"))  # str seeding is stable
    return items, check, tables_build_s
