"""Closed-form extension counts and the enumeration oracles that recount them.

The closed forms (v_n, w, t_1, s_n and the integer lemmas behind them) are
pure arbitrary-precision arithmetic.  Each one is paired with an exhaustive
oracle.  Cyclic-subgroup counting enumerates all of F_q[T]/(P^alpha) as
pairs x = h + l of a high and a low half; x -> x^p is additive, so each
half's p-power columns are built by additivity, one block of entries per
monomial c T^e from the images of T^e scaled by c^(p^m), and every residue
is counted once, exactly, through a tally of the low half.  That walk,
:func:`_linear_columns`, is the one over the oracles' residues and
numerators: the class oracles' numerators are its columns too.  The
generator-class oracles enumerate normal-form generators and partition them
under the scaling-plus-wp equivalence: the degree-p one links each to its
images under generators of that group, the length-n one raises the
correction pole bound until two rounds give the same class count, within
the one budget ``cap`` (:func:`oracle_asw_classes_detail`).

The class oracles work in W_n(F_q[T]).  Every value they add has
denominators that are powers of the one prime P, so each is taken times the
Teichmuller unit [P^E] = (P^E, 0, ..., 0), which scales component i by
P^(E p^i) (Serre, *Local Fields*, II 6).  [P^E] is a unit, so x + y = z
exactly when [P^E]x + [P^E]y = [P^E]z, and as a ring element it commutes
with ``int_mul``: [u](m x) = m [u]x.  A candidate Q/P^lam at level i is
built as Q P^(E p^i - lam) (:func:`_lifted_candidates`), and E p^i >= lam
always, so no lift can lose a pole and none is checked.  The length-n
oracle takes its corrections c = (h_i/P^b) through v = [P^b]c =
(h_i P^(b (p^i - 1))): [P^(p b)]wp(c) = F(v) - [P^((p-1) b)]v.  Every sum
is then a ``Polynomial`` sum, with no gcd, and is looked up among the
scaled candidates.  At length 1 the degree-p oracle lifts only the F_p-basis
of its corrections, as tuples h^p P^(E-p gamma0) - h P^(E-gamma0), so each
generating transform is one ``polys._sum`` or scaling.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter, namedtuple

from .fields import field
from .polys import (CapExceededError, DEFAULT_ENUM_CAP, Polynomial, _mul, _sum, _wrap,
                    canonical_prime, is_irreducible, phi, polys_below)
from .witt import WittVector

MAX_COUNT_BITS = 14_000  # about 4200 digits


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _pole_orders(p, top):
    """The pole orders lam in 1..top that p does not divide."""
    return [lam for lam in range(1, top + 1) if lam % p]


class CountParams(namedtuple("CountParams", "p s d alpha n")):
    """Parameters (q = p^s, deg P = d, conductor bound alpha, length n)."""

    __slots__ = ()

    def __new__(cls, p, s, d, alpha, n):
        if alpha < 1 or n < 1 or d < 1 or s < 1:
            raise ValueError("alpha, n, d, s must all be positive")
        field(p)  # ValueError unless p is a prime <= MAX_CHARACTERISTIC; cached per p
        # the counts are below q^(d*alpha); s_n and v_n also build powers of p up to p^n
        if (d * alpha * s + n) * (p - 1).bit_length() > MAX_COUNT_BITS:
            raise CapExceededError(f"q^(d*alpha) = {p}^{s * d * alpha} and "
                                   f"p^n = {p}^{n} may exceed the budget of "
                                   f"{MAX_COUNT_BITS} bits")
        return super().__new__(cls, p, s, d, alpha, n)

    @property
    def q(self) -> int:
        return self.p**self.s

    def as_dict(self) -> dict:
        return {"p": self.p, "s": self.s, "q": self.q, "d": self.d,
                "alpha": self.alpha, "n": self.n}


# -- closed forms --

def v_n(params: CountParams) -> int:
    """Count of cyclic subgroups of order p^n in the units mod P^alpha."""
    p, q, d, a, n = params.p, params.q, params.d, params.alpha, params.n
    hi = q ** (d * (a - _ceil_div(a, p**n)))
    lo = q ** (d * (a - _ceil_div(a, p ** (n - 1))))
    num = hi - lo
    den = p ** (n - 1) * (p - 1)
    if num % den:
        raise AssertionError(f"v_n numerator {num} not divisible by {den}")
    return num // den


def w(alpha: int, params: CountParams) -> int:
    """Both forms of the conductor-bounded generator count; asserts they agree.

    Sum form: sum of Phi(P^(lam - floor(lam/p))) over lam < alpha coprime
    to p.  Closed form: q^(d(alpha - 1 - floor((alpha-1)/p))) - 1.
    """
    if alpha < 1:
        raise ValueError("alpha must be positive")
    return _w_cached(params.p, params.s, params.d, alpha)


@functools.lru_cache(maxsize=None)
def _w_cached(p: int, s: int, d: int, alpha: int) -> int:
    q = p**s
    total = 0
    for lam in _pole_orders(p, alpha - 1):
        m = lam - lam // p
        total += q ** (d * (m - 1)) * (q**d - 1)
    closed = q ** (d * (alpha - 1 - (alpha - 1) // p)) - 1
    if total != closed:
        raise AssertionError(f"w({alpha}) sum form {total} != closed form {closed}")
    return closed


def t1(alpha: int, params: CountParams) -> int:
    """w(alpha)/(p-1); asserted equal to v_1(alpha)."""
    p = params.p
    wa = w(alpha, params)
    if wa % (p - 1):
        raise AssertionError(f"w({alpha}) = {wa} not divisible by p-1 = {p - 1}")
    value = wa // (p - 1)
    v1 = v_n(CountParams(params.p, params.s, params.d, alpha, 1))
    if value != v1:
        raise AssertionError(f"t1({alpha}) = {value} != v_1({alpha}) = {v1}")
    return value


def s_n(params: CountParams) -> int:
    """Product form w(delta_1) * prod(w(delta_i) + 1); asserts the identity
    s_n(alpha) = p^(n-1) (p-1) v_n(alpha)."""
    p, a, n = params.p, params.alpha, params.n
    deltas = [(a - 1) // p ** (n - i) + 1 for i in range(1, n + 1)]
    value = w(deltas[0], params)
    for delta in deltas[1:]:
        value *= w(delta, params) + 1
    expected = p ** (n - 1) * (p - 1) * v_n(params)
    if value != expected:
        raise AssertionError(f"s_n{params} = {value} != p^(n-1)(p-1) v_n = {expected}")
    return value


def lemma42_floor(alpha: int, s: int, p: int) -> int:
    """Nested floor identities; returns the common value floor(alpha/p^(s+1))."""
    a1 = (alpha // p**s) // p
    a2 = (alpha // p) // p**s
    a3 = alpha // p ** (s + 1)
    if not a1 == a2 == a3:
        raise AssertionError(f"floor identity fails at alpha={alpha}, s={s}, p={p}")
    return a3


def lemma42_ceil(alpha: int, s: int, p: int) -> int:
    """ceil(alpha/p^s) = floor((alpha-1)/p^s) + 1; returns the common value."""
    c = _ceil_div(alpha, p**s)
    f = (alpha - 1) // p**s + 1
    if c != f:
        raise AssertionError(f"ceil identity fails at alpha={alpha}, s={s}, p={p}")
    return c


def ratio_check(params: CountParams):
    """Both sides of v_n(alpha)/v_(n-1)(delta) = q^(d(alpha - ceil(alpha/p)))/p,
    delta = floor((alpha-1)/p) + 1, cross-multiplied into the integers
    v_n(alpha)*p and v_(n-1)(delta)*q^(...); asserts equality."""
    if params.n < 2:
        raise ValueError("ratio_check requires n >= 2")
    p, q, d, a = params.p, params.q, params.d, params.alpha
    delta = (a - 1) // p + 1
    lower = v_n(CountParams(params.p, params.s, params.d, delta, params.n - 1))
    if lower == 0:
        raise ZeroDivisionError(f"v_(n-1)({delta}) = 0: ratio is vacuous here")
    lhs, rhs = v_n(params) * p, lower * q ** (d * (a - _ceil_div(a, p)))
    if lhs != rhs:
        raise AssertionError(f"ratio identity fails at {params}: {lhs} != {rhs}")
    return lhs, rhs


def ln1_bound(params: CountParams) -> int:
    """(1 + w(alpha))/p = q^(d(alpha - ceil(alpha/p)))/p as an exact integer."""
    p, q, d, a = params.p, params.q, params.d, params.alpha
    wa = w(a, params)
    power = q ** (d * (a - _ceil_div(a, p)))
    if (1 + wa) != power:
        raise AssertionError(f"1 + w({a}) = {1 + wa} != {power}")
    if power % p:
        raise ValueError(f"p does not divide 1 + w({a}) = {power} (needs alpha >= 2)")
    return power // p


def telescoped_phi_sum(params: CountParams, r: int, s: int) -> int:
    """sum_(i=r..s) Phi(P^i), evaluated term by term on the canonical prime;
    asserted equal to q^(ds) - q^(d(r-1))."""
    fld = field(params.p, params.s)
    prime = canonical_prime(fld, params.d)
    total = sum(phi(prime**i) for i in range(r, s + 1))
    closed = params.q ** (params.d * s) - params.q ** (params.d * (r - 1))
    if total != closed:
        raise AssertionError(f"Phi telescoping fails for r={r}, s={s}: {total} != {closed}")
    return total


# -- oracle: cyclic subgroup count by full unit enumeration --

def _linear_columns(fld, start, images, scales):
    """Columns of F_q-linear maps over the polynomials r in encoding order:
    column j starts at ``start[j]``, its entry of r = 0; ``images[e][j]`` is
    the image of T^e under map j, and the image of c*T^e is that times
    ``scales[c][j]`` (2 <= c < q).  The entries c*q^e + i, i < q^e, are the
    entries i plus the image of c*T^e, so the columns grow one block per
    monomial c*T^e.  This is the one walk over the oracles' residues and
    numerators."""
    cols = [[s] for s in start]
    for image in images:
        size = len(cols[0])
        for c in range(1, fld.q):
            terms = [_mul(fld, (a,), t) for a, t in zip(scales[c], image)] if c > 1 else image
            for col, term in zip(cols, terms):
                col += [_sum(fld, x, term) for x in col[:size]]
    return cols


def _power_columns(fld, prime, modulus, k, shift, start):
    """Columns [g mod P, g, g^p, ..., g^(p^n_max)] of coefficient tuples, the
    powers mod M = P^alpha, for g = r*T^shift and r over the polynomials of
    degree < k in encoding order; column j starts at ``start[j]`` (the entry
    of r = 0) and n_max + 2 = len(start).

    Every map here is additive, so these are :func:`_linear_columns` from the
    images of T^e (the only ``frobenius()`` and ``%`` calls), scaled by c,
    or by c^(p^m) in the g^(p^m) column.
    """
    images = []
    for e in range(k):
        g = Polynomial(fld, (0,) * (e + shift) + (1,))
        images.append([(g % prime).coeffs, g.coeffs])
        for _ in start[2:]:
            g = g.frobenius() % modulus
            images[-1].append(g.coeffs)
    scales = {c: [c, c] + [fld.pow_val(c, fld.p**m) for m in range(1, len(start) - 1)]
              for c in range(2, fld.q)}
    return _linear_columns(fld, start, images, scales)


@functools.lru_cache(maxsize=32)
def _p_power_order_counts(p, s, prime_coeffs, alpha, n_max, cap):
    """counts[m] = number of units of F_q[T]/(P^alpha) of order exactly p^m,
    for 0 <= m <= n_max, by exhaustive enumeration of all residues.

    Each residue is split as x = h + l, with deg l < k and h a multiple of
    T^k, k = floor(d*alpha/2).  The p-power map is additive in
    characteristic p, so x^(p^m) = 1 exactly when l^(p^m) = 1 - h^(p^m), and
    x is a unit exactly when l mod P != -(h mod P).  h -> -h permutes the
    high half, so the high columns hold h mod P and 1 + h^(p^m) instead:
    negating them would change no count, so no negation is made.  Each
    half's columns are built by additivity (:func:`_power_columns`); every
    high entry then looks up how many low halves complete it in a tally of
    the low column, so each of the q^(d*alpha) residues is counted once
    and exactly.  The units of order dividing p^m are nested in m, so the
    order-exactly-p^m count is the difference of consecutive tallies.

    Also cross-checks that the number of units found equals Phi(P^alpha).
    """
    fld = field(p, s)
    prime = Polynomial(fld, prime_coeffs)
    deg_full = prime.degree * alpha
    size = fld.q**deg_full
    if size > cap:
        raise CapExceededError(f"unit enumeration of size {size} exceeds cap {cap}")
    modulus = prime**alpha
    k = deg_full // 2
    low = [Counter(col) for col in _power_columns(fld, prime, modulus, k, 0, [()] * (n_max + 2))]
    high = _power_columns(fld, prime, modulus, deg_full - k, k, [()] + [(1,)] * (n_max + 1))
    # non-units, then fixed[m]: residues with x^(p^m) = 1
    non_units, *fixed = [sum(map(tally.__getitem__, col)) for tally, col in zip(low, high)]
    units_found = size - non_units
    expected_units = phi(modulus)
    if units_found != expected_units:
        raise AssertionError(f"unit enumeration found {units_found}, Phi says {expected_units}")
    return tuple(fixed[:1] + [b - a for a, b in zip(fixed, fixed[1:])])


def _resolve_prime(params: CountParams, prime: Polynomial = None) -> Polynomial:
    fld = field(params.p, params.s)
    if prime is None:
        return canonical_prime(fld, params.d)
    if prime.field is not fld:
        raise ValueError("override prime lies in the wrong field")
    return monic_prime(prime, params.d)


def monic_prime(prime: Polynomial, degree: int = None) -> Polynomial:
    """The monic form of an override prime; ValueError unless it is irreducible
    and, when ``degree`` is given, of that degree."""
    if degree is not None and prime.degree != degree:
        raise ValueError(f"override prime has degree {prime.degree}, expected {degree}")
    if prime.is_zero() or not is_irreducible(prime):
        raise ValueError(f"override prime {prime} is not irreducible")
    return prime.monic()


def oracle_cyclic_subgroups(params: CountParams, prime: Polynomial = None,
                            cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count order-p^n cyclic subgroups of the units mod P^alpha by brute force."""
    p = params.p
    prime = _resolve_prime(params, prime)
    n_max = max(params.n, 3)  # share one enumeration across the usual n range
    counts = _p_power_order_counts(params.p, params.s, prime.coeffs, params.alpha,
                                   n_max, cap)
    generators = counts[params.n]
    per_group = p ** (params.n - 1) * (p - 1)
    if generators % per_group:
        raise AssertionError(f"{generators} elements of order p^{params.n} "
                             f"but phi(p^n) = {per_group}")
    return generators // per_group


# -- oracle: generator classes --

class _DSU:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def class_count(self):
        return sum(1 for i in range(len(self.parent)) if self.find(i) == i)


@functools.lru_cache(maxsize=256)
def _prime_power(prime, e):
    return prime**e


def _teich(vec: WittVector, prime: Polynomial, e: int) -> WittVector:
    """[P^e] vec = (P^e, 0, ..., 0) vec over F_q[T]: component i times P^(e p^i)."""
    return WittVector(vec.p, [c * _prime_power(prime, e * vec.p**i)
                              for i, c in enumerate(vec.comps)])


def oracle_as_classes(params: CountParams, prime: Polynomial = None,
                      cap: int = DEFAULT_ENUM_CAP):
    """Degree-p generator classes: enumerate normal forms Q/P^lam and identify
    beta ~ j*beta + wp(h/P^floor(lam/p)); returns the number of classes.

    The transformed generator provably stays in normal form with the same
    pole order, which is asserted.  Use :func:`oracle_as_classes_by_conductor`
    for the per-pole-order breakdown.
    """
    return _as_classes(params, prime, cap)[0]


def oracle_as_classes_by_conductor(params: CountParams, prime: Polynomial = None,
                                   cap: int = DEFAULT_ENUM_CAP) -> dict:
    """Classes with conductor exactly P^(lam+1), keyed by lam."""
    return dict(_as_classes(params, prime, cap)[1])


def _as_classes(params, prime, cap):
    prime = _resolve_prime(params, prime)
    return _as_classes_cached(params.p, params.s, prime.coeffs, params.alpha, cap)


@functools.lru_cache(maxsize=32)
def _as_classes_cached(p, s, prime_coeffs, alpha, cap):
    """(class count, classes by pole order) of one ring; the caller copies the dict.

    Works on the lifts by [P^E], E = alpha - 1, as coefficient tuples: a
    candidate Q/P^lam is Q P^(E-lam) (:func:`_lifted_candidates`), and the
    correction wp(h/P^gamma0) is h^p P^(E-p gamma0) - h P^(E-gamma0).  wp is
    F_p-linear, so the corrections are the F_p-span of the images of the
    basis h = p^t T^e (:func:`_lifted_wp_basis`), and the transforms
    j*beta + wp(c) are generated by beta -> j*beta, 2 <= j < p, and
    beta -> beta + each such image: (p - 2) + s gamma0 deg P lookups per
    candidate.  Each generator is asserted to map the finite candidate
    set into itself, so the classes are the components they link."""
    fld = field(p, s)
    prime = Polynomial(fld, prime_coeffs)
    e_bound = alpha - 1
    lams, lifted = [], []
    for lam in _pole_orders(p, alpha - 1):
        lifts = _lifted_candidates(fld, prime, lam, e_bound, cap)
        lams += [lam] * len(lifts)
        lifted += lifts
        if len(lams) > cap:
            raise CapExceededError(f"more than {cap} candidate generators")
    index = {f: i for i, f in enumerate(lifted)}
    dsu = _DSU(len(lifted))
    basis = {}  # gamma0 -> the lifted wp(p^t T^e/P^gamma0)
    for i, (lam, x) in enumerate(zip(lams, lifted)):
        gamma0 = lam // p
        if gamma0 not in basis:
            basis[gamma0] = _lifted_wp_basis(fld, prime, e_bound, gamma0)
        scaled = [_mul(fld, (j,), x) for j in range(2, p)]  # j in F_p is encoded as j
        for image in scaled + [_sum(fld, x, b) for b in basis[gamma0]]:
            other = index.get(image)
            if other is None:
                raise AssertionError(f"transform left the normal-form set: "
                                     f"({Polynomial(fld, image)})/({prime})^{e_bound}")
            dsu.union(i, other)
    by_lambda = Counter(lam for i, lam in enumerate(lams) if dsu.find(i) == i)
    return sum(by_lambda.values()), by_lambda


def _lifted_candidates(fld, prime, lam, e_bound, cap):
    """[P^E](Q/P^lam) = Q P^(E-lam), E = ``e_bound``, as coefficient tuples,
    for every Q with deg Q < lam deg P that the prime P does not divide, in
    encoding order; with E = lam these are the Q themselves.
    CapExceededError unless the q^(lam deg P) numerators fit in ``cap``.

    Q -> Q mod P and Q -> Q P^(E-lam) are F_q-linear, so both are
    :func:`_linear_columns`, from T^e mod P and T^e P^(E-lam), each scaled
    by c.  The lifts with a nonzero residue are kept.
    """
    deg = lam * prime.degree
    if fld.q**deg > cap:
        raise CapExceededError(f"numerator enumeration of size {fld.q**deg} exceeds cap {cap}")
    factor = _prime_power(prime, e_bound - lam).coeffs
    images = [((Polynomial(fld, (0,) * e + (1,)) % prime).coeffs, (0,) * e + factor)
              for e in range(deg)]
    residues, lifts = _linear_columns(fld, [(), ()], images,
                                      {c: (c, c) for c in range(2, fld.q)})
    return [x for x, residue in zip(lifts, residues) if residue]


def _lifted_wp_basis(fld, prime, e_bound, gamma0):
    """[P^E] wp(h/P^gamma0) = h^p P^(E-p gamma0) - h P^(E-gamma0), E = ``e_bound``,
    as coefficient tuples, for the F_p-basis h = p^t T^e, e < gamma0 deg P outer
    and t < s inner: h^p is ``_frob_table[p^t]`` at T^(p e).  Callers bound
    gamma0 deg P by a numerator degree that passed the cap."""
    frob_factor = _prime_power(prime, e_bound - fld.p * gamma0).coeffs
    factor = _prime_power(prime, e_bound - gamma0).coeffs
    return [_sum(fld, (0,) * (fld.p * e) + _mul(fld, (fld._frob_table[fld.p**t],), frob_factor),
                 (0,) * e + _mul(fld, (fld._neg_table[fld.p**t],), factor))
            for e in range(gamma0 * prime.degree) for t in range(fld.s)]


class AswClassesResult(namedtuple("AswClassesResult",
                                  "count candidates bounds_tried counts_per_bound")):
    __slots__ = ()  # the field ``count`` shadows tuple.count

    @property
    def rounds(self) -> int:
        return len(self.bounds_tried)


def oracle_asw_classes(params: CountParams, prime: Polynomial = None,
                       cap: int = DEFAULT_ENUM_CAP) -> int:
    """Length-n generator classes under beta ~ m (.) beta (+) wp(c), counted
    by saturating the pole bound of the correction vectors c."""
    return oracle_asw_classes_detail(params, prime, cap).count


def oracle_asw_classes_detail(params: CountParams, prime: Polynomial = None,
                              cap: int = DEFAULT_ENUM_CAP) -> AswClassesResult:
    """Length-n classes under beta ~ m (.) beta (+) wp(c), saturated over the
    pole bound b = ceil(alpha/p) + r of round r, every c_i being h_i/P^b.  It
    all runs in W_n(F_q[T]) under [P^(p b)]: the candidates and their
    multiples are built once, at r = 0, then moved by [P^(p r)].  ``cap`` is
    the one budget: a round's Witt sums at least double each round, so all
    rounds within it do under 2 cap sums, and the count never rises, so two
    rounds agree by round |cands| + 1 unless ``CapExceededError`` ends them."""
    fld = field(params.p, params.s)
    p, n, alpha = params.p, params.n, params.alpha
    if n > 3:
        raise ValueError("class enumeration is limited to n <= 3")
    prime = _resolve_prime(params, prime)
    if alpha <= p**(n - 1):  # level 0 has no pole order, so there is no generator
        return AswClassesResult(count=0, candidates=0, bounds_tried=(), counts_per_bound=())

    start_bound = _ceil_div(alpha, p)
    e_start = p * start_bound  # >= alpha, above every candidate pole order
    level_choices = [
        [_wrap(fld, comp)
         for lam in ([0] if level else []) + _pole_orders(p, (alpha - 1) // p**(n - 1 - level))
         for comp in (_lifted_candidates(fld, prime, lam, e_start * p**level, cap) if lam
                      else [()])]
        for level in range(n)]
    total = 1
    for choices in level_choices:
        total *= len(choices)
    if total > cap:
        raise CapExceededError(f"{total} candidate vectors exceed cap {cap}")
    cands = [WittVector(p, comps) for comps in itertools.product(*level_choices)]

    multipliers = [m for m in range(1, p**n) if m % p]
    bounds, counts = [], []

    def check_round_work(bound):
        work = len(cands) * len(multipliers) * fld.q ** (bound * prime.degree * n)
        if work > cap:
            raise CapExceededError(f"saturation round at pole bound {bound} needs {work} "
                                   f"Witt sums, over cap {cap} (class counts so far: {counts})")

    check_round_work(start_bound)
    scaled = [[wv.int_mul(m) for m in multipliers] for wv in cands]  # moved in each round

    dsu = _DSU(len(cands))
    for round_idx in itertools.count():
        bound = start_bound + round_idx
        check_round_work(bound)
        lifted = [[_teich(wv, prime, p * round_idx) for wv in row] for row in scaled]
        index = {row[0]: i for i, row in enumerate(lifted)}  # the multiplier 1 comes first
        pads = [_prime_power(prime, bound * (p**i - 1)) for i in range(n)]
        for hs in itertools.product(polys_below(fld, bound * prime.degree), repeat=n):
            v = WittVector(p, [h * pad for h, pad in zip(hs, pads)])  # [P^b]c
            wpc = v.frobenius().sub(_teich(v, prime, (p - 1) * bound))  # [P^(p b)]wp(c)
            for i, row in enumerate(lifted):
                for base in row:
                    other = index.get(base.add(wpc))
                    if other is not None:
                        dsu.union(i, other)
        bounds.append(bound)
        counts.append(dsu.class_count())
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            return AswClassesResult(count=counts[-1], candidates=len(cands),
                                    bounds_tried=tuple(bounds), counts_per_bound=tuple(counts))


# -- verification records --

class VerificationReport(namedtuple(
        "VerificationReport",
        "check_id params formula_value oracle_value identity_checks status wall_time_ms",
        defaults=(None, None, (), "pass", 0))):
    """One closed-form-versus-oracle (or identity-grid) verification record."""

    __slots__ = ()

    @staticmethod
    def compare(check_id, params, formula_value, oracle_value, started=None,
                identity_checks=()) -> "VerificationReport":
        ok = formula_value == oracle_value and all(flag for _, flag in identity_checks)
        return VerificationReport(
            check_id=check_id,
            params=params,
            formula_value=formula_value,
            oracle_value=oracle_value,
            identity_checks=tuple(identity_checks),
            status="pass" if ok else "fail",
            wall_time_ms=_elapsed_ms(started),
        )

    @staticmethod
    def skipped(check_id, params, reason: str) -> "VerificationReport":
        return VerificationReport(check_id=check_id, params=params,
                                  identity_checks=(("skip-reason:" + reason, True),),
                                  status="skipped")

    def passed(self) -> bool:
        return self.status == "pass"


def _elapsed_ms(started) -> int:
    if started is None:
        return 0
    return int((time.perf_counter() - started) * 1000)
