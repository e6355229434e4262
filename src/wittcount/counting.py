"""Closed-form extension counts and the enumeration oracles that recount them.

The closed forms (v_n, w, t_1, s_n and the integer lemmas behind them) are
pure arbitrary-precision arithmetic.  Each one is paired with an exhaustive
oracle.  Cyclic-subgroup counting enumerates all of F_q[T]/(P^alpha) as
pairs x = h + l of a high and a low half; x -> x^p is additive, so each
half's p-power columns are built by additivity, one block of entries per
monomial from that monomial's image, and every residue is counted once,
exactly, through a tally of the low half.  The generator-class oracles
enumerate normal-form generators and partition them under the
scaling-plus-wp equivalence, with the correction pole bound saturated until
the class count stabilizes.

Every value the class oracles add has denominators that are powers of the
one prime P, so they add in W_n(F_q[T]) instead: :func:`_lift` multiplies a
vector by the Teichmuller unit [P^E] = (P^E, 0, ..., 0), which scales
component i by P^(E p^i) (Serre, *Local Fields*, II 6).  [P^E] is a unit,
so x + y = z exactly when [P^E]x + [P^E]y = [P^E]z; the lift commutes with
``int_mul``, and [P^E]wp(c) = [P^E]F(c) - [P^E]c.  The sum, negation and
product polynomials are isobaric (x_i weighs p^i), so a pole order at most
E p^i at every level i is kept by Witt add, neg and ``int_mul``.  The
candidates need E >= ceil((alpha-1)/p^(n-1)) and wp(c) at pole bound b
needs E >= p b; then every sum is a ``Polynomial`` sum, with no gcd, and
is looked up among the lifted candidates.  The lift raises rather than
truncate when E is too small.  At length 1 the lifts are built directly as
coefficient tuples, Q P^(E-lam) for the candidates and
h^p P^(E-p gamma0) - h P^(E-gamma0) for the corrections, so each transform
is one ``polys._sum``.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .fields import field
from .polys import (CapExceededError, DEFAULT_ENUM_CAP, Polynomial, _mul, _sum, canonical_prime,
                    is_irreducible, phi, polys_below)
from .rationals import RationalFunction
from .witt import WittVector

DEFAULT_SATURATION_ROUNDS = 8
MAX_COUNT_BITS = 14_000  # about 4200 digits


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class CountParams:
    """Parameters (q = p^s, deg P = d, conductor bound alpha, length n)."""

    p: int
    s: int
    d: int
    alpha: int
    n: int

    def __post_init__(self):
        if self.alpha < 1 or self.n < 1 or self.d < 1 or self.s < 1:
            raise ValueError("alpha, n, d, s must all be positive")
        # the counts are below q^(d*alpha); s_n and v_n also build powers of p up to p^n
        if (self.d * self.alpha * self.s + self.n) * (self.p - 1).bit_length() > MAX_COUNT_BITS:
            raise CapExceededError(f"q^(d*alpha) = {self.p}^{self.s * self.d * self.alpha} and "
                                   f"p^n = {self.p}^{self.n} may exceed the budget of "
                                   f"{MAX_COUNT_BITS} bits")

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
    for lam in range(1, alpha):
        if lam % p == 0:
            continue
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
    delta = floor((alpha-1)/p) + 1, as exact rationals; asserts equality."""
    if params.n < 2:
        raise ValueError("ratio_check requires n >= 2")
    p, q, d, a = params.p, params.q, params.d, params.alpha
    delta = (a - 1) // p + 1
    lower = v_n(CountParams(params.p, params.s, params.d, delta, params.n - 1))
    if lower == 0:
        raise ZeroDivisionError(f"v_(n-1)({delta}) = 0: ratio is vacuous here")
    lhs = Fraction(v_n(params), lower)
    rhs = Fraction(q ** (d * (a - _ceil_div(a, p))), p)
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

def _power_columns(fld, prime, modulus, k, shift, start):
    """Columns [g mod P, g, g^p, ..., g^(p^n_max)] of coefficient tuples, the
    powers mod M = P^alpha, for g = r*T^shift and r over the polynomials of
    degree < k in encoding order; column j starts at ``start[j]`` (the entry
    of r = 0) and n_max + 2 = len(start).

    Every map here is additive, so the columns grow one block per monomial
    c*T^e: the entries c*q^e + i, i < q^e, are the entries i plus the image
    of c*T^e, which is computed once.  The images of the (q - 1)*k monomials
    are the only ``frobenius()`` and ``%`` calls.
    """
    cols = [[s] for s in start]
    for e in range(k):
        size = len(cols[0])
        for c in range(1, fld.q):
            g = Polynomial(fld, (0,) * (e + shift) + (c,))
            image = [(g % prime).coeffs, g.coeffs]
            for _ in start[2:]:
                g = g.frobenius() % modulus
                image.append(g.coeffs)
            for col, term in zip(cols, image):
                col += [_sum(fld, x, term) for x in col[:size]]
    return cols


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
    and exactly.  The units of order
    dividing p^m are nested in m, so the order-exactly-p^m count is the
    difference of consecutive tallies.

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


def _coprime_numerators(fld, prime, lam, cap):
    """All Q with deg Q < lam*deg P that the prime P does not divide, in encoding order."""
    deg = lam * prime.degree
    if fld.q**deg > cap:
        raise CapExceededError(f"numerator enumeration of size {fld.q**deg} exceeds cap {cap}")
    return [cand for cand in polys_below(fld, deg) if cand % prime]


def _pole_parts(fld, prime, lams, cap):
    """(lam, Q/P^lam) for each lam in ``lams`` and Q of :func:`_coprime_numerators`;
    lam = 0 gives (0, 0).  Over lam = 0..b these are the h/P^b, deg h < b deg P."""
    for lam in lams:
        if not lam:
            yield 0, RationalFunction.zero(fld)
            continue
        pe = _prime_power(prime, lam)
        for q_num in _coprime_numerators(fld, prime, lam, cap):
            yield lam, RationalFunction._raw(q_num, pe)  # reduced: the prime P divides no Q


@functools.lru_cache(maxsize=256)
def _prime_power(prime, e):
    return prime**e


def _lift(vec: WittVector, prime: Polynomial, e_bound: int) -> WittVector:
    """[P^E] vec, E = ``e_bound``, for a vector over F_q(T) whose denominators
    are powers of the prime P: component i times P^(E p^i), over F_q[T].

    Raises ``ValueError`` when a denominator is not a power of P or a pole
    order at level i exceeds E p^i; it never truncates."""
    comps = []
    for i, c in enumerate(vec.comps):
        top = e_bound * vec.p**i
        e = c.den.degree // prime.degree
        if c.den != _prime_power(prime, e):
            raise ValueError(f"denominator {c.den} is not a power of {prime}")
        if e > top:
            raise ValueError(f"pole order {e} at level {i} exceeds E p^i = {top}")
        comps.append(c.num * _prime_power(prime, top - e))
    return WittVector(vec.p, comps)


def _lifted_wp(vec: WittVector, prime: Polynomial, e_bound: int) -> WittVector:
    """[P^E] wp(vec) = [P^E] F(vec) - [P^E] vec, a Witt difference over F_q[T]."""
    return _lift(vec.frobenius(), prime, e_bound).sub(_lift(vec, prime, e_bound))


def _valid_lambdas(p, alpha, weight, allow_zero):
    """Pole orders lam with p^weight * lam <= alpha - 1, lam coprime to p."""
    out = [0] if allow_zero else []
    lam = 1
    while p**weight * lam <= alpha - 1:
        if lam % p:
            out.append(lam)
        lam += 1
    return out


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
    correction wp(h/P^gamma0) is h^p P^(E-p gamma0) - h P^(E-gamma0)
    (:func:`_lifted_wp_images`).  Each transform j*beta + wp(c) is one
    ``_sum`` of the scaled lift and a lifted image, looked up exactly among
    the lifted candidates."""
    fld = field(p, s)
    prime = Polynomial(fld, prime_coeffs)
    e_bound = alpha - 1
    lams, lifted = [], []
    for lam in _valid_lambdas(p, alpha, 0, allow_zero=False):
        lifts = _lifted_candidates(fld, prime, lam, e_bound, cap)
        lams += [lam] * len(lifts)
        lifted += lifts
        if len(lams) > cap:
            raise CapExceededError(f"more than {cap} candidate generators")
    index = {f: i for i, f in enumerate(lifted)}
    dsu = _DSU(len(lifted))
    wp_images = {}  # gamma0 -> the lifted wp(h/P^gamma0) for every h with deg h < gamma0 * d
    for i, lam in enumerate(lams):
        gamma0 = lam // p
        if gamma0 not in wp_images:
            wp_images[gamma0] = _lifted_wp_images(fld, prime, e_bound, gamma0)
        for j in range(1, p):
            scaled = _mul(fld, (j,), lifted[i])  # j in F_p is encoded as j
            for wpc in wp_images[gamma0]:
                image = _sum(fld, scaled, wpc)
                other = index.get(image)
                if other is None:
                    raise AssertionError(f"transform left the normal-form set: "
                                         f"({Polynomial(fld, image)})/({prime})^{e_bound}")
                dsu.union(i, other)
    by_lambda = {}
    roots = {i for i in range(len(lams)) if dsu.find(i) == i}
    for i in roots:
        by_lambda[lams[i]] = by_lambda.get(lams[i], 0) + 1
    return len(roots), by_lambda


def _lifted_candidates(fld, prime, lam, e_bound, cap):
    """[P^E](Q/P^lam) = Q P^(E-lam), E = ``e_bound``, as coefficient tuples,
    for the Q of :func:`_coprime_numerators` in the same order."""
    factor = _prime_power(prime, e_bound - lam).coeffs
    return [_mul(fld, q_num.coeffs, factor) for q_num in _coprime_numerators(fld, prime, lam, cap)]


def _lifted_wp_images(fld, prime, e_bound, gamma0):
    """[P^E] wp(h/P^gamma0) = h^p P^(E-p gamma0) - h P^(E-gamma0), E =
    ``e_bound``, as coefficient tuples, for every h with deg h < gamma0 deg P:
    the lifts of :func:`_lifted_wp` at length 1.  Callers bound gamma0 deg P
    by a numerator degree that passed the cap."""
    frob_factor = _prime_power(prime, e_bound - fld.p * gamma0).coeffs
    factor = _prime_power(prime, e_bound - gamma0).coeffs
    return [_sum(fld, _mul(fld, h.frobenius().coeffs, frob_factor),
                 _mul(fld, (-h).coeffs, factor))
            for h in polys_below(fld, gamma0 * prime.degree)]


class NotStabilizedError(RuntimeError):
    """Saturation did not stabilize within the configured number of rounds."""


@dataclass(frozen=True)
class AswClassesResult:
    count: int
    candidates: int
    bounds_tried: tuple
    counts_per_bound: tuple

    @property
    def rounds(self) -> int:
        return len(self.bounds_tried)


def oracle_asw_classes(params: CountParams, prime: Polynomial = None,
                       cap: int = DEFAULT_ENUM_CAP,
                       max_rounds: int = DEFAULT_SATURATION_ROUNDS) -> int:
    """Length-n generator classes under beta ~ m (.) beta (+) wp(c), counted
    by saturating the pole bound of the correction vectors c."""
    return oracle_asw_classes_detail(params, prime, cap, max_rounds).count


def oracle_asw_classes_detail(params: CountParams, prime: Polynomial = None,
                              cap: int = DEFAULT_ENUM_CAP,
                              max_rounds: int = DEFAULT_SATURATION_ROUNDS) -> AswClassesResult:
    fld = field(params.p, params.s)
    p, n, alpha = params.p, params.n, params.alpha
    if n > 3:
        raise ValueError("class enumeration is limited to n <= 3")
    prime = _resolve_prime(params, prime)

    level_choices = [
        [beta for _, beta in _pole_parts(fld, prime, _valid_lambdas(
            p, alpha, n - 1 - level, allow_zero=level > 0), cap)]
        for level in range(n)]
    total = 1
    for choices in level_choices:
        total *= len(choices)
    if total > cap:
        raise CapExceededError(f"{total} candidate vectors exceed cap {cap}")
    if total == 0:
        return AswClassesResult(count=0, candidates=0, bounds_tried=(), counts_per_bound=())
    cands = [WittVector(p, comps) for comps in itertools.product(*level_choices)]

    multipliers = [m for m in range(1, p**n) if m % p]
    start_bound = _ceil_div(alpha, p)

    def check_round_work(bound):
        work = len(cands) * len(multipliers) * fld.q ** (bound * prime.degree * n)
        if work > cap:
            raise CapExceededError(f"saturation round at pole bound {bound} needs {work} "
                                   f"Witt sums, over cap {cap}")

    check_round_work(start_bound)
    scaled = [[wv.int_mul(m) for m in multipliers] for wv in cands]  # lifted in each round

    dsu = _DSU(len(cands))
    bounds, counts = [], []
    for round_idx in range(max_rounds):
        bound = start_bound + round_idx
        check_round_work(bound)
        e_bound = max(_ceil_div(alpha - 1, p ** (n - 1)), p * bound)
        index = {_lift(wv, prime, e_bound): i for i, wv in enumerate(cands)}
        lifted = [[_lift(wv, prime, e_bound) for wv in row] for row in scaled]
        for c_vec in _correction_vectors(fld, p, n, prime, bound, cap):
            wpc = _lifted_wp(c_vec, prime, e_bound)
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
    raise NotStabilizedError(
        f"class count {counts} did not stabilize within {max_rounds} rounds "
        f"(bounds {bounds}); rerun with a larger round budget")


def _correction_vectors(fld, p, n, prime, bound, cap):
    """Every length-n vector with components h/P^bound, deg h < bound deg P."""
    pool = [c for _, c in _pole_parts(fld, prime, range(bound + 1), cap)]
    for comps in itertools.product(pool, repeat=n):
        yield WittVector(p, comps)


# -- verification records --

@dataclass
class VerificationReport:
    """One closed-form-versus-oracle (or identity-grid) verification record."""

    check_id: str
    params: dict
    formula_value: object = None
    oracle_value: object = None
    identity_checks: tuple = ()
    status: str = "pass"
    wall_time_ms: int = 0

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
