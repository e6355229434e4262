"""Reference implementations that tests compare the library against.

None of these is on a library path: the residue ring F_q[T]/(N) with its
exhaustive unit enumeration, element orders and p-power torsion tally (by
``modpow``, sharing nothing with the additive columns) checks ``phi`` and
the split unit-enumeration oracle; ``power_images`` computes each residue's
p-power column entries from scratch, the reference for the columns that
oracle builds by additivity; ``as_classes_by_every_transform`` lifts every
degree-p class candidate of every pole order by one [P^(alpha-1)] and links
it to every one of its transforms j*beta + wp(c), the reference for the
class oracle that partitions each pole order lam on its own numerators and
links only beta -> g beta, g the least generator of F_p^*, and beta plus
each wp basis image; ``_lifted_wp_images`` lifts every correction
wp(h/P^gamma0) of that oracle, the reference for the F_p-basis of them that
it lifts; ``_coprime_numerators`` walks the numerators Q/P^lam one ``%``
each, the reference for the walked residues;
``_pole_parts``, ``_lift`` and ``_lifted_wp`` build the class oracles'
candidates and corrections over F_q(T) and move them into W_n(F_q[T]) by
[P^E] with a check of every denominator, the reference for the lifts those
oracles build directly over F_q[T];
``ghost`` maps an integer Witt vector to its ghost coordinates, where
the ring operations become componentwise ``+``, ``*`` and ``-``;
``recombine`` is the round-trip oracle of ``partial_fractions``;
``is_irreducible_by_trial_division`` and ``factor_by_trial_division``
divide by every monic of each degree, the reference for the
distinct-degree sieve and Cantor-Zassenhaus; and
``invert_variable`` with ``is_single_ramified_at_infinity`` carry the
single-ramified conditions to the infinite place, to check the normaliser
against the T -> 1/T symmetry.
"""

from collections import Counter

from wittcount.asw import AswGenerator, AswNormalForm
from wittcount.counting import _DSU, _lifted_candidates, _prime_power
from wittcount.polys import (DEFAULT_ENUM_CAP, CapExceededError, Polynomial, _monics, _mul, _sum,
                              phi, polys_below)
from wittcount.rationals import RationalFunction
from wittcount.witt import WittVector


class ResidueRing:
    """F_q[T]/(N) with elements represented by polynomials of degree < deg N."""

    def __init__(self, modulus: Polynomial):
        if modulus.is_zero():
            raise ValueError("zero modulus")
        self.modulus = modulus.monic()
        self.field = modulus.field

    @property
    def size(self) -> int:
        return self.field.q ** max(self.modulus.degree, 0)

    def reduce(self, f: Polynomial) -> Polynomial:
        return f % self.modulus

    def is_unit(self, f: Polynomial) -> bool:
        return self.reduce(f).gcd(self.modulus).degree == 0

    def elements(self, cap: int = DEFAULT_ENUM_CAP):
        if self.size > cap:
            raise CapExceededError(f"residue enumeration of size {self.size} exceeds cap {cap}")
        yield from polys_below(self.field, self.modulus.degree)

    def units(self, cap: int = DEFAULT_ENUM_CAP):
        """All units in increasing encoding order; yields exactly phi(N) of them."""
        for f in self.elements(cap=cap):
            if f.gcd(self.modulus).degree == 0:
                yield f

    def elem_order(self, a: Polynomial) -> int:
        """Multiplicative order, found by stripping prime factors of phi(N)."""
        a = self.reduce(a)
        if not self.is_unit(a):
            raise ValueError(f"{a} is not a unit modulo {self.modulus}")
        one = Polynomial.one(self.field)
        e = phi(self.modulus)
        for prime in int_prime_factors(e):
            while e % prime == 0 and a.modpow(e // prime, self.modulus) == one:
                e //= prime
        return e

    def p_power_torsion(self, n_max: int, cap: int = DEFAULT_ENUM_CAP):
        """[number of units u with u^(p^m) = 1 for m = 0..n_max], by multiplicative powering."""
        p = self.field.p
        one = Polynomial.one(self.field)
        units = list(self.units(cap=cap))
        return [sum(u.modpow(p**m, self.modulus) == one for u in units)
                for m in range(n_max + 1)]


def power_images(residues, prime: Polynomial, modulus: Polynomial, n_max: int):
    """Per residue f: [f mod P, f, f^p, ..., f^(p^n_max)], the powers reduced mod M."""
    for f in residues:
        row = [f % prime, f]
        for _ in range(n_max):
            f = f.frobenius() % modulus
            row.append(f)
        yield row


def as_classes_by_every_transform(prime: Polynomial, alpha: int):
    """(class count, classes by pole order) of the degree-p class oracle at
    length 1, linking each lifted candidate beta to j*beta + wp(c) for every
    j in 1..p-1 and every one of the q^(gamma0 deg P) lifted corrections, in one
    index over all lam: the reference for the oracle that takes each lam on
    its own and links only generators of that group."""
    fld, e_bound = prime.field, alpha - 1
    lams, lifted = [], []
    for lam in range(1, alpha):
        if lam % fld.p:
            lifts = _lifted_candidates(fld, prime, lam, e_bound, DEFAULT_ENUM_CAP)
            lams += [lam] * len(lifts)
            lifted += lifts
    index = {f: i for i, f in enumerate(lifted)}
    dsu = _DSU(len(lifted))
    for i, lam in enumerate(lams):
        for wpc in _lifted_wp_images(fld, prime, e_bound, lam // fld.p):
            for j in range(1, fld.p):
                dsu.union(i, index[_sum(fld, _mul(fld, (j,), lifted[i]), wpc)])
    roots = [i for i in range(len(lams)) if dsu.find(i) == i]
    return len(roots), dict(Counter(lams[i] for i in roots))


def _lifted_wp_images(fld, prime, e_bound, gamma0):
    """[P^E] wp(h/P^gamma0) = h^p P^(E-p gamma0) - h P^(E-gamma0), E =
    ``e_bound``, as coefficient tuples, for every h with deg h < gamma0 deg P,
    in encoding order."""
    frob_factor = _prime_power(prime, e_bound - fld.p * gamma0).coeffs
    factor = _prime_power(prime, e_bound - gamma0).coeffs
    return [_sum(fld, _mul(fld, h.frobenius().coeffs, frob_factor),
                 _mul(fld, (-h).coeffs, factor))
            for h in polys_below(fld, gamma0 * prime.degree)]


def _coprime_numerators(fld, prime, lam, cap):
    """All Q with deg Q < lam*deg P that the prime P does not divide, in
    encoding order, one ``%`` each: the reference for the numerators that
    ``_lifted_candidates`` builds as F_q-linear columns."""
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


def ghost(vec: WittVector) -> tuple:
    """The ghost coordinates g_m = sum_{j<=m} p^(j-1) W_j^(p^(m-j)) of a vector
    over the integers, where the ghost map is injective."""
    if not isinstance(vec.comps[0], int):
        raise ValueError("ghost map requires integer components (it is not injective in characteristic p)")
    p = vec.p
    return tuple(sum(p ** (j - 1) * vec.comps[j - 1] ** (p ** (m - j)) for j in range(1, m + 1))
                 for m in range(1, vec.n + 1))


def int_prime_factors(n: int):
    """The distinct prime factors of a positive integer, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def recombine(poly_part: Polynomial, terms) -> RationalFunction:
    """Inverse of ``partial_fractions``: the polynomial part plus every Q/P^e."""
    acc = RationalFunction(poly_part)
    for p_, e, q_i in terms:
        acc = acc + RationalFunction(q_i, p_**e)
    return acc


def is_irreducible_by_trial_division(f: Polynomial) -> bool:
    """No monic of degree 1..deg/2 divides f."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return f.degree >= 1 and all(
        f % g for d in range(1, f.degree // 2 + 1) for g in _monics(f.field, d))


def factor_by_trial_division(f: Polynomial):
    """Sorted (P, e) of f, dividing out the monics of each degree in increasing
    encoding order; each divisor found is irreducible, as every factor of lower
    degree was already divided out."""
    rem, out, d = f.monic(), [], 1
    while 2 * d <= rem.degree:
        for g in _monics(f.field, d):
            e = 0
            while not rem % g:
                rem, e = rem // g, e + 1
            if e:
                out.append((g, e))
        d += 1
    if rem.degree >= 1:  # no factor of degree below half its own
        out.append((rem, 1))
    return out


def is_single_ramified_at_infinity(nf: AswNormalForm) -> bool:
    """The single-ramified-prime conditions transported to the infinite place:
    no finite poles, every polynomial part vanishes at 0, each part is zero
    or has degree coprime to p, and the first part is nonconstant."""
    if nf.primes:
        return False
    p = nf.p
    for f_i in nf.mu:
        if f_i.is_zero():
            continue
        # nonzero with zero constant term forces degree >= 1
        if f_i.constant_coeff() != 0 or f_i.degree % p == 0:
            return False
    return not nf.mu[0].is_constant()


def _subst_inverse_t(rf: RationalFunction) -> RationalFunction:
    fld = rf.field
    x = RationalFunction(Polynomial.one(fld), Polynomial.T(fld))

    def horner(poly):
        acc = RationalFunction.zero(fld)
        for c in reversed(poly.coeffs):
            acc = acc * x + RationalFunction.const(fld, c)
        return acc

    den = horner(rf.den)
    return horner(rf.num) * RationalFunction(den.den, den.num)


def invert_variable(gen: AswGenerator) -> AswGenerator:
    """Substitute T -> 1/T' in every component; an involution, and it does
    not renormalize (compose with witt_normalize for that)."""
    beta = gen.beta
    return AswGenerator(WittVector(beta.p, (_subst_inverse_t(c) for c in beta.comps)))
