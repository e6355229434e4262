"""Reference implementations that tests compare the library against.

None of these is on a library path: the residue ring F_q[T]/(N) with its
exhaustive unit enumeration, element orders and p-power torsion tally (by
``modpow``, sharing nothing with the additive columns) checks ``phi`` and
the split unit-enumeration oracle; ``power_images`` computes each residue's
p-power column entries from scratch, the reference for the columns that
oracle builds by additivity; ``recombine`` is the round-trip oracle of
``partial_fractions``; ``is_irreducible_by_trial_division`` and
``factor_by_trial_division`` divide by every monic of each degree, the
reference for the distinct-degree sieve and Cantor-Zassenhaus; and
``invert_variable`` with ``is_single_ramified_at_infinity`` carry the
single-ramified conditions to the infinite place, to check the normaliser
against the T -> 1/T symmetry.
"""

from wittcount.asw import AswGenerator, AswNormalForm
from wittcount.polys import (DEFAULT_ENUM_CAP, CapExceededError, Polynomial, _monics, phi,
                              polys_below)
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
    return horner(rf.num) / den


def invert_variable(gen: AswGenerator) -> AswGenerator:
    """Substitute T -> 1/T' in every component; an involution, and it does
    not renormalize (compose with witt_normalize for that)."""
    beta = gen.beta
    return AswGenerator(WittVector(beta.p, (_subst_inverse_t(c) for c in beta.comps)))
