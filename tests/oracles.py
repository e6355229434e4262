"""Reference implementations that tests compare the library against.

None of these is on a library path: the residue ring F_q[T]/(N) with its
exhaustive unit enumeration, element orders and p-power torsion tally (by
``modpow``, sharing nothing with the additive columns) checks ``phi`` and
the split unit-enumeration oracle; ``power_images`` computes each residue's
p-power column entries from scratch, the reference for the columns that
oracle builds by additivity; and ``recombine`` is the round-trip oracle of
``partial_fractions``.
"""

from wittcount.polys import DEFAULT_ENUM_CAP, CapExceededError, Polynomial, phi, polys_below
from wittcount.rationals import RationalFunction


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
