"""Polynomials over F_q, their factorisation, and the Euler function Phi.

Coefficients are stored as raw integer encodings (see ``fields``), lowest
degree first, with no trailing zeros; the zero polynomial has an empty
coefficient tuple and degree ``NEG_INF``.  Each operation has one kernel on
coefficient tuples, ``_sum``, ``_mul``, ``_divmod`` and the monic ``_gcd``,
which index the field's rows (``fields``) directly and skip zero
coefficients; ``%``, ``modpow`` and ``_gcd`` read ``_divmod``'s remainder.
The ``Polynomial`` operators are thin wrappers around the kernels, and
``rationals`` calls them on its numerators and denominators directly.

Text format: terms ``c*T^k`` joined by ``+``, where ``c`` is the integer
encoding of the coefficient and a coefficient of 1 is omitted, e.g.
``T^3+T+1`` or ``2*T^2+1``.  Printing and parsing round-trip.

Every exhaustive walk over polynomials (the length-n class oracle's
corrections, the searches of :func:`monic_irreducibles` and
:func:`canonical_prime`) decodes a range of encodings with the one decoder
:meth:`Polynomial.from_int`, in increasing order, and is bounded by a cap.
The oracles' residues and numerators are the one exception:
``counting._linear_columns`` walks them in the same order as images of
linear maps on the F_p-basis p^t T^e, as packed base-p digits.
Irreducibility and factoring enumerate nothing: both take polynomial time,
by the distinct-degree sieve and Cantor-Zassenhaus splitting.
"""

from __future__ import annotations

import functools
import random
import re

from .fields import FiniteField, _power

NEG_INF = float("-inf")

DEFAULT_ENUM_CAP = 2**20


class CapExceededError(ValueError):
    """An exhaustive enumeration would exceed the configured cap."""


class Polynomial:
    """A polynomial in T over a finite field, in canonical reduced form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, fld: FiniteField, coeffs=()):
        self.field = fld
        self.coeffs = _stripped(list(coeffs))

    # -- constructors --

    @staticmethod
    def zero(fld: FiniteField) -> "Polynomial":
        return _wrap(fld, ())

    @staticmethod
    def one(fld: FiniteField) -> "Polynomial":
        return _wrap(fld, (1,))

    @staticmethod
    def const(fld: FiniteField, val: int) -> "Polynomial":
        return Polynomial(fld, (val % fld.q,))

    @staticmethod
    def T(fld: FiniteField) -> "Polynomial":
        return _wrap(fld, (0, 1))

    @staticmethod
    def from_int(fld: FiniteField, encoding: int) -> "Polynomial":
        """Inverse of :meth:`to_int`: base-q digits are the coefficients."""
        cs = []
        while encoding:
            encoding, r = divmod(encoding, fld.q)
            cs.append(r)
        return Polynomial(fld, cs)

    # -- basic structure --

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_coeff(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def to_int(self) -> int:
        """Integer encoding with base-q digits, constant digit first.

        Induces the deterministic (lexicographic from the constant term)
        order used for canonical choices throughout.
        """
        enc = 0
        for c in reversed(self.coeffs):
            enc = enc * self.field.q + c
        return enc

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.field is other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.s, self.coeffs))

    # -- arithmetic --

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.field is not self.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        return _wrap(self.field, _sum(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field._neg_table
        return _wrap(self.field, tuple([neg[c] for c in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            other = Polynomial.const(self.field, other % self.field.p)
        self._check(other)
        return _wrap(self.field, _mul(self.field, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        return _wrap(self.field, _mul(self.field, (c,) if c else (), self.coeffs))

    def __divmod__(self, other):
        self._check(other)
        quot, rem = _divmod(self.field, self.coeffs, other.coeffs)
        return _wrap(self.field, quot), _wrap(self.field, rem)

    def __floordiv__(self, other):
        self._check(other)
        return _wrap(self.field, _divmod(self.field, self.coeffs, other.coeffs)[0])

    def __mod__(self, other):
        self._check(other)
        return _wrap(self.field, _divmod(self.field, self.coeffs, other.coeffs)[1])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        f = self.field
        return _wrap(f, _power(self.coeffs, e, functools.partial(_mul, f)) if e else (1,))

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv_val(self.coeffs[-1]))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return _wrap(self.field, _gcd(self.field, self.coeffs, other.coeffs))

    def modpow(self, e: int, mod: "Polynomial") -> "Polynomial":
        if e < 0:
            raise ValueError("negative modular power")
        if not e:
            return Polynomial.one(self.field) % mod
        x, f, m = (self % mod).coeffs, self.field, mod.coeffs
        return _wrap(f, _power(x, e, lambda a, b: _divmod(f, _mul(f, a, b), m)[1]))

    def modinv(self, mod: "Polynomial") -> "Polynomial":
        """Inverse modulo ``mod`` via the extended Euclidean algorithm."""
        f, minus_one = self.field, (self.field._neg_table[1],)
        r0, r1 = mod.coeffs, (self % mod).coeffs
        t0, t1 = (), (1,)  # t_i * self = r_i mod ``mod``
        while r1:
            q, r = _divmod(f, r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _sum(f, t0, _mul(f, _mul(f, minus_one, q), t1))
        if len(r0) != 1:
            raise ZeroDivisionError("element is not invertible modulo the given polynomial")
        return _wrap(f, _divmod(f, _mul(f, (f._inv_table[r0[0]],), t0), mod.coeffs)[1])

    def frobenius(self) -> "Polynomial":
        """self**p (coefficientwise p-power, exponents spread by p)."""
        if self.is_zero():
            return self
        f = self.field
        out = [0] * ((len(self.coeffs) - 1) * f.p + 1)
        out[::f.p] = map(f._frob_table.__getitem__, self.coeffs)
        return _wrap(f, tuple(out))

    # -- text format --

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                var = "T" if i == 1 else f"T^{i}"
                parts.append(head + var)
        return "+".join(parts)

    def __repr__(self):
        return f"Poly[GF({self.field.q})]({self})"


_new = object.__new__


def _wrap(fld: FiniteField, coeffs: tuple) -> Polynomial:
    """A Polynomial of a tuple that is empty or ends in a nonzero coefficient,
    with no copy and no strip.  Kernel results qualify when their top is
    known to be nonzero: products (F_q has no zero divisors), quotients,
    negations and sums of unequal lengths."""
    poly = _new(Polynomial)
    poly.field = fld
    poly.coeffs = coeffs
    return poly


def _stripped(cs: list) -> tuple:
    """A fresh coefficient list without its trailing zeros, as a tuple."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _sum(fld: FiniteField, a: tuple, b: tuple) -> tuple:
    """Sum of coefficient tuples, stripped."""
    if len(a) < len(b):
        a, b = b, a
    add = fld._add_table
    out = list(a)
    for i, c in enumerate(b):
        if c:
            out[i] = add[out[i]][c]
    if len(b) < len(a):
        return tuple(out)
    return _stripped(out)  # equal lengths: the tops may cancel


def _mul(fld: FiniteField, a: tuple, b: tuple) -> tuple:
    """Product of coefficient tuples, stripped, as F_q has no zero divisors.
    A constant factor is one row lookup per coefficient, and 1 costs none."""
    if not a or not b:
        return ()
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        return b if a[0] == 1 else tuple(map(fld._mul_table[a[0]].__getitem__, b))
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a  # the outer loop runs over the sparser factor
    add, mul = fld._add_table, fld._mul_table
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            row = mul[c]
            for k, d in enumerate(b, i):
                if d:
                    out[k] = add[out[k]][row[d]]
    return tuple(out)


def _gcd(fld: FiniteField, a: tuple, b: tuple) -> tuple:
    """Monic gcd of coefficient tuples by Euclid's algorithm; () for 0 and 0.
    A nonzero constant divides everything, so it ends the loop at once."""
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, _divmod(fld, a, b)[1]
    return a if not a or a[-1] == 1 else _mul(fld, (fld._inv_table[a[-1]],), a)


def _divmod(fld: FiniteField, a: tuple, b: tuple):
    """Long division of coefficient tuples: (quot, rem), both stripped."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    add, mul, neg = fld._add_table, fld._mul_table, fld._neg_table
    lead_row = mul[fld._inv_table[b[-1]]]
    low = b[:db]  # the divisor's top term cancels the remainder's
    rem = list(a)
    quot = [0] * (len(rem) - db)
    for shift in range(len(quot) - 1, -1, -1):
        top = rem[shift + db]
        if top:
            factor = lead_row[top]
            quot[shift] = factor
            row = mul[neg[factor]]  # rem -= factor * T^shift * b
            for k, d in enumerate(low, shift):
                if d:
                    rem[k] = add[rem[k]][row[d]]
    del rem[db:]
    return tuple(quot), _stripped(rem)


_TERM_RE = re.compile(r"^(?:(\d+)\*)?T(?:\^(\d+))?$|^(\d+)$")


def parse_poly(fld: FiniteField, text: str) -> Polynomial:
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    coeffs = {}  # T-exponent to encoding, so each term costs one table add
    for term in text.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad polynomial term {term!r}")
        coeff_s, exp_s, const_s = m.groups()
        if const_s is not None:
            c, k = int(const_s), 0
        else:
            c = int(coeff_s) if coeff_s else 1
            k = int(exp_s) if exp_s else 1
        if c >= fld.q:
            raise ValueError(f"coefficient {c} out of range for GF({fld.q})")
        coeffs[k] = fld._add_table[coeffs.get(k, 0)][c]
    return Polynomial(fld, [coeffs.get(e, 0) for e in range(max(coeffs) + 1)])


# -- enumeration --

def polys_below(fld: FiniteField, k: int):
    """Every polynomial of degree < k, in increasing :meth:`Polynomial.to_int` order."""
    for encoding in range(fld.q**k):
        yield Polynomial.from_int(fld, encoding)


def _monics(fld: FiniteField, d: int):
    """Every monic polynomial of degree d, in increasing encoding order.  It
    decodes each encoding in turn and so holds no row of F_q: the walk of
    :func:`canonical_prime` over a large field stops long before q."""
    top = fld.q**d
    for encoding in range(top, 2 * top):
        yield Polynomial.from_int(fld, encoding)


# -- irreducibility and factorization --

def is_irreducible(f: Polynomial) -> bool:
    """Distinct-degree test: f of degree n is irreducible iff gcd(T^(q^d) - T, f)
    is 1 for every d <= n/2, as each irreducible of degree d divides T^(q^d) - T."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    t = x = Polynomial.T(f.field)
    for _ in range(f.degree // 2):
        x = x.modpow(f.field.q, f)  # T^(q^d) mod f
        if f.gcd(x - t).degree > 0:
            return False
    return f.degree >= 1


def monic_irreducibles(fld: FiniteField, d: int):
    """All monic irreducibles of degree d, in increasing encoding order."""
    if d < 1:
        raise ValueError("degree must be positive")
    if fld.q**d > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"enumeration of degree {d} over GF({fld.q}) exceeds cap {DEFAULT_ENUM_CAP}")
    return [g for g in _monics(fld, d) if is_irreducible(g)]


@functools.lru_cache(maxsize=None)
def canonical_prime(fld: FiniteField, d: int) -> Polynomial:
    """Smallest-encoded monic irreducible of degree d (the default oracle prime).

    The walk from T^d + 0 up may pass a long reducible run (every T^4 + c
    when q = 3 mod 4), so it is bounded: each candidate's sieve is counted
    as d^2 * ceil(log2 q) products, and the walk raises CapExceededError
    once the candidates tried times that count pass ``DEFAULT_ENUM_CAP``."""
    work = d * d * (fld.q - 1).bit_length()
    for tried, g in enumerate(_monics(fld, d), 1):
        if tried * work > DEFAULT_ENUM_CAP:
            raise CapExceededError(f"search for a monic irreducible of degree {d} over "
                                   f"GF({fld.q}) exceeds cap {DEFAULT_ENUM_CAP}")
        if is_irreducible(g):
            return g
    raise AssertionError(f"no monic irreducible of degree {d} over GF({fld.q})")


def factor(f: Polynomial):
    """Factor into monic irreducibles, returned as a sorted list of (P, e).

    Distinct-degree sieving with T^(q^d) - T picks out, degree by degree,
    the product of the irreducible factors of each exact degree, and
    Cantor-Zassenhaus splits a product of several.  Factorisations are
    memoised per monic form; each call returns a fresh list.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    return list(_factor_monic(f.monic()))


@functools.lru_cache(maxsize=4096)
def _factor_monic(rem: Polynomial) -> tuple:
    out = []
    t = x = Polynomial.T(rem.field)
    d = 1
    while 2 * d <= rem.degree:  # rem has no factor of degree < d
        x = x.modpow(rem.field.q, rem)  # T^(q^d) mod rem
        g = rem.gcd(x - t)  # the product of rem's irreducible factors of degree d
        for p_ in _split_equal_degree(g, d) if g.degree > 0 else ():
            e = 0
            while not (step := divmod(rem, p_))[1]:
                rem = step[0]
                e += 1
            out.append((p_, e))
        d += 1
    if rem.degree >= 1:  # two factors of degree >= d would exceed its degree
        out.append((rem, 1))
    out.sort(key=lambda pe: (pe[0].degree, pe[0].to_int()))
    return tuple(out)


def _split_equal_degree(g: Polynomial, d: int):
    """Split a monic squarefree product of degree-d irreducibles by
    Cantor-Zassenhaus: for a random a, gcd(b, g) is a proper factor about half
    the time, where b = a^((q^d - 1)/2) - 1 for odd q and the trace
    a + a^2 + ... + a^(2^(sd - 1)) for q = 2^s.  The random source is seeded
    by g, so the work is deterministic.  A split takes about two draws, so a g
    not split after 32 deg(g) draws is no such product, and raises."""
    if g.degree == d:
        return [g]
    fld = g.field
    rng = random.Random(g.to_int())
    todo, primes, draws = [g], [], 0
    while todo:
        h = todo.pop()
        if h.degree == d:
            primes.append(h)
            continue
        if (draws := draws + 1) > 32 * g.degree:
            raise AssertionError(f"{g} is not a product of degree-{d} irreducibles")
        a = Polynomial(fld, [rng.randrange(fld.q) for _ in range(h.degree)])
        if fld.p == 2:
            b = y = a
            for _ in range(fld.s * d - 1):
                y = y * y % h
                b = b + y
        else:
            b = a.modpow((fld.q**d - 1) // 2, h) - Polynomial.one(fld)
        u = h.gcd(b)
        todo += [u, h // u] if 0 < u.degree < h.degree else [h]
    return primes


def phi(n: Polynomial) -> int:
    """Order of the unit group of F_q[T]/(N), multiplicative over factors."""
    if n.is_zero():
        raise ValueError("phi of the zero modulus")
    q = n.field.q
    total = 1
    for p_, e in factor(n):
        d = p_.degree
        total *= q ** (d * (e - 1)) * (q**d - 1)
    return total
