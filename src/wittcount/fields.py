"""Exact arithmetic in finite fields F_q, q = p^s.

A field is constructed once per (p, s) and cached, so equal parameters
always give the identical field object.  Its modulus is
``polys.canonical_prime(field(p), s)``: the smallest-encoded monic
irreducible of degree s over F_p (coefficients compared from the constant
term up), found and multiplied with the one F_p[T] arithmetic in ``polys``.
Each candidate costs one polynomial-time irreducibility test, but the
candidates come in encoding order, and at large p that order can pass a
run of about p reducibles first (every T^4 + c when p = 3 mod 4), so the
search is bounded by that module's enumeration cap.  The characteristic
is at most ``MAX_CHARACTERISTIC``, so that its primality test by trial
division takes at most 2^20 steps.

Elements are encoded as integers in [0, q): the base-p digits of the
encoding are the coordinates in the power basis, constant digit first.

Every field exposes its arithmetic as rows indexed by encodings:
``_add_table[a][b]``, ``_mul_table[a][b]``, ``_neg_table[a]``,
``_inv_table[a]``, ``_frob_table[a]`` (a^p), ``_root_table[a]`` (a^(1/p))
and ``_elems[a]``, the :class:`FqElem` of a.  For q <= 256 these are lists
and a tuple, so every operation is one index and builds no element; above
that they are :class:`_LazyRows` that compute each entry, elements too,
when it is looked up.  The ``*_val`` methods, the element operators and
the ``polys`` kernels read the rows and do not care which kind they are.
"""

from __future__ import annotations

import functools

MAX_EXTENSION_DEGREE = 16
MAX_CHARACTERISTIC = 2**40
_TABLE_LIMIT = 256  # list rows at and below this q, lazy rows above
_WP_CROSSCHECK_LIMIT = 64  # exhaustively validate the trace criterion below this q


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _power(x, e: int, mul):
    """x^e for e >= 1 under the associative ``mul``, right-to-left binary:
    square up to the lowest set bit, which starts the result, and never
    square past the top bit.  The package's one square-and-multiply loop."""
    while not e & 1:
        x = mul(x, x)
        e >>= 1
    result = x
    e >>= 1
    while e:
        x = mul(x, x)
        if e & 1:
            result = mul(result, x)
        e >>= 1
    return result


class _LazyRows:
    """Entries computed on lookup: ``rows[a]`` is ``fn(a)``.  A binary op's
    rows are ``_LazyRows`` of ``_LazyRows``, one per first operand."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return self.fn(a)


class FiniteField:
    """The finite field with q = p^s elements.

    Instances are obtained through :func:`field`; the constructor is not
    meant to be called twice for the same parameters.
    """

    def __init__(self, p: int, s: int):
        if p > MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} exceeds bound {MAX_CHARACTERISTIC}")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if not 1 <= s <= MAX_EXTENSION_DEGREE:
            raise ValueError(f"extension degree {s} out of range [1, {MAX_EXTENSION_DEGREE}]")
        self.p = p
        self.s = s
        self.q = p**s
        if s == 1:
            self.modulus = (0, 1)
        else:
            from .polys import canonical_prime  # polys imports this module

            self._modulus_poly = canonical_prime(field(p), s)
            self.modulus = self._modulus_poly.coeffs
        if self.q <= _TABLE_LIMIT:
            self._build_tables()
        else:
            self._lazy_tables()
        if self.q <= _WP_CROSSCHECK_LIMIT:
            self._crosscheck_wp_image()

    # -- raw value arithmetic (integers in [0, q)) --

    def add_val(self, a: int, b: int) -> int:
        return self._add_table[a][b]

    def neg_val(self, a: int) -> int:
        return self._neg_table[a]

    def sub_val(self, a: int, b: int) -> int:
        return self._add_table[a][self._neg_table[b]]

    def mul_val(self, a: int, b: int) -> int:
        return self._mul_table[a][b]

    def inv_val(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        return self._inv_table[a]

    def pow_val(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in " + repr(self))
            return 0 if e else 1
        return self._pow_unit(a, e % (self.q - 1))  # a^(q-1) = 1

    # -- the untabled arithmetic: digits, and products reduced mod the modulus --

    def _digits(self, val):
        p = self.p
        out = []
        for _ in range(self.s):
            val, r = divmod(val, p)
            out.append(r)
        return out

    def _undigits(self, digits):
        val = 0
        for d in reversed(digits):
            val = val * self.p + d
        return val

    def _add_untabled(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def _neg_untabled(self, a: int) -> int:
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def _mul_untabled(self, a: int, b: int) -> int:
        if self.s == 1:
            return a * b % self.p
        from .polys import Polynomial

        m = self._modulus_poly
        prod = Polynomial(m.field, self._digits(a)) * Polynomial(m.field, self._digits(b))
        return self._undigits((prod % m).coeffs)

    def _pow_untabled(self, a: int, e: int) -> int:
        """a^e for e >= 0 by square-and-multiply."""
        return _power(a, e, self._mul_untabled) if e else 1

    def _lazy_tables(self):
        """Rows over the untabled arithmetic, for fields too large to tabulate."""
        def binary(op):
            return _LazyRows(lambda a: _LazyRows(functools.partial(op, a)))

        def power(e):
            return _LazyRows(lambda a: self._pow_untabled(a, e))

        self._add_table = binary(self._add_untabled)
        self._mul_table = binary(self._mul_untabled)
        self._neg_table = _LazyRows(self._neg_untabled)
        self._inv_table = power(self.q - 2)
        self._frob_table = power(self.p)
        self._root_table = power(self.p ** (self.s - 1))  # Frobenius has order s
        self._pow_unit = self._pow_untabled
        self._elems = _LazyRows(functools.partial(FqElem, self))  # built on demand

    def _build_tables(self):
        """The add table one base-p digit at a time; everything else from the
        powers of a primitive element g (log/antilog): a*b = g^(log a + log b),
        so only O(q) untabled multiplies are made."""
        p, q = self.p, self.q
        add = [[0]]  # the zero-digit table; each pass prepends a constant digit
        for _ in range(self.s):
            size = len(add) * p
            add = [[(a + b) % p + p * add[a // p][b // p] for b in range(size)]
                   for a in range(size)]
        self._add_table = add
        self._neg_table = [row.index(0) for row in add]
        exp = self._primitive_powers()
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        logs = log[1:]

        def power(e):
            return [0] + [exp[la * e % (q - 1)] for la in logs]

        self._inv_table = power(q - 2)  # entry 0 is never read: inv_val rejects it
        self._frob_table = power(p)
        self._root_table = power(p ** (self.s - 1))  # Frobenius has order s
        exp2 = exp + exp  # log a + log b < 2(q - 1)
        self._mul_table = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        self._pow_unit = lambda a, e: exp[log[a] * e % (q - 1)]
        self._elems = tuple(FqElem(self, v) for v in range(q))  # one object per value

    def _primitive_powers(self):
        """[g^0, ..., g^(q-2)] for the smallest-encoded generator g of F_q^*; as
        ord(g) divides q - 1, powers not back at 1 after q - 1 products raise."""
        for g in range(1, self.q):
            powers, x = [1], g
            while x != 1:
                if len(powers) == self.q:
                    raise AssertionError(f"the powers of {g} in {self!r} do not return to 1")
                powers.append(x)
                x = self._mul_untabled(x, g)
            if len(powers) == self.q - 1:
                return powers
        raise AssertionError(f"no primitive element in {self!r}")

    # -- Frobenius and the Artin-Schreier operator --

    def frobenius_val(self, a: int) -> int:
        return self._frob_table[a]

    def pth_root_val(self, a: int) -> int:
        return self._root_table[a]

    def trace_val(self, a: int) -> int:
        """Absolute trace to F_p, returned as an integer in [0, p)."""
        acc, x = 0, a
        for _ in range(self.s):
            acc = self.add_val(acc, x)
            x = self.frobenius_val(x)
        # acc lies in the prime subfield, whose encoding is its constant digit
        if acc >= self.p:
            raise AssertionError(f"trace {acc} is not in F_{self.p}")
        return acc

    def wp_val(self, a: int) -> int:
        return self.sub_val(self.frobenius_val(a), a)

    def in_wp_image_val(self, a: int) -> bool:
        return self.trace_val(a) == 0

    def _crosscheck_wp_image(self):
        image = {self.wp_val(x) for x in range(self.q)}
        by_trace = {x for x in range(self.q) if self.trace_val(x) == 0}
        if image != by_trace:
            raise AssertionError(f"trace criterion disagrees with a^p - a image in {self!r}")

    @functools.lru_cache(maxsize=None)
    def wp_coset_rep_val(self, v: int) -> tuple:
        """(rep, a) from one scan of F_q: rep is the smallest-encoded element
        of v + (a^p - a image), and a the smallest-encoded a with
        v + a^p - a = rep (0 when v is its own representative)."""
        return min((self.add_val(v, self.wp_val(a)), a) for a in range(self.q))

    # -- element construction --

    def elem(self, val: int) -> "FqElem":
        return self._elems[val % self.q]

    def from_int(self, n: int) -> "FqElem":
        """Image of an ordinary integer (i.e. n mod p embedded in F_q)."""
        return self._elems[n % self.p]

    def zero(self) -> "FqElem":
        return self._elems[0]

    def one(self) -> "FqElem":
        return self._elems[1]

    def elements(self):
        return map(self._elems.__getitem__, range(self.q))

    def __repr__(self):
        return f"GF({self.q})"

    def __hash__(self):
        return hash((FiniteField, self.p, self.s))

    def __eq__(self, other):
        return self is other


class FqElem:
    """An element of a :class:`FiniteField`, wrapping its integer encoding."""

    __slots__ = ("field", "val")

    def __init__(self, field: FiniteField, val: int):
        self.field = field
        self.val = val

    def _rhs(self, other):
        if isinstance(other, FqElem):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other.val
        return other % self.field.p if isinstance(other, int) else NotImplemented

    def __add__(self, other):
        v, f = self._rhs(other), self.field
        return NotImplemented if v is NotImplemented else f._elems[f._add_table[self.val][v]]

    __radd__ = __add__

    def __sub__(self, other):
        v, f = self._rhs(other), self.field
        return (NotImplemented if v is NotImplemented
                else f._elems[f._add_table[self.val][f._neg_table[v]]])

    def __rsub__(self, other):
        v, f = self._rhs(other), self.field
        return (NotImplemented if v is NotImplemented
                else f._elems[f._add_table[v][f._neg_table[self.val]]])

    def __mul__(self, other):
        v, f = self._rhs(other), self.field
        return NotImplemented if v is NotImplemented else f._elems[f._mul_table[self.val][v]]

    __rmul__ = __mul__

    def __truediv__(self, other):
        v, f = self._rhs(other), self.field
        return (NotImplemented if v is NotImplemented
                else f._elems[f._mul_table[self.val][f.inv_val(v)]])

    def __rtruediv__(self, other):
        v, f = self._rhs(other), self.field
        return (NotImplemented if v is NotImplemented
                else f._elems[f._mul_table[v][f.inv_val(self.val)]])

    def __pow__(self, e):
        return self.field._elems[self.field.pow_val(self.val, e)]

    def __neg__(self):
        return self.field._elems[self.field._neg_table[self.val]]

    def __eq__(self, other):
        if isinstance(other, FqElem):
            return self.field is other.field and self.val == other.val
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.s, self.val))

    def __bool__(self):
        return self.val != 0

    @property
    def coeffs(self):
        return tuple(self.field._digits(self.val))

    def frobenius(self) -> "FqElem":
        return self.field._elems[self.field._frob_table[self.val]]

    def pth_root(self) -> "FqElem":
        return self.field._elems[self.field._root_table[self.val]]

    def trace(self) -> int:
        return self.field.trace_val(self.val)

    def wp(self) -> "FqElem":
        return self.field._elems[self.field.wp_val(self.val)]

    def in_wp_image(self) -> bool:
        return self.field.in_wp_image_val(self.val)

    def __str__(self):
        return str(self.val)

    def __repr__(self):
        return f"FqElem(GF({self.field.q}), {self.val})"


def field(p: int, s: int = 1) -> FiniteField:
    """The canonical F_{p^s}; repeated calls return the same object."""
    return _field(p, s)  # one cache key whether or not s is passed


@functools.lru_cache(maxsize=None)
def _field(p: int, s: int) -> FiniteField:
    return FiniteField(p, s)
