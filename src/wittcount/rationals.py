"""The rational function field F_q(T): reduced fractions and partial fractions.

A value is stored as ``num/den`` with ``den`` monic and gcd(num, den) = 1;
zero is ``0/1``.  The text format is ``num`` for polynomials and ``num/den``
otherwise, each side parenthesised when it contains a ``+``, for instance
``1/T^2`` or ``(T^2+1)/(T^3+T)``.
"""

from __future__ import annotations

import functools

from .fields import FiniteField, FqElem
from .polys import Polynomial, factor, parse_poly


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            den = Polynomial.one(num.field)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.field is not den.field:
            raise ValueError("numerator and denominator over different fields")
        if num.is_zero():
            num, den = num, Polynomial.one(num.field)
        elif den.degree == 0:
            if den.coeffs[0] != 1:
                num = num.scale(den.field.inv_val(den.coeffs[0]))
            den = Polynomial.one(num.field)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading()
            if lead != 1:
                inv = den.field.inv_val(lead)
                num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors --

    @staticmethod
    def _raw(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Skip normalization; caller must guarantee reduced form, monic den."""
        rf = object.__new__(RationalFunction)
        rf.num = num
        rf.den = den
        return rf

    @staticmethod
    def zero(fld: FiniteField) -> "RationalFunction":
        return RationalFunction._raw(Polynomial.zero(fld), Polynomial.one(fld))

    @staticmethod
    def one(fld: FiniteField) -> "RationalFunction":
        return RationalFunction._raw(Polynomial.one(fld), Polynomial.one(fld))

    @staticmethod
    def const(fld: FiniteField, val) -> "RationalFunction":
        return RationalFunction(Polynomial.const(fld, val))

    @staticmethod
    def T(fld: FiniteField) -> "RationalFunction":
        return RationalFunction(Polynomial.T(fld))

    @property
    def field(self) -> FiniteField:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def is_constant(self) -> bool:
        return self.is_poly() and self.num.is_constant()

    # -- arithmetic --

    def _coerce(self, other):
        fld = self.field
        if isinstance(other, RationalFunction):
            if other.field is not fld:
                raise ValueError("rational functions over different fields")
            return other
        if isinstance(other, int):
            # ordinary integers act through the ring map n -> n mod p
            other = Polynomial.const(fld, other % fld.p)
        elif isinstance(other, FqElem):
            other = Polynomial.const(fld, other)  # rejects another field's element
        elif not isinstance(other, Polynomial):
            return None
        elif other.field is not fld:
            raise ValueError("rational function and polynomial over different fields")
        return RationalFunction._raw(other, Polynomial.one(fld))

    def _add(self, c: Polynomial, d: Polynomial) -> "RationalFunction":
        """self + c/d, c/d reduced with d monic, reduced by construction
        (Henrici): with g = gcd(b, d), t = a*(d/g) + c*(b/g) is prime to b/g
        and to d/g, so only gcd(t, g) can cancel."""
        a, b = self.num, self.den
        if b.degree == 0 or d.degree == 0 or (g := b.gcd(d)).degree == 0:
            return RationalFunction._raw(a * d + c * b, b * d)
        b1 = b // g
        t = a * (d // g) + c * b1
        if t.is_zero():
            return RationalFunction.zero(t.field)
        g2 = t.gcd(g)
        if g2.degree > 0:
            t, d = t // g2, d // g2
        return RationalFunction._raw(t, b1 * d)

    def _mul(self, c: Polynomial, d: Polynomial) -> "RationalFunction":
        """self * c/d, c/d reduced with d monic: cancelling gcd(a, d) and
        gcd(c, b) first leaves the product reduced."""
        a, b = self.num, self.den
        if a.is_zero() or c.is_zero():
            return RationalFunction.zero(a.field)
        if a.degree > 0 < d.degree and (g1 := a.gcd(d)).degree > 0:
            a, d = a // g1, d // g1
        if c.degree > 0 < b.degree and (g2 := c.gcd(b)).degree > 0:
            c, b = c // g2, b // g2
        return RationalFunction._raw(a * c, b * d)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(-o.num, o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._mul(o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        inv = self.field.inv_val(o.num.leading())
        return self._mul(o.den.scale(inv), o.num.scale(inv))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if e < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-e)
        return RationalFunction._raw(self.num**e, self.den**e)  # coprime stays coprime

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.field is other.field and self.num == other.num and self.den == other.den
        if isinstance(other, Polynomial):
            return self.is_poly() and self.num == other
        return NotImplemented

    def __hash__(self):
        if self.is_poly():  # equal to its numerator, so hashed like it
            return hash(self.num)
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def frobenius(self) -> "RationalFunction":
        """self**p; numerator and denominator stay coprime and the
        denominator stays monic, so no re-reduction is needed."""
        return RationalFunction._raw(self.num.frobenius(), self.den.frobenius())

    def wp(self) -> "RationalFunction":
        return self.frobenius() - self

    def poly_and_proper_parts(self):
        """Split into polynomial part and proper fraction part (exact sum)."""
        q, r = divmod(self.num, self.den)  # gcd(r, den) = gcd(num, den) = 1
        return q, RationalFunction._raw(r, self.den) if r else RationalFunction.zero(r.field)

    # -- text format --

    @staticmethod
    def _wrap(s: str) -> str:
        return f"({s})" if "+" in s else s

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return f"{self._wrap(str(self.num))}/{self._wrap(str(self.den))}"

    def __repr__(self):
        return f"RF[GF({self.field.q})]({self})"


def parse_rational(fld: FiniteField, text: str) -> RationalFunction:
    text = text.replace(" ", "")
    slash = _top_level_slash(text)
    if slash is None:
        return RationalFunction(parse_poly(fld, _strip_parens(text)))
    num = parse_poly(fld, _strip_parens(text[:slash]))
    den = parse_poly(fld, _strip_parens(text[slash + 1:]))
    if den.is_zero():
        raise ValueError(f"zero denominator in {text!r}")
    return RationalFunction(num, den)


def _top_level_slash(text: str):
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return i
    return None


def _strip_parens(text: str) -> str:
    if text.startswith("(") and text.endswith(")"):
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    return text  # parens do not wrap the whole expression
        return text[1:-1]
    return text


def partial_fractions(f: RationalFunction):
    """Decompose f as (polynomial part, [(P, e, Q)]) with exact reconstruction.

    Each P is monic irreducible, e is the exact pole order (gcd(Q, P) = 1)
    and deg Q < deg P^e.  Terms are sorted by (deg P, encoding of P), as
    :func:`factor` sorts them.  Each denominator's plan is computed once; then
    a Q costs a product and a reduction, or nothing for a single prime power.
    """
    poly_part, frac = f.poly_and_proper_parts()  # frac = 0/1 has the empty plan
    return poly_part, [(p_, e, frac.num if inv is None else frac.num * inv % pe)
                       for p_, e, pe, inv in _plan(frac.den)]  # num is a unit mod den


@functools.lru_cache(maxsize=4096)
def _plan(den: Polynomial) -> tuple:
    """(P, e, P^e, (den/P^e)^-1 mod P^e) per prime power of the monic den,
    with the inverse None when den is that prime power."""
    factors = factor(den)
    if len(factors) == 1:
        return ((*factors[0], den, None),)
    return tuple((p_, e, pe, (den // pe).modinv(pe)) for p_, e in factors for pe in [p_**e])


def pole_part(term) -> RationalFunction:
    p_, e, q_i = term
    return RationalFunction._raw(q_i, p_**e)  # a partial_fractions term: Q != 0 prime to monic P
