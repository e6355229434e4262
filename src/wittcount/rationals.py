"""The rational function field F_q(T): reduced fractions and partial fractions.

A value is stored as ``num/den`` with ``den`` monic and gcd(num, den) = 1;
zero is ``0/1``.  The text format is ``num`` for polynomials and ``num/den``
otherwise, each side parenthesised when it contains a ``+``, for instance
``1/T^2`` or ``(T^2+1)/(T^3+T)``.  An operator takes a RationalFunction over
the same field, and ``*`` an int too, as n mod p; there is no ``/``.
"""

from __future__ import annotations

import functools

from .fields import FiniteField
from .polys import Polynomial, _divmod, _gcd, _mul, _sum, _wrap, factor, parse_poly


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            den = Polynomial.one(num.field)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.field is not den.field:
            raise ValueError("numerator and denominator over different fields")
        if den.degree > 0 and (g := num.gcd(den)).degree > 0:  # monic den when num = 0
            num, den = num // g, den // g
        if (lead := den.leading()) != 1:
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
    def const(fld: FiniteField, val) -> "RationalFunction":
        return RationalFunction(Polynomial.const(fld, val))

    @property
    def field(self) -> FiniteField:
        return self.num.field

    def is_zero(self) -> bool:
        return not self.num.coeffs

    def is_poly(self) -> bool:
        return self.den.degree == 0

    # -- arithmetic --

    def _check(self, other):
        if not isinstance(other, RationalFunction):
            raise TypeError(f"expected RationalFunction, got {type(other).__name__}")
        if other.field is not self.field:
            raise ValueError("rational functions over different fields")

    def _add(self, c: tuple, d: tuple) -> "RationalFunction":
        """self + c/d, for coefficient tuples with c/d reduced and d monic,
        reduced by construction (Henrici): with g = gcd(b, d), t = a*(d/g) +
        c*(b/g) is prime to b/g and to d/g, so only gcd(t, g) can cancel.
        The steps run on the tuple kernels of ``polys``, and only the result
        is wrapped; over denominators 1 it is a plain sum."""
        f = self.num.field
        a, b = self.num.coeffs, self.den.coeffs
        if len(b) == 1 or len(d) == 1 or len(g := _gcd(f, b, d)) == 1:
            return RationalFunction._raw(_wrap(f, _sum(f, _mul(f, a, d), _mul(f, c, b))),
                                         _wrap(f, _mul(f, b, d)))
        b1 = _divmod(f, b, g)[0]
        t = _sum(f, _mul(f, a, _divmod(f, d, g)[0]), _mul(f, c, b1))
        if not t:
            return RationalFunction.zero(f)
        if len(g2 := _gcd(f, t, g)) > 1:
            t, d = _divmod(f, t, g2)[0], _divmod(f, d, g2)[0]
        return RationalFunction._raw(_wrap(f, t), _wrap(f, _mul(f, b1, d)))

    def _mul(self, c: tuple, d: tuple) -> "RationalFunction":
        """self * c/d, for coefficient tuples with c/d reduced and d monic:
        cancelling gcd(a, d) and gcd(c, b) first leaves the product reduced."""
        f = self.num.field
        a, b = self.num.coeffs, self.den.coeffs
        if not a or not c:
            return RationalFunction.zero(f)
        if len(a) > 1 < len(d) and len(g1 := _gcd(f, a, d)) > 1:
            a, d = _divmod(f, a, g1)[0], _divmod(f, d, g1)[0]
        if len(c) > 1 < len(b) and len(g2 := _gcd(f, c, b)) > 1:
            c, b = _divmod(f, c, g2)[0], _divmod(f, b, g2)[0]
        return RationalFunction._raw(_wrap(f, _mul(f, a, c)), _wrap(f, _mul(f, b, d)))

    def __add__(self, other):
        self._check(other)
        return self._add(other.num.coeffs, other.den.coeffs)

    def __sub__(self, other):
        self._check(other)
        return self._add((-other.num).coeffs, other.den.coeffs)

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):  # n acts as n mod p, the constant n mod p over 1
            return self._mul(Polynomial.const(self.field, other % self.field.p).coeffs, (1,))
        self._check(other)
        return self._mul(other.num.coeffs, other.den.coeffs)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return RationalFunction._raw(self.num**e, self.den**e)  # coprime stays coprime

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num.coeffs)

    def frobenius(self) -> "RationalFunction":
        """self**p; numerator and denominator stay coprime and the
        denominator stays monic, so no re-reduction is needed."""
        return RationalFunction._raw(self.num.frobenius(), self.den.frobenius())

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
    parts = _split_top_level(text, "/")
    if len(parts) > 2:
        raise ValueError(f"more than one top-level '/' in {text!r}")
    num, *den = [parse_poly(fld, _strip_parens(part)) for part in parts]
    if den and den[0].is_zero():
        raise ValueError(f"zero denominator in {text!r}")
    return RationalFunction(num, *den)


def _split_top_level(text: str, sep: str) -> list:
    """The pieces of ``text`` between the ``sep`` characters that no
    parenthesis encloses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and not depth:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _strip_parens(text: str) -> str:
    """``text`` less one outer pair of parentheses.  Any other parenthesis,
    as in "(T)+(1)" or an unbalanced text, is left for ``parse_poly`` to reject."""
    return text[1:-1] if text.startswith("(") and text.endswith(")") else text


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
