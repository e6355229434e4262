"""Carlitz-module polynomials: the additive polynomials C_M(u) over F_q[T].

C_M is determined by C_T(u) = T*u + u^q together with additivity in M and
C_(MN) = C_M o C_N.  Since only exponents u^(q^i) occur, a polynomial is
stored sparsely as a map from i to the coefficient of u^(q^i); composition
is multiplication in the twisted polynomial ring where moving a coefficient
past the q-power symbol raises it to the q-th power.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .fields import FqElem
from .polys import CapExceededError, Polynomial
from .rationals import RationalFunction

DEFAULT_GCD_CAP = 2**16


@dataclass(frozen=True)
class CarlitzPoly:
    """C_M(u) = sum coeffs[i] * u^(q^i); coeffs[0] = M, coeffs[deg M] = lc(M)."""

    m: Polynomial
    coeffs: tuple  # tuple of (i, Polynomial), sorted by i, zero coefficients omitted

    def coeff_map(self) -> dict:
        return dict(self.coeffs)

    @property
    def tau_degree(self) -> int:
        return self.coeffs[-1][0]

    def u_degree(self) -> int:
        return self.m.field.q ** self.tau_degree

    def serialize(self) -> list:
        return [[i, str(c)] for i, c in self.coeffs]

    def __str__(self):
        q = self.m.field.q
        parts = []
        for i, c in reversed(self.coeffs):
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            u = "u" if i == 0 else f"u^{q**i}"
            parts.append(u if cs == "1" else f"{cs}*{u}")
        return "+".join(parts)


@functools.lru_cache(maxsize=65536)
def _qpower_cached(poly: Polynomial, k: int) -> Polynomial:
    return poly.qpower(k)


def _twisted_mul(a: dict, b: dict) -> dict:
    """(sum a_i tau^i)(sum b_j tau^j) with tau*c = c^q*tau, as coefficient dicts."""
    out = {}
    for i, ai in a.items():
        for j, bj in b.items():
            k = i + j
            term = ai * _qpower_cached(bj, i)
            if k in out:
                out[k] = out[k] + term
            else:
                out[k] = term
    return {k: v for k, v in out.items() if not v.is_zero()}


def _twisted_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


@functools.lru_cache(maxsize=None)
def _carlitz_coeffs(m: Polynomial) -> tuple:
    fld = m.field
    if m.is_zero():
        raise ValueError("the Carlitz polynomial of zero is not defined")
    if m.is_constant():
        return ((0, m),)
    # M = T*N + m_0, and C_(T*N) = C_T o C_N in the twisted ring
    n_part = dict(_carlitz_coeffs(m // Polynomial.T(fld)))
    c_t = {0: Polynomial.T(fld), 1: Polynomial.one(fld)}
    out = _twisted_mul(c_t, n_part)
    m0 = m.constant_coeff()
    if m0:
        out = _twisted_add(out, {0: Polynomial.const(fld, m0)})
    return tuple(sorted(out.items()))


def carlitz_poly(m: Polynomial) -> CarlitzPoly:
    """Build C_M and check its structural invariants."""
    coeffs = _carlitz_coeffs(m)
    cp = CarlitzPoly(m=m, coeffs=coeffs)
    cmap = cp.coeff_map()
    if cmap.get(0, Polynomial.zero(m.field)) != m:
        raise AssertionError("u-linear coefficient of C_M is not M")
    if cp.tau_degree != m.degree or cmap[m.degree].degree != 0 \
            or cmap[m.degree].constant_coeff() != m.leading():
        raise AssertionError("leading coefficient of C_M is not lc(M)")
    return cp


def _const_like(x, fld, encoding: int):
    if isinstance(x, Polynomial):
        return Polynomial.const(fld, encoding)
    if isinstance(x, RationalFunction):
        return RationalFunction(Polynomial.const(fld, encoding))
    if isinstance(x, FqElem):
        return FqElem(fld, encoding)
    raise TypeError(f"unsupported evaluation domain {type(x).__name__}")


def carlitz_eval(m: Polynomial, x, t_image=None):
    """Evaluate C_M at x in any F_q[T]-algebra with +, *, ** arithmetic.

    ``t_image`` is the image of T in the target algebra; it defaults to T
    itself when x is a polynomial or rational function over the same field.
    """
    fld = m.field
    if t_image is None:
        if isinstance(x, Polynomial):
            t_image = Polynomial.T(fld)
        elif isinstance(x, RationalFunction):
            t_image = RationalFunction.T(fld)
        else:
            raise ValueError("t_image is required for this evaluation domain")

    def map_coeff(c: Polynomial):
        acc = _const_like(x, fld, 0)
        for enc in reversed(c.coeffs):
            acc = acc * t_image + _const_like(x, fld, enc)
        return acc

    q = fld.q
    acc = _const_like(x, fld, 0)
    power = x
    last_i = 0
    for i, c in carlitz_poly(m).coeffs:
        power = power ** (q ** (i - last_i))
        last_i = i
        acc = acc + map_coeff(c) * power
    return acc


def carlitz_compose_check(m: Polynomial, n: Polynomial) -> bool:
    """C_(MN) = C_M o C_N = C_N o C_M and C_(M+N) = C_M + C_N, exactly."""
    if m.is_zero() or n.is_zero():
        raise ValueError("compose check needs nonzero inputs")
    cm = dict(_carlitz_coeffs(m))
    cn = dict(_carlitz_coeffs(n))
    prod = dict(_carlitz_coeffs(m * n))
    if _twisted_mul(cm, cn) != prod:
        return False
    if _twisted_mul(cn, cm) != prod:
        return False
    s = m + n
    expected_sum = dict(_carlitz_coeffs(s)) if not s.is_zero() else {}
    return _twisted_add(cm, cn) == expected_sum


# -- gcd of additive polynomials in the variable u --

def _rf(c) -> RationalFunction:
    return c if isinstance(c, RationalFunction) else RationalFunction(c)


def _qpow_rf(c: RationalFunction) -> RationalFunction:
    # coprimality and monicity survive the q-power ring map
    return RationalFunction._raw(c.num.qpower(1), c.den.qpower(1))


def _acc(d: dict, k, v):
    d[k] = d[k] + v if k in d else v


def _additive_rem(a: dict, b: dict) -> dict:
    """The unique polynomial remainder A mod B for additive A, B.

    Remainders of additive polynomials are additive: u^(q^(j+1)) mod B is
    the q-power of u^(q^j) mod B, reduced once more at the top, so the
    whole division happens on the sparse q-exponent representation.
    Coefficients here are rational functions.
    """
    bdeg = max(b)
    blead = b[bdeg]
    fold = {j: -(c / blead) for j, c in b.items() if j != bdeg}  # u^(q^bdeg) mod B
    adeg = max(a)
    reduced = {bdeg: dict(fold)}  # j -> coefficients of u^(q^j) mod B
    current = dict(fold)
    for j in range(bdeg + 1, adeg + 1):
        nxt = {}
        for i, c in current.items():
            cq = _qpow_rf(c)
            if i + 1 == bdeg:
                for k, fc in fold.items():
                    _acc(nxt, k, cq * fc)
            else:
                _acc(nxt, i + 1, cq)
        current = {k: v for k, v in nxt.items() if not v.is_zero()}
        reduced[j] = current
    out = {}
    for j, c in a.items():
        if j < bdeg:
            _acc(out, j, c)
        else:
            for k, rc in reduced[j].items():
                _acc(out, k, c * rc)
    return {k: v for k, v in out.items() if not v.is_zero()}


def _primitive(a: dict) -> dict:
    """Clear denominators and divide out the polynomial content; the result
    has coprime R_T coefficients (gcd scaling is irrelevant for gcds)."""
    if not a:
        return {}
    den = None
    for c in a.values():
        den = c.den if den is None else (den * c.den) // den.gcd(c.den)
    ints = {k: (c.num * (den // c.den)) for k, c in a.items()}
    content = None
    for c in ints.values():
        content = c if content is None else content.gcd(c)
    content = content.monic()
    return {k: c // content for k, c in ints.items()}


def _monicize(a: dict) -> tuple:
    """Divide by the leading u-coefficient; canonical up to nothing."""
    if not a:
        return ()
    lead = _rf(a[max(a)])
    return tuple(sorted((k, _rf(c) / lead) for k, c in a.items()))


def additive_gcd(a: dict, b: dict) -> tuple:
    """Monic gcd of two additive u-polynomials, as sorted (i, coeff) pairs."""
    r0 = _primitive({k: _rf(v) for k, v in a.items()})
    r1 = _primitive({k: _rf(v) for k, v in b.items()})
    if max(r0, default=-1) < max(r1, default=-1):
        r0, r1 = r1, r0
    while r1:
        rem = _additive_rem({k: _rf(v) for k, v in r0.items()},
                            {k: _rf(v) for k, v in r1.items()})
        r0, r1 = r1, _primitive(rem)
    return _monicize(r0)


def carlitz_gcd_check(m: Polynomial, n: Polynomial, cap: int = DEFAULT_GCD_CAP) -> bool:
    """gcd_u(C_M, C_N) = C_gcd(M, N), via exact gcd in the variable u."""
    if m.is_zero() or n.is_zero():
        raise ValueError("gcd check needs nonzero inputs")
    q = m.field.q
    if q ** max(m.degree, n.degree) > cap:
        raise CapExceededError(f"u-degree q^{max(m.degree, n.degree)} exceeds cap {cap}")
    got = additive_gcd(dict(_carlitz_coeffs(m)), dict(_carlitz_coeffs(n)))
    expected = _monicize(dict(_carlitz_coeffs(m.gcd(n))))
    return got == expected
