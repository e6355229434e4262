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

def _lead_inverse(a: dict) -> int:
    """The encoding of 1/beta for a's leading tau-coefficient beta in F_q^x."""
    lead = a[max(a)]
    if lead.degree != 0:
        raise ValueError(f"leading tau-coefficient {lead} is not a nonzero constant; "
                         "the input is not a Carlitz polynomial")
    return lead.field.inv_val(lead.coeffs[0])


def _right_rem(a: dict, b: dict) -> dict:
    """R with A = Q*B + R and deg_tau R < deg_tau B, in F_q[T]{tau}.

    B's leading coefficient beta is a constant, so beta^(q^s) = beta and the
    quotient term that cancels a_m*tau^m is (a_m/beta)*tau^(m-k): one scale,
    then c*b_j^(q^s) at tau^(s+j) for the lower b_j, with no denominator.
    """
    k = max(b)
    neg_inv = b[k].field.neg_val(_lead_inverse(b))
    low = [(j, bj) for j, bj in b.items() if j != k]
    r = dict(a)
    for m in range(max(r, default=-1), k - 1, -1):
        am = r.pop(m, None)
        if am is None:
            continue
        c = am.scale(neg_inv)  # -(a_m/beta): the step adds c*tau^s*B
        s = m - k
        for j, bj in low:
            term = c * _qpower_cached(bj, s)
            t = s + j
            if t in r:
                term = r[t] + term
                if term.is_zero():
                    del r[t]
                    continue
            r[t] = term
    return r


def additive_gcd(a: dict, b: dict) -> tuple:
    """Monic gcd of two Carlitz u-polynomials, as sorted (i, coeff) pairs.

    A = Q*B + R in F_q[T]{tau} means A(u) = Q(B(u)) + R(u), and B(u) divides
    Q(B(u)), so the right Euclid below is the gcd in u (Ore 1933).  For
    Carlitz inputs every remainder is C_(M mod N), whose leading coefficient
    is a constant; any other leading coefficient raises ValueError.
    """
    while b:
        a, b = b, _right_rem(a, b)
    if not a:
        return ()
    inv = _lead_inverse(a)
    return tuple(sorted((k, c.scale(inv)) for k, c in a.items()))


def carlitz_gcd_check(m: Polynomial, n: Polynomial, cap: int = DEFAULT_GCD_CAP) -> bool:
    """gcd_u(C_M, C_N) = C_gcd(M, N), via exact gcd in the variable u."""
    if m.is_zero() or n.is_zero():
        raise ValueError("gcd check needs nonzero inputs")
    q = m.field.q
    if q ** max(m.degree, n.degree) > cap:
        raise CapExceededError(f"u-degree q^{max(m.degree, n.degree)} exceeds cap {cap}")
    got = additive_gcd(dict(_carlitz_coeffs(m)), dict(_carlitz_coeffs(n)))
    return got == _carlitz_coeffs(m.gcd(n))  # Polynomial.gcd is monic, so C_gcd is too
