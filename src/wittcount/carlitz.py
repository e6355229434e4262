"""Carlitz-module polynomials: the additive polynomials C_M(u) over F_q[T].

C_M is determined by C_T(u) = T*u + u^q together with additivity in M and
C_(MN) = C_M o C_N.  Since only exponents u^(q^i) occur, C_M is an element
sum c_i tau^i of the twisted ring F_q[T]{tau}, where tau*c = c^q*tau and
composition is the product.  The coefficient of tau^k has degree
(deg M - k)*q^k but few terms, so C_M is stored here as {i: {e: c}} (tau-degree,
T-exponent, nonzero F_q encoding); ``CarlitzPoly`` holds them as Polynomials.

C_M is built by direct C_T steps, C_(T*N + m_0) = (T + tau) C_N + m_0, and
cached once per M; the generic product never builds it, so the compose check
compares that product with a C_MN made without it.  One kernel, ``_mul_into``,
adds term-pair products; each caller builds the multiplication-table rows of
a left factor's tau-coefficient once and reuses them for every right
coefficient.  ``_strip`` deletes cancelled zeros in place, so it is only ever
given fresh maps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .polys import CapExceededError, Polynomial
from .rationals import RationalFunction

DEFAULT_GCD_CAP = 2**16


@dataclass(frozen=True)
class CarlitzPoly:
    """C_M(u) = sum coeffs[i] * u^(q^i); coeffs[0] = M, coeffs[deg M] = lc(M)."""

    m: Polynomial
    coeffs: tuple  # tuple of (i, Polynomial), sorted by i, zero coefficients omitted

    def u_degree(self) -> int:
        return self.m.field.q ** self.coeffs[-1][0]

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


def _to_polys(fld, x: dict) -> tuple:
    """{i: {e: c}} as sorted (i, Polynomial) pairs."""
    return tuple((i, Polynomial(fld, [t.get(e, 0) for e in range(max(t) + 1)]))
                 for i, t in sorted(x.items()))


def _strip(x: dict) -> dict:
    """Delete zero coefficients, then empty tau-coefficients, in place: x must
    be a fresh map, never a cached C_M."""
    for i, terms in list(x.items()):
        if 0 in terms.values():  # one C-level scan skips the slots without zeros
            for e in [e for e, c in terms.items() if not c]:
                del terms[e]
        if not terms:
            del x[i]
    return x


def _mul_into(out: dict, rows: list, b: dict, stride: int, add) -> None:
    """out += a * b(T^stride), a given as rows (e, mul[c]) of its terms c*T^e;
    sums that cancel stay as zeros."""
    for f, d in b.items():
        f *= stride
        for e, row in rows:
            x = e + f
            out[x] = add[out.get(x, 0)][row[d]]


def _twisted_mul(fld, a: dict, b: dict) -> dict:
    """(sum a_i tau^i)(sum b_j tau^j): b_j^(q^i) only spreads exponents by
    q^i (c^q = c on F_q), so term pairs add c*d at tau^(i+j), T^(e + f*q^i)."""
    add, mul, q = fld._add_table, fld._mul_table, fld.q
    out = {}
    for i, ai in a.items():
        rows, stride = [(e, mul[c]) for e, c in ai.items()], q**i
        for j, bj in b.items():
            _mul_into(out.setdefault(i + j, {}), rows, bj, stride, add)
    return _strip(out)


def _twisted_add(fld, a: dict, b: dict) -> dict:
    add = fld._add_table
    out = {i: dict(terms) for i, terms in a.items()}
    for i, terms in b.items():
        acc = out.setdefault(i, {})
        for e, c in terms.items():
            acc[e] = add[acc.get(e, 0)][c]
    return _strip(out)


@functools.lru_cache(maxsize=None)
def _carlitz_sparse(m: Polynomial) -> dict:
    """C_M as {i: {e: c}}, shared by every caller, so never mutated."""
    if m.is_zero():
        raise ValueError("the Carlitz polynomial of zero is not defined")
    if m.is_constant():
        return {0: {0: m.coeffs[0]}}
    # M = T*N + m_0, and C_(T*N) = (T + tau) C_N: its tau^k coefficient is
    # T*n_k + n_(k-1)(T^q), since n^q = n(T^q) over F_q
    fld = m.field
    add, q = fld._add_table, fld.q
    n_part = _carlitz_sparse(Polynomial(fld, m.coeffs[1:]))
    out = {k: {e + 1: c for e, c in nk.items()} for k, nk in n_part.items()}
    for k, nk in n_part.items():
        acc = out.setdefault(k + 1, {})
        for f, d in nk.items():
            f *= q
            acc[f] = add[acc.get(f, 0)][d]
    if m.coeffs[0]:
        out[0][0] = m.coeffs[0]  # T*N has no constant term
    return _strip(out)


def _carlitz_coeffs(m: Polynomial) -> tuple:
    return _to_polys(m.field, _carlitz_sparse(m))


def carlitz_poly(m: Polynomial) -> CarlitzPoly:
    """Build C_M and check its structural invariants."""
    coeffs = _carlitz_coeffs(m)
    if coeffs[0] != (0, m) or coeffs[-1] != (m.degree, Polynomial.const(m.field, m.leading())):
        raise AssertionError("C_M is not M*u + ... + lc(M)*u^(q^deg M)")
    return CarlitzPoly(m=m, coeffs=coeffs)


def carlitz_eval(m: Polynomial, x):
    """C_M(x) for a polynomial or rational function x, by the digits of M from
    the top down: C_(T*N + m_0)(x) = T*C_N(x) + C_N(x)^q + m_0*x, where ^q is
    s Frobenius steps, so no step multiplies two long operands."""
    if m.is_zero():
        raise ValueError("the Carlitz polynomial of zero is not defined")
    if not isinstance(x, (Polynomial, RationalFunction)):
        raise TypeError(f"unsupported evaluation domain {type(x).__name__}")
    fld, kind = m.field, type(x)
    t, acc = kind.T(fld), kind.zero(fld)
    for c in reversed(m.coeffs):
        power = acc
        for _ in range(fld.s):
            power = power.frobenius()
        acc = t * acc + power
        if c:
            acc = acc + x * kind.const(fld, c)
    return acc


def carlitz_compose_check(m: Polynomial, n: Polynomial) -> bool:
    """C_(MN) = C_M o C_N = C_N o C_M and C_(M+N) = C_M + C_N, exactly."""
    if m.is_zero() or n.is_zero():
        raise ValueError("compose check needs nonzero inputs")
    fld = m.field
    cm, cn, prod = _carlitz_sparse(m), _carlitz_sparse(n), _carlitz_sparse(m * n)
    if _twisted_mul(fld, cm, cn) != prod or _twisted_mul(fld, cn, cm) != prod:
        return False
    s = m + n
    return _twisted_add(fld, cm, cn) == (_carlitz_sparse(s) if s else {})


# -- gcd of additive polynomials in the variable u --

def _lead_inverse(fld, a: dict) -> int:
    """The encoding of 1/beta for a's leading tau-coefficient beta in F_q^x."""
    lead = a[max(a)]
    if list(lead) != [0]:
        raise ValueError("leading tau-coefficient is not a nonzero constant: not a Carlitz input")
    return fld._inv_table[lead[0]]


def _right_rem(fld, a: dict, b: dict) -> dict:
    """R with A = Q*B + R and deg_tau R < deg_tau B.  B's lead beta is a
    constant, fixed by tau, so the quotient term that cancels a_m*tau^m is
    (a_m/beta)*tau^(m-k): one scale, then c*b_j^(q^s) at tau^(s+j)."""
    k = max(b)
    add, mul = fld._add_table, fld._mul_table
    neg_inv = mul[fld._neg_table[_lead_inverse(fld, b)]]
    low = [(j, bj) for j, bj in b.items() if j != k]
    r = {i: dict(terms) for i, terms in a.items()}  # a may be a cached C_M
    for m in range(max(r, default=-1), k - 1, -1):
        rows = [(e, mul[neg_inv[x]]) for e, x in r.pop(m, {}).items() if x]
        if rows:  # c = -(a_m/beta): the step adds c*tau^s*B
            s = m - k
            for j, bj in low:
                _mul_into(r.setdefault(s + j, {}), rows, bj, fld.q**s, add)
    return _strip(r)


def _gcd(fld, a: dict, b: dict) -> dict:
    """Monic gcd in u by right Euclid: A = Q*B + R gives A(u) = Q(B(u)) + R(u)
    and B(u) | Q(B(u)) (Ore 1933).  For Carlitz inputs each remainder is
    C_(M mod N), with constant lead; any other lead raises ValueError."""
    while b:
        a, b = b, _right_rem(fld, a, b)
    if not a:
        return {}
    row = fld._mul_table[_lead_inverse(fld, a)]
    return {i: {e: row[c] for e, c in terms.items()} for i, terms in a.items()}


def carlitz_gcd_check(m: Polynomial, n: Polynomial, cap: int = DEFAULT_GCD_CAP) -> bool:
    """gcd_u(C_M, C_N) = C_gcd(M, N), via exact gcd in the variable u."""
    if m.is_zero() or n.is_zero():
        raise ValueError("gcd check needs nonzero inputs")
    top = max(m.degree, n.degree)
    if m.field.q**top > cap:
        raise CapExceededError(f"u-degree q^{top} exceeds cap {cap}")
    got = _gcd(m.field, _carlitz_sparse(m), _carlitz_sparse(n))
    return got == _carlitz_sparse(m.gcd(n))  # Polynomial.gcd is monic, so C_gcd is too
