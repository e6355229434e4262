"""Carlitz-module polynomials: the additive polynomials C_M(u) over F_q[T].

C_M is determined by C_T(u) = T*u + u^q together with additivity in M and
C_(MN) = C_M o C_N.  Since only exponents u^(q^i) occur, C_M is an element
sum c_i tau^i of the twisted ring F_q[T]{tau}, where tau*c = c^q*tau and
composition is the product.  The coefficient of tau^k has degree
(deg M - k)*q^k but few terms, so C_M is stored here as {i: {e: c}} (tau-degree,
T-exponent, nonzero F_q encoding); ``CarlitzPoly`` holds them as Polynomials.

C_M is built by direct C_T steps, C_(T*N + m_0) = (T + tau) C_N + m_0, and
memoised for inputs and prefixes N; the compose check builds C_MN by one step
and drops it (a seed-0 carlitz-grid pass reads its 1,570 products again 230
times, and they held over half the memo), and compares it with the generic
product, which never builds it.  The gcd check walks the Euclid chain of M
and N and compares each right remainder of C_M by C_N with the memoised
C_(M mod N); no gcd in u is built.  One kernel, ``_mul_into``, adds term-pair
products; each caller builds the multiplication-table rows of a left factor's
tau-coefficient once and reuses them for every right coefficient.  ``_strip``
deletes cancelled zeros in place, so it is only ever given fresh maps.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .polys import CapExceededError, Polynomial
from .rationals import RationalFunction

DEFAULT_GCD_CAP = 2**16


class CarlitzPoly(namedtuple("CarlitzPoly", "m coeffs")):
    """C_M(u) = sum coeffs[i] * u^(q^i); coeffs[0] = M, coeffs[deg M] = lc(M)."""

    __slots__ = ()  # coeffs: tuple of (i, Polynomial), sorted by i, zero coefficients omitted

    def u_degree(self) -> int:
        return self.m.field.q ** self.coeffs[-1][0]

    def serialize(self) -> list:
        return [[i, str(c)] for i, c in self.coeffs]


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


def _carlitz_step(m: Polynomial) -> dict:
    """C_M as a fresh map, by one digit step from the memoised C_(M // T)."""
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


@functools.lru_cache(maxsize=None)
def _carlitz_sparse(m: Polynomial) -> dict:
    """C_M as {i: {e: c}}, shared by every caller, so never mutated."""
    return _carlitz_step(m)


def carlitz_poly(m: Polynomial) -> CarlitzPoly:
    """Build C_M and check its structural invariants."""
    coeffs = _to_polys(m.field, _carlitz_sparse(m))
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
    cm, cn, prod = _carlitz_sparse(m), _carlitz_sparse(n), _carlitz_step(m * n)
    if _twisted_mul(fld, cm, cn) != prod or _twisted_mul(fld, cn, cm) != prod:
        return False
    s = m + n
    return _twisted_add(fld, cm, cn) == (_carlitz_sparse(s) if s else {})


# -- gcd of additive polynomials in the variable u --

def _right_rem(fld, a: dict, b: dict) -> dict:
    """R with A = Q*B + R and deg_tau R < deg_tau B.  B's lead beta is a
    constant, fixed by tau, so the quotient term that cancels a_m*tau^m is
    (a_m/beta)*tau^(m-k): one scale, then c*b_j^(q^s) at tau^(s+j)."""
    k = max(b)
    if list(b[k]) != [0]:
        raise ValueError("leading tau-coefficient is not a nonzero constant: not a Carlitz input")
    add, mul = fld._add_table, fld._mul_table
    neg_inv = mul[fld._neg_table[fld._inv_table[b[k][0]]]]
    low = [(j, bj) for j, bj in b.items() if j != k]
    r = {i: dict(terms) for i, terms in a.items()}  # a may be a cached C_M
    for m in range(max(r, default=-1), k - 1, -1):
        rows = [(e, mul[neg_inv[x]]) for e, x in r.pop(m, {}).items() if x]
        if rows:  # c = -(a_m/beta): the step adds c*tau^s*B
            s = m - k
            for j, bj in low:
                _mul_into(r.setdefault(s + j, {}), rows, bj, fld.q**s, add)
    return _strip(r)


def carlitz_gcd_check(m: Polynomial, n: Polynomial) -> bool:
    """gcd_u(C_M, C_N) = C_gcd(M, N), up to u-degree DEFAULT_GCD_CAP.  A right
    remainder keeps the u-gcd (A = Q*B + R gives A(u) = Q(B(u)) + R(u), Ore
    1933), and as C is a ring map and C_N's lead a constant, the right
    remainder of C_M by C_N is C_(M mod N) exactly: each step is compared."""
    if m.is_zero() or n.is_zero():
        raise ValueError("gcd check needs nonzero inputs")
    fld = m.field
    top = max(m.degree, n.degree)
    if fld.q**top > DEFAULT_GCD_CAP:
        raise CapExceededError(f"u-degree q^{top} exceeds cap {DEFAULT_GCD_CAP}")
    while n:
        m, n, r = n, m % n, _right_rem(fld, _carlitz_sparse(m), _carlitz_sparse(n))
        if r != (_carlitz_sparse(n) if n else {}):
            return False
    return True
