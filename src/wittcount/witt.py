"""Truncated p-typical Witt vectors of length n.

The ring operations are defined by universal integer polynomials obtained
from the ghost-component recursion: writing g_m(W) = sum_{j<=m} p^(j-1) *
W_j^(p^(m-j)), the sum/product/negation polynomials are solved so that the
ghost map turns them into ordinary +, *, - over any torsion-free ring.
All divisions by p in the solve are exact over the integers, which is
asserted, and the resulting tables are re-verified symbolically.

Each table is compiled once into a plan that one evaluator runs in any
commutative ring with ``+``, ``-``, ``*``, ``**``, truth testing and ``* int``:
over the plain integers, where the ghost map serves as a test oracle, the
plan keeps the integer coefficients; in characteristic p (field elements,
rational functions) they are reduced mod p, so terms that p divides are
gone.  Each ring maps an int into itself by its own ``* int``; this module
knows no coefficient type.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .fields import _power
from .polys import CapExceededError

MAX_WITT_LENGTH = 4
MAX_TABLE_BITS = 2**19  # (11, 3) and (3, 4) fit, (13, 3) and (5, 4) do not


class _IPoly:
    """Sparse multivariate polynomial over the integers.

    Monomials are dicts mapping exponent tuples to nonzero coefficients.
    Only what the ghost recursion needs is implemented.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = terms or {}

    @staticmethod
    def variable(nvars, idx):
        exps = [0] * nvars
        exps[idx] = 1
        return _IPoly(nvars, {tuple(exps): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return _IPoly(self.nvars, out)

    def scale(self, k):
        if k == 0:
            return _IPoly(self.nvars)
        return _IPoly(self.nvars, {e: c * k for e, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        return _IPoly(self.nvars, out)

    def __pow__(self, k):
        if k < 1:
            raise ValueError("_IPoly powers start at 1")
        return _power(self, k, operator.mul)

    def div_exact(self, k):
        out = {}
        for e, c in self.terms.items():
            q, r = divmod(c, k)
            if r:
                raise AssertionError(f"non-exact division by {k} in Witt table construction")
            out[e] = q
        return _IPoly(self.nvars, out)

    def __eq__(self, other):
        return self.nvars == other.nvars and self.terms == other.terms


def _ghost(polys, m, p):
    """g_m of a list of length-m polynomial components (1-indexed math, 0-indexed list)."""
    acc = _IPoly(polys[0].nvars)
    for j in range(1, m + 1):
        acc = acc + (polys[j - 1] ** (p ** (m - j))).scale(p ** (j - 1))
    return acc


def _solve_components(targets, p):
    """Components C with ghost_m(C) = targets[m-1] for every m, solved recursively."""
    comps = []
    for m in range(1, len(targets) + 1):
        acc = targets[m - 1]
        for i in range(1, m):
            acc = acc + (comps[i - 1] ** (p ** (m - i))).scale(-(p ** (i - 1)))
        comps.append(acc.div_exact(p ** (m - 1)))
    return comps


@dataclass(frozen=True)
class WittUniversalTables:
    p: int
    n: int
    sum_polys: tuple
    neg_polys: tuple
    prod_polys: tuple

    def verify_ghost_compatibility(self):
        """Re-derive the ghost identities symbolically; raises on mismatch."""
        p, n = self.p, self.n
        nv = 2 * n
        xs = [_IPoly.variable(nv, i) for i in range(n)]
        ys = [_IPoly.variable(nv, n + i) for i in range(n)]
        for m in range(1, n + 1):
            gx, gy = _ghost(xs, m, p), _ghost(ys, m, p)
            if _ghost(list(self.sum_polys), m, p) != gx + gy:
                raise AssertionError(f"ghost sum identity fails at level {m}")
            if _ghost(list(self.prod_polys), m, p) != gx * gy:
                raise AssertionError(f"ghost product identity fails at level {m}")
            if _ghost(list(self.neg_polys), m, p) != gx.scale(-1):
                raise AssertionError(f"ghost negation identity fails at level {m}")
        return True


def _table_bits(p: int, n: int) -> int:
    """Estimated bits of the top components and of the powers the solve builds
    for them: the monomials of weight p^(n-1), x_i and y_i weighing p^(i-1) (a
    sum's in all 2n variables, a product's in x and in y), times p^(n-1) bits."""
    top = p ** (n - 1)
    if top * top > MAX_TABLE_BITS:
        return top * top  # there are more than top monomials
    ways = [1] + [0] * top  # ways[k]: monomials of weight k in x_1..x_n
    for i in range(n):
        for k in range(p**i, top + 1):
            ways[k] += ways[k - p**i]
    return max(sum(ways[k] * ways[top - k] for k in range(top + 1)), ways[top] ** 2) * top


@functools.lru_cache(maxsize=None)
def witt_tables(p: int, n: int) -> WittUniversalTables:
    """Universal sum/negation/product polynomials for length n, cached per (p, n)."""
    if n < 1:
        raise ValueError("Witt length must be positive")
    if n > MAX_WITT_LENGTH:
        raise ValueError(f"Witt length {n} exceeds bound {MAX_WITT_LENGTH} "
                         "(tables grow super-exponentially)")
    if (bits := _table_bits(p, n)) > MAX_TABLE_BITS:
        raise CapExceededError(f"Witt tables for p={p}, n={n} would hold about {bits} bits "
                               f"per component, over the budget of {MAX_TABLE_BITS}")
    nv = 2 * n
    xs = [_IPoly.variable(nv, i) for i in range(n)]
    ys = [_IPoly.variable(nv, n + i) for i in range(n)]
    sum_targets = [_ghost(xs, m, p) + _ghost(ys, m, p) for m in range(1, n + 1)]
    prod_targets = [_ghost(xs, m, p) * _ghost(ys, m, p) for m in range(1, n + 1)]
    neg_targets = [_ghost(xs, m, p).scale(-1) for m in range(1, n + 1)]
    tables = WittUniversalTables(
        p=p,
        n=n,
        sum_polys=tuple(_solve_components(sum_targets, p)),
        neg_polys=tuple(_solve_components(neg_targets, p)),
        prod_polys=tuple(_solve_components(prod_targets, p)),
    )
    tables.verify_ghost_compatibility()
    return tables


@functools.lru_cache(maxsize=None)
def _plan(p: int, n: int, op: str, modular: bool) -> tuple:
    """The table ``op`` of ``witt_tables(p, n)`` compiled for evaluation: per
    output component, the terms ``(coeff, ((idx, e), ...))``, e >= 1.  For
    ``modular`` (characteristic p) the coefficients are reduced mod p, the
    zero ones dropped and, for p > 2, p - 1 stored as -1."""
    plan = []
    for poly in getattr(witt_tables(p, n), op):
        terms = []
        for exps, coeff in poly.terms.items():
            if modular and not (coeff := coeff % p):
                continue
            if modular and p > 2 and coeff == p - 1:
                coeff = -1
            terms.append((coeff, tuple((idx, e) for idx, e in enumerate(exps) if e)))
        plan.append(tuple(terms))
    return tuple(plan)


class WittVector:
    """A length-n Witt vector over integers, F_q, or F_q(T)."""

    __slots__ = ("p", "comps")

    def __init__(self, p: int, comps):
        comps = tuple(comps)
        if not comps:
            raise ValueError("empty Witt vector")
        first = comps[0]
        fld = getattr(first, "field", None)
        for c in comps[1:]:
            if type(c) is not type(first):
                raise ValueError("mixed component types in Witt vector")
            if getattr(c, "field", None) is not fld:
                raise ValueError("components over different fields")
        if fld is not None and fld.p != p:
            raise ValueError(f"component field has characteristic {fld.p}, not {p}")
        self.p = p
        self.comps = comps

    @staticmethod
    def _raw(p: int, comps: tuple) -> "WittVector":
        """Skip the checks; caller must guarantee nonempty comps of one domain."""
        wv = object.__new__(WittVector)
        wv.p, wv.comps = p, comps
        return wv

    @property
    def n(self) -> int:
        return len(self.comps)

    def _check(self, other: "WittVector"):
        if not isinstance(other, WittVector):
            raise TypeError("expected a WittVector")
        if self.p != other.p or self.n != other.n:
            raise ValueError("Witt vectors of different shape")
        if type(self.comps[0]) is not type(other.comps[0]):
            raise ValueError("Witt vectors over different coefficient domains")
        if getattr(self.comps[0], "field", None) is not getattr(other.comps[0], "field", None):
            raise ValueError("Witt vectors over different fields")

    @staticmethod
    def zero(p: int, n: int, like=0) -> "WittVector":
        return WittVector(p, (like * 0,) * n)

    def zero_like(self) -> "WittVector":
        return WittVector.zero(self.p, self.n, self.comps[0])

    def is_zero(self) -> bool:
        return not any(self.comps)

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return self.p == other.p and self.comps == other.comps

    def __hash__(self):
        return hash((self.p, self.comps))

    def _evaluate(self, op, values):
        """Run the plan of table ``op`` at ``values``.  Powers are shared across
        the output components; a term with a zero factor is skipped (exact, as
        the tables have no constant term) and a coefficient -1 is a subtraction.
        No component is empty, so one with every term skipped is a zero input."""
        live = [v if v else None for v in values]
        powers = {}  # (idx, e) -> x_idx^e, for nonzero x_idx only
        out = []
        for terms in _plan(self.p, self.n, op, not isinstance(self.comps[0], int)):
            acc = None
            for coeff, factors in terms:
                term = None
                for key in factors:
                    if (v := powers.get(key)) is None:
                        if (v := live[key[0]]) is None:
                            break
                        v = powers[key] = v if key[1] == 1 else v ** key[1]
                    term = v if term is None else term * v
                else:
                    if coeff == -1:
                        acc = -term if acc is None else acc - term
                        continue
                    if coeff != 1:
                        term = term * coeff
                    acc = term if acc is None else acc + term
            out.append(values[live.index(None)] if acc is None else acc)
        return WittVector._raw(self.p, tuple(out))

    def add(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return self._evaluate("sum_polys", self.comps + other.comps)

    def neg(self) -> "WittVector":
        return self._evaluate("neg_polys", self.comps)  # only x_0..x_(n-1) occur

    def sub(self, other: "WittVector") -> "WittVector":
        return self.add(other.neg())

    def mul(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return self._evaluate("prod_polys", self.comps + other.comps)

    __add__ = add
    __neg__ = neg
    __sub__ = sub
    __mul__ = mul

    def int_mul(self, m: int) -> "WittVector":
        """m-fold Witt sum by double-and-add: ``fields._power`` with Witt
        addition as its product.  Negatives go through neg()."""
        if m < 0:
            return self.neg().int_mul(-m)
        return _power(self, m, WittVector.add) if m else self.zero_like()

    def frobenius(self) -> "WittVector":
        if isinstance(self.comps[0], int):
            raise ValueError("Frobenius needs a characteristic-p coefficient domain")
        return WittVector._raw(self.p, tuple(c**self.p for c in self.comps))

    def wp(self) -> "WittVector":
        """The operator x -> Frobenius(x) - x (componentwise p-power, Witt minus)."""
        return self.frobenius().sub(self)

    def ghost(self):
        """Ghost coordinates; only defined over the exact integers."""
        if not isinstance(self.comps[0], int):
            raise ValueError("ghost map requires integer components (it is not injective in characteristic p)")
        p = self.p
        out = []
        for m in range(1, self.n + 1):
            out.append(sum(p ** (j - 1) * self.comps[j - 1] ** (p ** (m - j)) for j in range(1, m + 1)))
        return tuple(out)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"

    def __repr__(self):
        return f"WittVector(p={self.p}, {self})"


def parse_witt(fld, p: int, text: str) -> WittVector:
    """Parse "(c_1, ..., c_n)" with rational-function components."""
    from .rationals import _split_top_level, parse_rational

    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("Witt vector text must be parenthesised")
    comps = [parse_rational(fld, part.strip()) for part in _split_top_level(text[1:-1], ",")]
    return WittVector(p, comps)
