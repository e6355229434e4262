"""Truncated p-typical Witt vectors of length n.

The ring operations are defined by universal integer polynomials obtained
from the ghost-component recursion: writing g_m(W) = sum_{j<=m} p^(j-1) *
W_j^(p^(m-j)), the sum/product/negation polynomials are solved so that the
ghost map turns them into ordinary +, *, - over any torsion-free ring.
All divisions by p in the solve are exact over the integers, which is
asserted, and the resulting tables are re-verified symbolically.

Each table becomes a plan of terms, compiled once into one straight-line
function (``_plan_source`` is its text) for any commutative ring with ``+``,
``-``, ``*``, ``**``, truth testing and ``* int``: over the integers, where
the ghost map serves as a test oracle, the plan keeps the integer
coefficients; in characteristic p (field elements, rational functions) they
are reduced mod p, so terms that p divides are gone.  Each ring maps an int
into itself by its own ``* int``; this module knows no coefficient type.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple

from .fields import _power
from .polys import CapExceededError
from .rationals import _split_top_level, parse_rational

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
        return _IPoly(nvars, {tuple(int(i == idx) for i in range(nvars)): 1})

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
        return _IPoly(self.nvars, {e: c * k for e, c in self.terms.items() if k})

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
        if any(c % k for c in self.terms.values()):
            raise AssertionError(f"non-exact division by {k} in Witt table construction")
        return _IPoly(self.nvars, {e: c // k for e, c in self.terms.items()})

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


class WittUniversalTables(namedtuple("WittUniversalTables", "p n sum_polys neg_polys prod_polys")):
    __slots__ = ()

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


def _plan_source(p: int, n: int, op: str, modular: bool) -> str:
    """The text of the function that runs ``_plan(p, n, op, modular)`` at x0,
    x1, ... (x, then y for a sum or product), zi = ``not xi``.  A term runs
    only if none of its factors is zero (exact: the tables have no constant
    term) and builds each power xi_e = xi^e it is first to reach; -1 is a
    subtraction.  No component is empty, so an all-skipped one is a zero input."""
    plan = _plan(p, n, op, modular)
    m = n if op == "neg_polys" else 2 * n
    powers = sorted({f for comp in plan for _, factors in comp for f in factors if f[1] > 1})
    lines = ([f"def run({', '.join(f'x{i}' for i in range(m))}):"]
             + [f"    z{i} = not x{i}" for i in range(m)] + [f"    x{i}_{e} = None" for i, e in powers])
    first_zero = "".join(f"x{i} if z{i} else " for i in range(m - 1)) + f"x{m - 1}"
    for k, terms in enumerate(plan):
        lines.append(f"    r{k} = None")
        for j, (coeff, factors) in enumerate(terms):
            lines.append(f"    if not ({' or '.join(f'z{i}' for i, _ in factors)}):")
            lines += [f"        if x{i}_{e} is None: x{i}_{e} = x{i} ** {e}" for i, e in factors if e > 1]
            term = " * ".join(f"x{i}_{e}" if e > 1 else f"x{i}" for i, e in factors)
            lines.append(f"        t = {term}" + ("" if coeff in (1, -1) else f" * {coeff}"))
            sign, join = ("-", "-") if coeff == -1 else ("", "+")
            lines.append(f"        r{k} = {sign}t" + (f" if r{k} is None else r{k} {join} t" if j else ""))
        lines.append(f"    if r{k} is None: r{k} = {first_zero}")
    lines.append(f"    return {', '.join(f'r{k}' for k in range(n))},")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _compiled(p: int, n: int, op: str, modular: bool):
    """``_plan_source(p, n, op, modular)`` executed once into its function."""
    namespace = {"__builtins__": {}}  # the text calls no builtin
    exec(compile(_plan_source(p, n, op, modular), f"<witt {op} p={p} n={n}>", "exec"), namespace)
    return namespace["run"]


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
        """Run the compiled plan of table ``op`` at ``values``."""
        run = _compiled(self.p, self.n, op, not isinstance(self.comps[0], int))
        return WittVector._raw(self.p, run(*values))

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
        return WittVector._raw(self.p, tuple(c.frobenius() for c in self.comps))

    def wp(self) -> "WittVector":
        """The operator x -> Frobenius(x) - x (componentwise p-power, Witt minus)."""
        return self.frobenius().sub(self)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"

    def __repr__(self):
        return f"WittVector(p={self.p}, {self})"


def parse_witt(fld, text: str) -> WittVector:
    """Parse "(c_1, ..., c_n)" with components in F_q(T), over fld.p."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("Witt vector text must be parenthesised")
    comps = [parse_rational(fld, part.strip()) for part in _split_top_level(text[1:-1], ",")]
    return WittVector(fld.p, comps)
