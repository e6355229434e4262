import random
import time

import pytest

from wittcount import polys, rationals
from wittcount.fields import field
from wittcount.polys import CapExceededError, Polynomial
from wittcount.rationals import RationalFunction, parse_rational
from wittcount.witt import (
    MAX_TABLE_BITS,
    WittVector,
    _IPoly,
    _compiled,
    _plan,
    _plan_source,
    _table_bits,
    parse_witt,
    witt_tables,
)

from oracles import ghost

F2 = field(2, 1)
F4 = field(2, 2)
F3 = field(3, 1)
F5 = field(5, 1)
F9 = field(3, 2)


def wv2(*texts):
    return WittVector(2, tuple(parse_rational(F2, t) for t in texts))


def test_tables_frozen_second_components():
    t2 = witt_tables(2, 2)
    x1, x2, y1, y2 = range(4)

    def mono(**kw):
        e = [0, 0, 0, 0]
        for k, v in kw.items():
            e[{"x1": x1, "x2": x2, "y1": y1, "y2": y2}[k]] = v
        return tuple(e)

    assert t2.sum_polys[0].terms == {mono(x1=1): 1, mono(y1=1): 1}
    assert t2.sum_polys[1].terms == {mono(x2=1): 1, mono(y2=1): 1, mono(x1=1, y1=1): -1}

    t3 = witt_tables(3, 2)
    assert t3.sum_polys[1].terms == {
        mono(x2=1): 1,
        mono(y2=1): 1,
        mono(x1=2, y1=1): -1,
        mono(x1=1, y1=2): -1,
    }


def test_tables_cached_and_bounded():
    assert witt_tables(2, 3) is witt_tables(2, 3)
    with pytest.raises(ValueError):
        witt_tables(2, 5)
    with pytest.raises(ValueError):
        witt_tables(2, 0)


def test_table_build_is_budgeted():
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        witt_tables(5, 4)  # about 27 s to build without the budget
    assert time.perf_counter() - start < 1
    for p, n in ((2, 4), (3, 4), (11, 3), (719, 2)):
        assert _table_bits(p, n) <= MAX_TABLE_BITS, (p, n)
    for p, n in ((13, 3), (5, 4), (727, 2), (10007, 3)):
        assert _table_bits(p, n) > MAX_TABLE_BITS, (p, n)


def test_rational_add_takes_few_gcds(monkeypatch):
    x = wv2("1/(T^2+T)", "T/(T^3+T^2+T+1)")
    y = wv2("1/T", "1/(T^3+T^2)")
    expected = wv2("1/(T+1)", "T/(T^3+T^2+T+1)")
    witt_tables(2, 2)
    calls = []
    gcd = polys._gcd

    def counting_gcd(fld, a, b):
        calls.append(1)
        return gcd(fld, a, b)

    # the kernel, wherever it is called from
    monkeypatch.setattr(polys, "_gcd", counting_gcd)
    monkeypatch.setattr(rationals, "_gcd", counting_gcd)
    assert x.add(y) == expected
    # two per sum of fractions whose denominators share a factor; none for
    # powers, for the product of numerators 1 or for the normalised inputs
    assert len(calls) == 6


def test_no_plan_component_is_empty():
    # an evaluated component with every term skipped is one of the zero inputs
    for p, n in ((2, 3), (3, 3), (5, 2), (2, 4)):
        for op in ("sum_polys", "neg_polys", "prod_polys"):
            for modular in (False, True):
                assert all(_plan(p, n, op, modular)), (p, n, op, modular)


def test_ipoly_pow_multiplies_only_what_the_exponent_needs(monkeypatch):
    x = _IPoly.variable(2, 0) + _IPoly.variable(2, 1)
    expected = {1: x, 8: x * x * x * x * x * x * x * x}
    v = wv2("1/T", "T+1")
    multiples = [v.zero_like()]
    for _ in range(13):
        multiples.append(multiples[-1].add(v))
    assert v.int_mul(0) == multiples[0]
    for m in (1, 2, 5, 13):
        assert v.int_mul(-m) == v.neg().int_mul(m)
        assert v.int_mul(-m).add(multiples[m]) == multiples[0]
    calls = []
    mul, add = _IPoly.__mul__, WittVector.add

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    def counting_add(a, b):
        calls.append(1)
        return add(a, b)

    monkeypatch.setattr(_IPoly, "__mul__", counting_mul)
    monkeypatch.setattr(WittVector, "add", counting_add)
    for e, muls in ((1, 0), (8, 3)):
        calls.clear()
        assert x ** e == expected[e]
        assert len(calls) == muls, e
    with pytest.raises(ValueError):
        x ** 0
    # int_mul is the same loop under Witt addition: a doubling per bit up to
    # the top one, plus one add per further set bit
    for m, adds in ((1, 0), (2, 1), (3, 2), (8, 3), (13, 5)):
        calls.clear()
        assert v.int_mul(m) == multiples[m]
        assert len(calls) == adds, m


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_ghost_compatibility_symbolic(p, n):
    assert witt_tables(p, n).verify_ghost_compatibility()


def test_add_frozen_examples():
    one0 = WittVector(2, (F2.elem(1), F2.elem(0)))
    assert one0.add(one0) == WittVector(2, (F2.elem(0), F2.elem(1)))
    assert one0.neg() == WittVector(2, (F2.elem(1), F2.elem(1)))
    assert one0.int_mul(4).is_zero()
    zero = WittVector.zero(2, 2, like=F2.elem(0))
    assert one0.add(zero) == one0


def test_int_mul_frozen_example():
    x = wv2("1/T", "0")
    assert x.int_mul(3) == wv2("1/T", "1/T^2")
    assert x.int_mul(0).is_zero()
    assert x.int_mul(-1) == x.neg()


def test_wp_frozen_examples():
    zero = WittVector.zero(2, 2, like=F2.elem(0))
    assert zero.wp().is_zero()
    one0 = WittVector(2, (F2.elem(1), F2.elem(0)))
    assert one0.wp().is_zero()
    y = WittVector(2, (parse_rational(F2, "1/T"),))
    assert y.wp() == WittVector(2, (parse_rational(F2, "(T+1)/T^2"),))  # 1/T^2 + 1/T


def test_ghost_map():
    assert ghost(WittVector(2, (1, 0))) == (1, 1)
    assert ghost(WittVector(2, (1, 1))) == (1, 3)
    with pytest.raises(ValueError):
        ghost(WittVector(2, (F2.elem(1), F2.elem(0))))
    with pytest.raises(ValueError):
        WittVector(2, (1, 1)).frobenius()


def test_ghost_is_ring_homomorphism():
    rng = random.Random(17)
    for p, n in ((2, 3), (3, 3), (5, 2)):
        for _ in range(150):
            x = WittVector(p, tuple(rng.randrange(-9, 10) for _ in range(n)))
            y = WittVector(p, tuple(rng.randrange(-9, 10) for _ in range(n)))
            gx, gy = ghost(x), ghost(y)
            assert ghost(x.add(y)) == tuple(a + b for a, b in zip(gx, gy))
            assert ghost(x.mul(y)) == tuple(a * b for a, b in zip(gx, gy))
            assert ghost(x.neg()) == tuple(-a for a in gx)


def _rand_fq_vector(rng, fld, n):
    return WittVector(fld.p, tuple(fld.elem(rng.randrange(fld.q)) for _ in range(n)))


def _rand_rf(rng, fld):
    num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(4))])
    den = Polynomial.zero(fld)
    while den.is_zero():
        den = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 4))])
    return RationalFunction(num, den)


def _rand_rf_vector(rng, fld, n):
    return WittVector(fld.p, tuple(_rand_rf(rng, fld) for _ in range(n)))


@pytest.mark.parametrize("fld,n", [(F2, 3), (F4, 3), (F9, 2)])
def test_ring_laws_sampled_fq(fld, n):
    rng = random.Random(23)
    zero = WittVector.zero(fld.p, n, like=fld.elem(0))
    for _ in range(120):
        x, y, z = (_rand_fq_vector(rng, fld, n) for _ in range(3))
        assert x.add(y) == y.add(x)
        assert x.add(y.add(z)) == x.add(y).add(z)
        assert x.add(zero) == x
        assert x.add(x.neg()) == zero
        assert x.mul(y) == y.mul(x)
        assert x.mul(y.mul(z)) == x.mul(y).mul(z)
        assert x.mul(y.add(z)) == x.mul(y).add(x.mul(z))


def test_ring_laws_sampled_rational():
    rng = random.Random(29)
    zero = WittVector.zero(2, 2, like=RationalFunction.zero(F2))
    for _ in range(60):
        x, y, z = (_rand_rf_vector(rng, F2, 2) for _ in range(3))
        assert x.add(y) == y.add(x)
        assert x.add(y.add(z)) == x.add(y).add(z)
        assert x.add(x.neg()) == zero
        assert x.mul(y.add(z)) == x.mul(y).add(x.mul(z))


def test_wp_additive():
    rng = random.Random(31)
    for fld, n in ((F2, 3), (F4, 2), (F9, 2)):
        for _ in range(60):
            x, y = _rand_fq_vector(rng, fld, n), _rand_fq_vector(rng, fld, n)
            assert x.add(y).wp() == x.wp().add(y.wp())


def test_p_power_torsion():
    rng = random.Random(37)
    for fld, n in ((F2, 3), (F9, 2)):
        for _ in range(40):
            x = _rand_fq_vector(rng, fld, n)
            assert x.int_mul(fld.p**n).is_zero()
    for _ in range(20):
        x = _rand_rf_vector(random.Random(41), F2, 3)
        assert x.int_mul(8).is_zero()


def test_zero_prefix_addition_law():
    rng = random.Random(43)
    for _ in range(60):
        n = 3
        beta = _rand_rf_vector(rng, F2, n)
        for i in range(n):
            comps = [RationalFunction.zero(F2)] * n
            for j in range(i, n):
                comps[j] = _rand_rf(rng, F2)
            x = WittVector(2, comps)
            total = beta.add(x)
            for j in range(i):
                assert total.comps[j] == beta.comps[j]
            assert total.comps[i] == beta.comps[i] + x.comps[i]


def test_witt_decomposition_identity():
    # x = (x1,0,..) (+) (0,x2,0,..) (+) ... (+) (0,..,x_(j+1),..,x_n)
    rng = random.Random(47)
    for _ in range(30):
        n = 3
        x = _rand_rf_vector(rng, F2, n)
        zero = RationalFunction.zero(F2)
        for j in range(n):
            parts = []
            for k in range(j):
                comps = [zero] * n
                comps[k] = x.comps[k]
                parts.append(WittVector(2, comps))
            tail = [zero] * j + list(x.comps[j:])
            parts.append(WittVector(2, tail))
            acc = parts[0]
            for part in parts[1:]:
                acc = acc.add(part)
            assert acc == x


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_fp_operations_match_integer_lifts(p, n):
    # reduction Z -> F_p is a ring map, so W_n(Z) -> W_n(F_p) componentwise is
    # one too; the Z evaluation keeps every term of the tables, so it checks
    # the mod-p reading and term skipping of the F_p evaluation
    fld = field(p)
    rng = random.Random(53 + 10 * p + n)

    def reduce(v):
        return WittVector(p, tuple(fld.elem(c) for c in v.comps))

    for _ in range(200):
        xs = WittVector(p, tuple(rng.randrange(-3 * p, 3 * p) for _ in range(n)))
        ys = WittVector(p, tuple(rng.randrange(-3 * p, 3 * p) for _ in range(n)))
        x, y = reduce(xs), reduce(ys)
        assert x.add(y) == reduce(xs.add(ys))
        assert x.mul(y) == reduce(xs.mul(ys))
        assert x.neg() == reduce(xs.neg())


def test_zero_in_every_domain():
    rf = parse_rational(F2, "1/T")
    for p, like, zero, one in ((2, 0, 0, 1), (3, F9.elem(5), F9.elem(0), F9.elem(1)),
                               (2, rf, RationalFunction.zero(F2), RationalFunction.const(F2, 1))):
        z = WittVector.zero(p, 3, like)
        assert z == WittVector(p, (zero,) * 3) and z.is_zero()
        x = WittVector(p, (zero, one, zero))
        assert not x.is_zero()
        assert x.zero_like() == z and x.add(z) == x
    assert WittVector.zero(2, 2) == WittVector(2, (0, 0))


def test_mixed_vectors_rejected():
    with pytest.raises(ValueError):
        WittVector(2, (F2.elem(1), F4.elem(1)))
    with pytest.raises(ValueError):
        WittVector(3, (F2.elem(1), F2.elem(0)))
    with pytest.raises(ValueError):
        WittVector(2, (F2.elem(1),)).add(WittVector(2, (F4.elem(1),)))
    with pytest.raises(ValueError):
        WittVector(2, (1, 2)).add(WittVector(2, (1, 2, 3)))


def test_parse_witt_roundtrip():
    v = parse_witt(F2, "(1/T, (T+1)/T^2)")
    assert v.comps[0] == parse_rational(F2, "1/T")
    assert str(v) == "(1/T, (T+1)/T^2)"
    for text in ("((T+1)/T, 1)", "((T+1)/(T), (1))"):
        assert parse_witt(F2, text) == wv2("(T+1)/T", "1")


def _reference_evaluate(poly, values):
    """Term-by-term evaluation of an integer table as it stands: every term is
    kept and its full integer coefficient acts by the values' own ``* int``."""
    acc = values[0] * 0
    for exps, coeff in poly.terms.items():
        term = None
        for idx, e in enumerate(exps):
            if e:
                term = values[idx] ** e if term is None else term * values[idx] ** e
        acc = acc + term * coeff
    return acc


def _zero_patterns(n, draw, zero):
    """Vectors with every zero pattern the plans shortcut: all zero, one
    nonzero level, zero below level i, and nothing zero."""
    out = [(zero,) * n]
    for i in range(n):
        out.append(tuple(draw() if j == i else zero for j in range(n)))
        out.append(tuple(draw() if j >= i else zero for j in range(n)))
    return out


@pytest.mark.parametrize("fld,rational", [(F2, False), (F4, False), (F9, False), (F3, True),
                                          pytest.param(2, False, id="Z-p2"),
                                          pytest.param(3, False, id="Z-p3")])
def test_plans_match_the_reference_evaluator(fld, rational):
    # an int ``fld`` stands for the integers, evaluated by the unreduced plans
    # of p = fld, with negative entries
    integers = isinstance(fld, int)
    p = fld if integers else fld.p
    rng = random.Random(59 + (p if integers else fld.q))
    if integers:
        draw, zero = (lambda: rng.choice((-1, 1)) * rng.randrange(1, 3 * p)), 0
    elif rational:
        draw, zero = (lambda: _rand_rf(rng, fld)), RationalFunction.zero(fld)
    else:
        draw, zero = (lambda: fld.elem(rng.randrange(1, fld.q))), fld.elem(0)
    for n in (1, 2, 3):
        tables = witt_tables(p, n)
        vectors = [WittVector(p, c) for c in _zero_patterns(n, draw, zero)]
        if integers:
            vectors += [WittVector(p, tuple(rng.randrange(-3 * p, 3 * p) for _ in range(n)))
                        for _ in range(3)]
        else:
            vectors += [_rand_rf_vector(rng, fld, n) if rational else _rand_fq_vector(rng, fld, n)
                        for _ in range(3)]
        for x in vectors:
            assert x.neg().comps == tuple(_reference_evaluate(f, x.comps) for f in tables.neg_polys)
            for y in vectors:
                values = x.comps + y.comps
                assert x.add(y).comps == tuple(_reference_evaluate(f, values)
                                               for f in tables.sum_polys), (x, y)
                assert x.mul(y).comps == tuple(_reference_evaluate(f, values)
                                               for f in tables.prod_polys), (x, y)


SUM_2_2_MOD_2 = """\
def run(x0, x1, x2, x3):
    z0 = not x0
    z1 = not x1
    z2 = not x2
    z3 = not x3
    r0 = None
    if not (z0):
        t = x0
        r0 = t
    if not (z2):
        t = x2
        r0 = t if r0 is None else r0 + t
    if r0 is None: r0 = x0 if z0 else x1 if z1 else x2 if z2 else x3
    r1 = None
    if not (z1):
        t = x1
        r1 = t
    if not (z3):
        t = x3
        r1 = t if r1 is None else r1 + t
    if not (z0 or z2):
        t = x0 * x2
        r1 = t if r1 is None else r1 + t
    if r1 is None: r1 = x0 if z0 else x1 if z1 else x2 if z2 else x3
    return r0, r1,
"""


def test_plan_source_is_pinned_and_compiled_once():
    # (x0, x1) + (y0, y1) = (x0 + y0, x1 + y1 + x0 y0) in W_2 of characteristic 2
    assert _plan_source(2, 2, "sum_polys", True) == SUM_2_2_MOD_2
    run = _compiled(2, 2, "sum_polys", True)
    assert run is _compiled(2, 2, "sum_polys", True)
    assert run(F2.elem(1), F2.elem(0), F2.elem(1), F2.elem(0)) == (F2.elem(0), F2.elem(1))
    # the powers a term reaches, and the integer coefficients of the ghost oracle
    source = _plan_source(3, 2, "prod_polys", False)
    assert "        if x0_3 is None: x0_3 = x0 ** 3\n" in source
    assert "        t = x1 * x3 * 3\n" in source


def test_plans_are_compiled_once_and_reduced():
    for p, n in ((2, 3), (3, 3), (5, 2)):
        tables = witt_tables(p, n)
        for op in ("sum_polys", "neg_polys", "prod_polys"):
            full = [len(f.terms) for f in getattr(tables, op)]
            assert [len(c) for c in _plan(p, n, op, False)] == full
            signed = {1} if p == 2 else {-1, *range(1, p - 1)}
            assert {c for comp in _plan(p, n, op, True) for c, _ in comp} <= signed
    # mod p the product tables shrink, over all components 13 -> 7 terms at
    # (2, 3) and 17 -> 8 at (3, 3)
    assert [len(c) for c in _plan(2, 3, "prod_polys", True)] == [1, 2, 4]
    assert [len(c) for c in _plan(3, 3, "prod_polys", True)] == [1, 2, 5]


def _gr_mul(a, b, fld, mod):
    """Product in GR(p^n, s) = (Z/mod)[t]/(lift of the field's modulus)."""
    s = fld.s
    prod = [0] * (2 * s - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(2 * s - 2, s - 1, -1):  # the modulus is monic of degree s
        for j in range(s):
            prod[k - s + j] -= prod[k] * fld.modulus[j]
    return [c % mod for c in prod[:s]]


def _galois_image(x, fld):
    """The isomorphism W_n(F_q) -> GR(p^n, s): (a_0, ..., a_(n-1)) goes to
    sum p^i * omega(a_i^(p^-i)), where omega(a) = lift(a)^(q^(n-1)) is the
    Teichmueller representative of a."""
    p, n = fld.p, x.n
    mod = p**n
    image = [0] * fld.s
    for i, a in enumerate(x.comps):
        for _ in range(i):
            a = fld.elem(fld.pth_root_val(a.val))
        base, omega, k = fld._digits(a.val), [1] + [0] * (fld.s - 1), fld.q ** (n - 1)
        while k:
            if k & 1:
                omega = _gr_mul(omega, base, fld, mod)
            base, k = _gr_mul(base, base, fld, mod), k >> 1
        image = [(u + p**i * w) % mod for u, w in zip(image, omega)]
    return image


@pytest.mark.parametrize("fld", [F2, F3, F4, F5, F9])
def test_operations_match_the_galois_ring(fld):
    # W_3(F_q) is isomorphic to GR(p^3, s), and the map shares nothing with
    # the ghost recursion; over F_q with s > 1 there is no integer lift
    rng = random.Random(61 + fld.q)
    mod = fld.p**3
    for _ in range(60):
        x, y = _rand_fq_vector(rng, fld, 3), _rand_fq_vector(rng, fld, 3)
        gx, gy = _galois_image(x, fld), _galois_image(y, fld)
        assert _galois_image(x.add(y), fld) == [(a + b) % mod for a, b in zip(gx, gy)]
        assert _galois_image(x.mul(y), fld) == _gr_mul(gx, gy, fld, mod)
        assert _galois_image(x.neg(), fld) == [-a % mod for a in gx]
