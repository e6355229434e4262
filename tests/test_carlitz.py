import random

import pytest

from wittcount.carlitz import (
    carlitz_compose_check,
    carlitz_eval,
    carlitz_gcd_check,
    carlitz_poly,
    _carlitz_sparse,
    _right_rem,
    _to_polys,
    _twisted_add,
    _twisted_mul,
)
from wittcount.fields import FqElem, field
from wittcount.polys import CapExceededError, Polynomial, parse_poly, polys_below
from wittcount.rationals import RationalFunction

F2 = field(2, 1)
F3 = field(3, 1)
F4 = field(2, 2)


def P(text, fld=F2):
    return parse_poly(fld, text)


def all_nonzero_polys(fld, max_deg):
    q = fld.q
    out = []
    for enc in range(1, q ** (max_deg + 1)):
        out.append(Polynomial.from_int(fld, enc))
    return out


def test_identity_action():
    cp = carlitz_poly(Polynomial.one(F2))
    assert cp.coeffs == ((0, Polynomial.one(F2)),)


def test_base_case():
    cp = carlitz_poly(P("T"))
    assert dict(cp.coeffs) == {0: P("T"), 1: P("1")}


def test_degree_two_frozen():
    # T^2*u + (T + T^q)*u^q + u^(q^2), derived by composing the base case
    cp = carlitz_poly(P("T^2"))
    assert dict(cp.coeffs) == {0: P("T^2"), 1: P("T^2+T"), 2: P("1")}
    cp3 = carlitz_poly(parse_poly(F3, "T^2"))
    assert dict(cp3.coeffs) == {
        0: parse_poly(F3, "T^2"),
        1: parse_poly(F3, "T^3+T"),
        2: parse_poly(F3, "1"),
    }


def test_shape_and_derivative_invariants():
    for fld in (F2, F3, F4):
        for m in all_nonzero_polys(fld, 3):
            cp = carlitz_poly(m)  # construction asserts the invariants
            assert cp.u_degree() == fld.q**m.degree
            # formal u-derivative: only the u-linear term survives in char p
            assert dict(cp.coeffs)[0] == m
            if m.is_monic():
                assert dict(cp.coeffs)[m.degree] == Polynomial.one(fld)


def test_eval_frozen_examples():
    assert carlitz_eval(P("T^2"), Polynomial.zero(F2)).is_zero()
    assert carlitz_eval(P("T"), Polynomial.one(F2)) == P("T+1")
    # C_(T^2)(1) = C_T(C_T(1)) = C_T(T+1) = T(T+1) + (T+1)^2 = T+1 over F_2
    assert carlitz_eval(P("T^2"), Polynomial.one(F2)) == P("T+1")


def test_eval_additive_and_linear():
    rng = random.Random(61)
    for fld in (F2, F3):
        for _ in range(40):
            m = Polynomial.from_int(fld, rng.randrange(1, fld.q**3))
            x = Polynomial.from_int(fld, rng.randrange(fld.q**3))
            y = Polynomial.from_int(fld, rng.randrange(fld.q**3))
            assert carlitz_eval(m, x + y) == carlitz_eval(m, x) + carlitz_eval(m, y)
            for a in range(fld.q):
                ax = x.scale(a)
                assert carlitz_eval(m, ax) == carlitz_eval(m, x).scale(a)


def test_eval_module_action():
    rng = random.Random(67)
    for _ in range(25):
        m = Polynomial.from_int(F2, rng.randrange(1, 2**3))
        n = Polynomial.from_int(F2, rng.randrange(1, 2**3))
        x = Polynomial.from_int(F2, rng.randrange(2**4))
        assert carlitz_eval(m * n, x) == carlitz_eval(m, carlitz_eval(n, x))


def test_eval_rejects_other_domains_and_zero():
    for x in (1, FqElem(F2, 1), P("T").coeffs, RationalFunction(P("T"))):
        with pytest.raises(TypeError):
            carlitz_eval(P("T"), x)
    with pytest.raises(ValueError, match="Carlitz polynomial of zero"):
        carlitz_eval(Polynomial.zero(F2), P("T"))


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_eval_matches_the_tau_expansion(p, s):
    # sum c_i(T) * x^(q^i) with x^(q^i) by repeated squaring: the digit steps'
    # Frobenius powers are checked at q = p^s with s > 1, which the module
    # action alone cannot see (it holds for any operator in place of C_T);
    # the c_i are checked against e_k(M)/D_k below
    fld = field(p, s)
    rng = random.Random(f"eval/{fld.q}")
    for _ in range(20):
        m = Polynomial.from_int(fld, rng.randrange(1, fld.q**3))
        x = Polynomial.from_int(fld, rng.randrange(fld.q**3))
        expected = Polynomial.zero(fld)
        for i, c in _to_polys(fld, _carlitz_sparse(m)):
            expected = expected + x ** (fld.q**i) * c
        assert carlitz_eval(m, x) == expected, (m, x)


def test_compose_check_frozen():
    assert carlitz_compose_check(P("T"), P("T"))
    assert carlitz_compose_check(Polynomial.one(F2), P("T^3+T+1"))
    assert carlitz_compose_check(P("T"), P("T+1"))
    with pytest.raises(ValueError):
        carlitz_compose_check(Polynomial.zero(F2), P("T"))


def test_gcd_check_frozen():
    assert carlitz_gcd_check(P("T^2"), P("T^2"))
    assert carlitz_gcd_check(P("T"), P("T+1"))  # gcd is C_1(u) = u
    assert carlitz_gcd_check(P("T^2"), P("T"))
    with pytest.raises(CapExceededError):
        carlitz_gcd_check(P("T^17"), P("T^2"))  # u-degree 2^17 > DEFAULT_GCD_CAP


def _dense_from_sparse(coeffs, fld):
    """Dense u-coefficient list over F_q(T) from the q-exponent dict."""
    q = fld.q
    deg = q ** max(coeffs)
    out = [RationalFunction.zero(fld)] * (deg + 1)
    for i, c in coeffs.items():
        out[q**i] = c if isinstance(c, RationalFunction) else RationalFunction(c)
    return out


def _dense_gcd_u(a, b, fld):
    """Schoolbook Euclid on dense u-polynomials over F_q(T); independent of
    the sparse additive-remainder route."""

    def deg(f):
        for i in range(len(f) - 1, -1, -1):
            if not f[i].is_zero():
                return i
        return -1

    def rem(f, g):
        f = list(f)
        dg = deg(g)
        lead = g[dg]
        while deg(f) >= dg:
            df = deg(f)
            c = f[df] * _inverse(lead)
            for i, gc in enumerate(g[: dg + 1]):
                f[df - dg + i] = f[df - dg + i] - c * gc
        return f[:dg] if dg else []

    while deg(b) >= 0:
        a, b = b, rem(a, b)
    d = deg(a)
    lead = a[d]
    return tuple((i, c * _inverse(lead)) for i, c in enumerate(a[: d + 1]) if not c.is_zero())


def _inverse(x):
    return RationalFunction(x.den, x.num)


def _monic(fld, a):
    """a scaled by the inverse of its constant leading tau-coefficient."""
    row = fld._mul_table[fld._inv_table[a[max(a)][0]]]
    return {i: {e: row[c] for e, c in terms.items()} for i, terms in a.items()}


@pytest.mark.parametrize("fld,max_deg", [(F2, 3), (F3, 2), (F4, 1)])
def test_additive_gcd_matches_dense_euclid(fld, max_deg):
    # the monic form of the last nonzero right remainder is the gcd in u
    polys = [m for m in all_nonzero_polys(fld, max_deg)]
    rng = random.Random(71)
    pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(30)]
    for m, n in pairs:
        a, b = _carlitz_sparse(m), _carlitz_sparse(n)
        while b:
            a, b = b, _right_rem(fld, a, b)
        sparse = _to_polys(fld, _monic(fld, a))
        dense = _dense_gcd_u(
            _dense_from_sparse(dict(carlitz_poly(m).coeffs), fld),
            _dense_from_sparse(dict(carlitz_poly(n).coeffs), fld),
            fld,
        )
        q = fld.q
        assert {q**i: RationalFunction(c) for i, c in sparse} == dict(dense)


def test_additive_gcd_rejects_a_non_constant_lead():
    t = {1: 1}  # T*u + T*u^q
    for a in (_carlitz_sparse(P("T^2")), {0: t, 1: t}):
        with pytest.raises(ValueError, match="not a nonzero constant"):
            _right_rem(F2, a, {0: t, 1: t})


def test_additive_gcd_is_monic_over_polynomials():
    # non-monic inputs, so the chain's remainders are C_R for non-monic R, and
    # only the monic form of the last one is C_gcd(M, N)
    for m, n in (("2*T^2", "2*T"), ("2*T^2+2", "T^2+1"), ("T+1", "2*T^2+1")):
        m, n = parse_poly(F3, m), parse_poly(F3, n)
        assert carlitz_gcd_check(m, n)
        a, b = m, n
        while b:
            a, b, got = b, a % b, _right_rem(F3, _carlitz_sparse(a), _carlitz_sparse(b))
            assert got == (_carlitz_sparse(b) if b else {}), (m, n, a)
        assert _monic(F3, _carlitz_sparse(a)) == _carlitz_sparse(m.gcd(n))


def _e(k, x):
    """e_k(x) = prod over deg a < k of (x - a), a in F_q[T]."""
    out = Polynomial.one(x.field)
    for a in polys_below(x.field, k):
        out = out * (x - a)
    return out


def test_coefficients_match_carlitz_closed_form():
    # the tau^k coefficient of C_M is e_k(M)/D_k with D_k = e_k(T^k) (Goss,
    # Basic Structures of Function Field Arithmetic, 3.1); shares no code
    # with the twisted recursion
    for fld in (F2, F3, F4):
        t = Polynomial.T(fld)
        d = [_e(k, t**k) for k in range(4)]
        for m in all_nonzero_polys(fld, 3):
            expected = {}
            for k in range(4):
                quot, rem = divmod(_e(k, m), d[k])
                assert rem.is_zero(), (m, k)
                if not quot.is_zero():
                    expected[k] = quot
            assert dict(carlitz_poly(m).coeffs) == expected, m


def test_gcd_check_small_grids_exhaustive():
    for fld in (F2, F3):
        polys = all_nonzero_polys(fld, 2)
        for i, m in enumerate(polys):
            for n in polys[i:]:
                assert carlitz_gcd_check(m, n)


def test_compose_check_small_grids_exhaustive():
    for fld in (F2, F3):
        polys = all_nonzero_polys(fld, 2)
        for i, m in enumerate(polys):
            for n in polys[i:]:
                assert carlitz_compose_check(m, n)


def test_scalar_action():
    # C_(cM) is the left scalar multiple c * C_M, for every scalar and M
    for fld in (F2, F3, F4):
        for m in all_nonzero_polys(fld, 2):
            base = dict(carlitz_poly(m).coeffs)
            for c in range(1, fld.q):
                scaled = dict(carlitz_poly(m.scale(c)).coeffs)
                assert scaled == {i: co.scale(c) for i, co in base.items()}


def test_serialize():
    cp = carlitz_poly(P("T^2"))
    assert cp.serialize() == [[0, "T^2"], [1, "T^2+T"], [2, "1"]]


def _random_twisted(rng, fld, max_tau=3, max_len=6):
    """{i: Polynomial} with random, often non-constant, leads: no Carlitz shape."""
    out = {}
    for i in range(rng.randrange(max_tau + 1) + 1):
        c = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(max_len + 1))])
        if not c.is_zero():
            out[i] = c
    return out


@pytest.mark.parametrize("fld", [F2, F3, F4])
def test_twisted_product_matches_polynomial_reference(fld):
    # sum of a_i * b_j^(q^i) at tau^(i+j), in Polynomial arithmetic
    def term_map(a):
        return {i: {e: c for e, c in enumerate(p.coeffs) if c} for i, p in a.items()}

    rng = random.Random(83)
    for _ in range(150):
        a, b = _random_twisted(rng, fld), _random_twisted(rng, fld)
        expected = {}
        for i, ai in a.items():
            for j, bj in b.items():
                expected[i + j] = expected.get(i + j, Polynomial.zero(fld)) + ai * bj ** fld.q**i
        expected = {k: c for k, c in expected.items() if not c.is_zero()}
        assert _twisted_mul(fld, term_map(a), term_map(b)) == term_map(expected), (a, b)


def test_cached_carlitz_forms_survive_gcd_and_checks():
    for fld in (F2, F3, F4):
        polys = all_nonzero_polys(fld, 2)
        rng = random.Random(89)
        pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(40)]
        touched = {x for m, n in pairs for x in (m, n, m * n, m.gcd(n), m + n) if x}
        before = {m: carlitz_poly(m).coeffs for m in touched}
        for m, n in pairs:
            assert carlitz_compose_check(m, n) and carlitz_gcd_check(m, n)
        assert {m: carlitz_poly(m).coeffs for m in touched} == before


@pytest.mark.parametrize("fld,max_deg", [(F2, 4), (F3, 4), (F4, 3)])
def test_direct_carlitz_step_matches_the_twisted_product(fld, max_deg):
    # C_(T*N + m_0) = C_T * C_N + m_0 with the generic product, for every N
    c_t = {0: {1: 1}, 1: {0: 1}}
    for n in all_nonzero_polys(fld, max_deg):
        for m0 in range(fld.q):
            expected = _twisted_mul(fld, c_t, _carlitz_sparse(n))
            if m0:
                expected[0][0] = m0
            assert _carlitz_sparse(Polynomial(fld, (m0, *n.coeffs))) == expected, (n, m0)


def _fully_stripped(x):
    return all(terms and all(terms.values()) for terms in x.values())


@pytest.mark.parametrize("fld", [F2, F3, F4])
def test_every_term_map_is_fully_stripped(fld):
    def term_map(a):
        return {i: {e: c for e, c in enumerate(p.coeffs) if c} for i, p in a.items()}

    rng = random.Random(97)
    polys = all_nonzero_polys(fld, 3)
    pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(60)]
    pairs += [(m, -m) for m in polys[:20]]  # C_M + C_(-M) = 0; at p = 2 these are (M, M)
    for m, n in pairs:
        cm, cn = _carlitz_sparse(m), _carlitz_sparse(n)
        a, b = term_map(_random_twisted(rng, fld)), term_map(_random_twisted(rng, fld))
        results = [cm, cn, _twisted_mul(fld, cm, cn), _twisted_mul(fld, a, b),
                   _twisted_add(fld, cm, cn), _twisted_add(fld, a, b), _twisted_add(fld, a, a),
                   _right_rem(fld, cm, cn), _right_rem(fld, a, cn)]
        assert all(map(_fully_stripped, results)), (m, n)
        if (m + n).is_zero():
            assert _twisted_add(fld, cm, cn) == {}


def _memo_delta(build):
    """(new hits, new misses) of the C_M memo while ``build`` runs."""
    before = _carlitz_sparse.cache_info()
    build()
    after = _carlitz_sparse.cache_info()
    return after.hits - before.hits, after.misses - before.misses


def test_memo_keeps_inputs_and_prefixes_but_not_the_compose_product():
    m, n = Polynomial(F4, (1, 2, 0, 3)), Polynomial(F4, (2, 0, 3, 1))
    _carlitz_sparse.cache_clear()
    try:
        assert carlitz_compose_check(m, n)
        # C_MN was built by one step and dropped: rebuilding it is one miss,
        # and that step reads its memoised prefix C_(MN // T)
        assert _memo_delta(lambda: _carlitz_sparse(m * n)) == (1, 1)
        assert _memo_delta(lambda: _carlitz_sparse(m)) == (1, 0)
        assert _memo_delta(lambda: _carlitz_sparse(m * n // P("T", F4))) == (1, 0)
    finally:
        _carlitz_sparse.cache_clear()  # later tests start cold
