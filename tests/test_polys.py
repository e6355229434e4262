import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcount.fields import FiniteField, field
from wittcount import polys
from wittcount.polys import (
    NEG_INF,
    CapExceededError,
    Polynomial,
    _divmod,
    _gcd,
    _mul,
    _sum,
    canonical_prime,
    factor,
    is_irreducible,
    monic_irreducibles,
    parse_poly,
    phi,
    polys_below,
)
from wittcount.rationals import RationalFunction, partial_fractions

from oracles import (ResidueRing, factor_by_trial_division, is_irreducible_by_trial_division,
                     recombine)

F2 = field(2, 1)
F3 = field(3, 1)
F4 = field(2, 2)


def P(text, fld=F2):
    return parse_poly(fld, text)


def test_degree_sentinel():
    assert Polynomial.zero(F2).degree == NEG_INF
    assert Polynomial.zero(F2).degree + 5 == NEG_INF
    assert P("1").degree == 0
    assert P("T^3+T").degree == 3


def test_degree_multiplicativity():
    rng = random.Random(5)
    for _ in range(200):
        f = Polynomial(F4, [rng.randrange(4) for _ in range(rng.randrange(1, 6))])
        g = Polynomial(F4, [rng.randrange(4) for _ in range(rng.randrange(1, 6))])
        if f.is_zero() or g.is_zero():
            assert (f * g).is_zero()
        else:
            assert (f * g).degree == f.degree + g.degree


def test_divmod_and_gcd():
    q, r = divmod(P("T^3+1"), P("T+1"))
    assert str(q) == "T^2+T+1" and r.is_zero()
    assert q * P("T+1") == P("T^3+1")
    assert str(P("T^2+T").gcd(P("T"))) == "T"
    with pytest.raises(ZeroDivisionError):
        divmod(P("T"), Polynomial.zero(F2))


def test_gcd_is_monic():
    f = P("2*T^2+2", F3)
    g = P("2*T+2", F3)
    assert f.gcd(g).is_monic()


def test_eval():
    assert P("T^2+1").eval(F2.elem(1)).val == 0
    assert P("T^2+2", F3).eval(F3.elem(2)).val == 0  # 4+2 = 6 = 0 mod 3


@pytest.mark.parametrize("x", [1, F4.elem(1), None], ids=["int", "other-field", "none"])
def test_eval_takes_only_an_element_of_its_own_field(x):
    # an element of F_4 would index F_2's rows with its encoding
    with pytest.raises(ValueError):
        P("T^2+1").eval(x)


def test_text_roundtrip():
    rng = random.Random(11)
    for fld in (F2, F3, F4):
        for _ in range(100):
            f = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(7))])
            assert parse_poly(fld, str(f)) == f
    assert str(Polynomial.zero(F2)) == "0"
    assert parse_poly(F2, "0").is_zero()
    assert str(P("3*T^2+2*T+1", F4)) == "3*T^2+2*T+1"
    # repeated and unordered terms add in F_q
    assert P("T+1+T^3+2*T^3+T", F3) == P("2*T+1", F3)
    assert P("T^2+3*T+T^2+2*T", F4) == P("T", F4)  # 3 + 2 = 1 in the encodings of F_4


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly(F2, "T^2 - 1")
    with pytest.raises(ValueError):
        parse_poly(F2, "2*T")  # coefficient out of range for GF(2)
    with pytest.raises(ValueError):
        parse_poly(F2, "")


def test_irreducibility():
    assert is_irreducible(P("T^2+T+1"))
    assert not is_irreducible(P("T^2+1"))  # (T+1)^2
    assert is_irreducible(P("T"))
    assert not is_irreducible(P("1"))
    with pytest.raises(ValueError):
        is_irreducible(Polynomial.zero(F2))


def test_monic_irreducibles_degree_one():
    assert [str(f) for f in monic_irreducibles(F2, 1)] == ["T", "T+1"]


def test_monic_irreducibles_count():
    # the number of monic irreducibles of degree 2 over F_q is (q^2-q)/2
    for fld in (F2, F3, F4):
        assert len(monic_irreducibles(fld, 2)) == (fld.q**2 - fld.q) // 2


def test_canonical_prime():
    assert str(canonical_prime(F2, 1)) == "T"
    assert str(canonical_prime(F2, 2)) == "T^2+T+1"
    assert canonical_prime(F3, 1) == P("T", F3)


def test_factor_roundtrip():
    rng = random.Random(7)
    for fld in (F2, F3, F4):
        for _ in range(60):
            f = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 9))])
            if f.is_zero() or f.degree < 1:
                continue
            fac = factor(f)
            prod = Polynomial.const(fld, f.leading())
            for p_, e in fac:
                assert is_irreducible_by_trial_division(p_)
                assert p_.is_monic()
                prod = prod * p_**e
            assert prod == f


@pytest.mark.parametrize("p, s, top", [(2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 4), (3, 2, 3)])
def test_sieve_matches_trial_division(p, s, top):
    # every monic up to the given degree, and a unit multiple of each
    fld = field(p, s)
    for deg in range(top + 1):
        for f in polys._monics(fld, deg):
            irreducible = is_irreducible_by_trial_division(f)
            assert is_irreducible(f) == irreducible
            assert is_irreducible(f.scale(fld.q - 1)) == irreducible
            assert factor(f) == factor_by_trial_division(f)


# T^21+T^2+1 and its reciprocal T^21+T^19+1 are irreducible over F_2
P21, Q21 = P("T^21+T^2+1"), P("T^21+T^19+1")


def test_partial_fractions_over_two_primes_of_degree_21():
    # the same-degree split of P*Q is past any trial division over 2^21 monics
    poly_part, terms = partial_fractions(RationalFunction(Polynomial.one(F2), P21 * Q21))
    assert poly_part.is_zero()
    assert [(p_, e) for p_, e, _ in terms] == [(P21, 1), (Q21, 1)]  # P21 encodes lower
    assert recombine(poly_part, terms) == RationalFunction(Polynomial.one(F2), P21 * Q21)


def test_factoriser_enumerates_no_polynomial(monkeypatch):
    def unreachable(*args):
        raise AssertionError("enumerated polynomials")

    monkeypatch.setattr(polys, "_monics", unreachable)
    monkeypatch.setattr(polys, "polys_below", unreachable)
    assert is_irreducible(P21) and is_irreducible(Q21)
    assert not is_irreducible(P21 * P("T+1"))
    f = P21 * P21 * Q21 * P("T^3+T")  # T (T+1)^2 P^2 Q: a split at degrees 1 and 21
    assert factor(f) == [(P("T"), 1), (P("T+1"), 2), (P21, 2), (Q21, 1)]


@st.composite
def _polys(draw, max_len=9):
    fld = draw(st.sampled_from((F2, F3, F4)))
    return Polynomial(fld, draw(st.lists(st.integers(0, fld.q - 1), max_size=max_len)))


@settings(max_examples=300, deadline=None)
@given(f=_polys(max_len=13))
def test_text_roundtrip_property(f):
    assert parse_poly(f.field, str(f)) == f


@settings(max_examples=200, deadline=None)
@given(f=_polys())
def test_factor_reassembles_property(f):
    if f.is_zero():
        return
    prod = Polynomial.const(f.field, f.leading())
    for p_, e in factor(f):
        assert p_.is_monic() and e >= 1
        prod = prod * p_**e
    assert prod == f


def test_factor_known():
    assert [(str(p_), e) for p_, e in factor(P("T^2+1"))] == [("T+1", 2)]
    assert [(str(p_), e) for p_, e in factor(P("T^3+T"))] == [("T", 1), ("T+1", 2)]


def test_factor_returns_a_fresh_list():
    f = P("T^4+T^2")  # T^2 (T+1)^2
    first = factor(f)
    expected = list(first)
    first.append((P("T^2+T+1"), 5))
    first.reverse()
    assert factor(f) == expected


def test_factor_of_non_monic_is_factor_of_its_monic_form():
    for fld, text in ((F3, "2*T^3+T+2"), (F4, "3*T^4+2*T^2+3"), (F3, "2")):
        f = P(text, fld)
        assert not f.is_monic()
        assert factor(f) == factor(f.monic())


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2)])
def test_factor_of_a_prime_power_finds_its_multiplicity(p, s, d):
    fld = field(p, s)
    q = fld.q
    for prime in (canonical_prime(fld, d), monic_irreducibles(fld, d)[-1]):
        for a in range(1, 17):
            assert factor(prime**a) == [(prime, a)], (prime, a)
            assert phi(prime**a) == q ** (d * (a - 1)) * (q**d - 1)


def test_phi_frozen_examples():
    assert phi(P("T")) == 1
    assert phi(P("T^3")) == 4  # units 1, 1+T, 1+T^2, 1+T+T^2
    assert phi(P("T") * P("T+1")) == 1
    with pytest.raises(ValueError):
        phi(Polynomial.zero(F2))


def test_phi_matches_exhaustive_unit_count():
    rng = random.Random(3)
    for fld in (F2, F3):
        for _ in range(25):
            n = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(2, 6))])
            if n.is_zero() or n.degree < 1:
                continue
            ring = ResidueRing(n)
            assert phi(n) == sum(1 for _ in ring.units())


def test_phi_multiplicative():
    rng = random.Random(9)
    for _ in range(40):
        m = Polynomial(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 5))])
        n = Polynomial(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 5))])
        if m.degree < 1 or n.degree < 1 or m.gcd(n).degree != 0:
            continue
        assert phi(m * n) == phi(m) * phi(n)


def test_residue_units_frozen():
    ring = ResidueRing(P("T^2"))
    assert [str(u) for u in ring.units()] == ["1", "T+1"]
    assert phi(P("T^2")) == 2


def test_elem_order():
    ring = ResidueRing(P("T^3"))
    assert ring.elem_order(P("T+1")) == 4
    assert ring.elem_order(P("1")) == 1
    with pytest.raises(ValueError):
        ring.elem_order(P("T"))


def test_unit_powers_in_one_plus_p_subgroup():
    # every unit congruent to 1 mod P has p-power order
    for fld, text in ((F2, "T^3"), (F3, "T^2"), (F2, "T^4")):
        prime = parse_poly(fld, "T")
        ring = ResidueRing(parse_poly(fld, text))
        one = Polynomial.one(fld)
        for u in ring.units():
            if (u - one) % prime == Polynomial.zero(fld):
                order = ring.elem_order(u)
                while order % fld.p == 0:
                    order //= fld.p
                assert order == 1


@pytest.mark.parametrize("fld", [F2, F3, F4])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_polys_below_order(fld, k):
    assert [g.to_int() for g in polys_below(fld, k)] == list(range(fld.q**k))


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        list(ResidueRing(P("T^8")).elements(cap=100))
    with pytest.raises(CapExceededError):
        monic_irreducibles(F4, 11)  # 4^11 monics pass DEFAULT_ENUM_CAP = 2^20


def spread(poly, step):
    """The exponents of ``poly`` times ``step``: poly**q when step = q."""
    out = [0] * ((len(poly.coeffs) - 1) * step + 1)
    out[::step] = poly.coeffs
    return Polynomial(poly.field, out)


def test_qpower_matches_repeated_squaring():
    rng = random.Random(2)
    for fld in (F2, F4):
        for _ in range(20):
            f = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 5))])
            assert spread(f, fld.q) == f ** fld.q
            assert f.frobenius() == f ** fld.p


# -- every kernel against a schoolbook reference on the untabled arithmetic --

# tabled q = 2..256, and the untabled q = 257 (s = 1) and q = 512 (s = 9)
KERNEL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (3, 3), (7, 2),
                 (2, 8), (257, 1), (2, 9)]


class _Reference:
    """Schoolbook F_q[T] over digit-wise addition and ``_mul_untabled``, on
    coefficient lists.  It reads no row of the field under test; for s > 1,
    ``_mul_untabled`` multiplies over F_p, whose kernels the s = 1 cases
    check against plain integer arithmetic."""

    def __init__(self, fld):
        self.fld = fld

    def add(self, a, b):
        fld = self.fld
        return fld._undigits([(x + y) % fld.p for x, y in zip(fld._digits(a), fld._digits(b))])

    def neg(self, a):
        fld = self.fld
        return fld._undigits([-x % fld.p for x in fld._digits(a)])

    def mul(self, a, b):
        return self.fld._mul_untabled(a, b)

    def inv(self, a):
        result, base, e = 1, a, self.fld.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base, e = self.mul(base, base), e >> 1
        return result

    @staticmethod
    def strip(cs):
        cs = list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    def poly_add(self, a, b):
        n = max(len(a), len(b))
        a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
        return self.strip(self.add(x, y) for x, y in zip(a, b))

    def poly_neg(self, a):
        return [self.neg(x) for x in a]

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if x and y:
                    out[i + j] = self.add(out[i + j], self.mul(x, y))
        return self.strip(out)

    def poly_divmod(self, a, b):
        rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
        inv_lead = self.inv(b[-1])
        while len(rem) >= len(b):
            factor = self.mul(rem[-1], inv_lead)
            shift = len(rem) - len(b)
            quot[shift] = factor
            for j, y in enumerate(b):
                rem[shift + j] = self.add(rem[shift + j], self.neg(self.mul(factor, y)))
            rem = self.strip(rem)
        return self.strip(quot), rem

    def poly_gcd(self, a, b):
        while b:
            a, b = b, self.poly_divmod(a, b)[1]
        if not a:
            return a
        inv_lead = self.inv(a[-1])
        return [self.mul(inv_lead, x) for x in a]


def _kernel_operands(fld, rng):
    def rand(length):
        return Polynomial(fld, [rng.randrange(fld.q) for _ in range(length - 1)]
                          + [rng.randrange(1, fld.q)])

    ops = [Polynomial.zero(fld), Polynomial.one(fld), Polynomial.const(fld, fld.q - 1),
           Polynomial.T(fld), rand(3), rand(6), rand(9)]
    # the sparse c^(q^k) T^(i q^k) shapes of Carlitz's twisted products, with
    # the gaps capped at 8 so that the reference stays fast for large q
    step = min(fld.q, 8)
    sparse = [rand(2), rand(3)]
    ops += [spread(sparse[0], step), spread(sparse[1], step) * Polynomial.T(fld)]
    ops.append(Polynomial(fld, [0, 0, rng.randrange(1, fld.q), 0, 0, 0, 1]))  # gappy
    return ops


def _no_trailing_zero(poly):
    return not poly.coeffs or poly.coeffs[-1] != 0


@pytest.mark.parametrize("p, s", KERNEL_FIELDS)
def test_kernels_match_schoolbook_reference(p, s):
    fld = field(p, s)
    ref = _Reference(fld)
    rng = random.Random(p * 100 + s)
    ops = _kernel_operands(fld, rng)
    for a in ops:
        ca = list(a.coeffs)
        neg = -a
        assert list(neg.coeffs) == ref.poly_neg(ca) and _no_trailing_zero(neg)
        for c in (0, 1, rng.randrange(1, fld.q)):
            scaled = a.scale(c)
            assert list(scaled.coeffs) == ref.strip(ref.mul(c, x) for x in ca)
            assert _no_trailing_zero(scaled)
        for b in ops:
            cb = list(b.coeffs)
            results = {"add": (a + b, ref.poly_add(ca, cb)),
                       "sub": (a - b, ref.poly_add(ca, ref.poly_neg(cb))),
                       "mul": (a * b, ref.poly_mul(ca, cb)),
                       "gcd": (a.gcd(b), ref.poly_gcd(ca, cb))}
            if b:
                quot, rem = divmod(a, b)
                ref_quot, ref_rem = ref.poly_divmod(ca, cb)
                assert quot * b + rem == a and rem.degree < b.degree
                results["quot"], results["rem"] = (quot, ref_quot), (rem, ref_rem)
                results["//"], results["%"] = (a // b, ref_quot), (a % b, ref_rem)
            if b.degree >= 1:
                power = [1]  # a^e mod b by repeated multiplication
                for e in range(6):
                    results[f"modpow{e}"] = (a.modpow(e, b), ref.poly_divmod(power, cb)[1])
                    power = ref.poly_divmod(ref.poly_mul(power, ca), cb)[1]
                if ref.poly_gcd(ca, cb) == [1]:
                    inv = a.modinv(b)  # the unique inverse of degree < deg b
                    assert inv.degree < b.degree and _no_trailing_zero(inv), (a, b)
                    assert ref.poly_divmod(ref.poly_mul(ca, list(inv.coeffs)), cb)[1] == [1]
                else:
                    with pytest.raises(ZeroDivisionError):
                        a.modinv(b)
            for name, (got, want) in results.items():
                assert list(got.coeffs) == want, (name, a, b)
                assert _no_trailing_zero(got), (name, a, b)
            _check_tuple_kernels(fld, ref, rng, a, b)
            if b:
                _check_rational_operators(a, b)


def _check_tuple_kernels(fld, ref, rng, a, b):
    """_sum, _mul, _divmod's remainder and _gcd called directly: constant and unit factors,
    sums that cancel, remainders by constants and by longer divisors, gcds of
    non-monic inputs and with a unit, every result a stripped tuple."""
    ta, tb = a.coeffs, b.coeffs
    ca, cb = list(ta), list(tb)
    unit, c = rng.randrange(1, fld.q), rng.randrange(1, fld.q)
    longer = (0,) * len(ta) + (c,)
    results = {"sum": (_sum(fld, ta, tb), ref.poly_add(ca, cb)),
               "cancel": (_sum(fld, ta, tuple(ref.poly_neg(ca))), []),
               "mul": (_mul(fld, ta, tb), ref.poly_mul(ca, cb)),
               "gcd": (_gcd(fld, ta, tb), ref.poly_gcd(ca, cb)),
               "gcd-non-monic": (_gcd(fld, _mul(fld, (unit,), ta), _mul(fld, (c,), tb)),
                                 ref.poly_gcd(ca, cb)),
               "gcd-unit": (_gcd(fld, ta, (c,)), [1]),
               "unit-gcd": (_gcd(fld, (c,), ta), [1]),
               "rem-unit": (_divmod(fld, ta, (c,))[1], []),
               "rem-longer": (_divmod(fld, ta, longer)[1], ref.poly_divmod(ca, list(longer))[1])}
    if tb:
        results["rem"] = (_divmod(fld, ta, tb)[1], ref.poly_divmod(ca, cb)[1])
    else:
        with pytest.raises(ZeroDivisionError):
            _divmod(fld, ta, tb)
    for k in (1, c):
        results[f"{k}*a"] = (_mul(fld, (k,), ta), ref.poly_mul([k], ca))
        results[f"a*{k}"] = (_mul(fld, ta, (k,)), ref.poly_mul(ca, [k]))
    for name, (got, want) in results.items():
        assert type(got) is tuple and list(got) == want, (name, a, b)
        assert not got or got[-1], (name, a, b)


def _check_rational_operators(a, b):
    """+, - and * of fractions with one or both denominators 1, against the
    normalising constructor on the cross-multiplied fraction."""
    one = Polynomial.one(a.field)
    frac = RationalFunction(a + Polynomial.T(a.field), b)
    for (n1, d1), (n2, d2) in (((a, one), (b, one)), ((a, one), (frac.num, frac.den)),
                               ((frac.num, frac.den), (a, one))):
        x, y = RationalFunction(n1, d1), RationalFunction(n2, d2)
        assert x + y == RationalFunction(n1 * d2 + n2 * d1, d1 * d2), (a, b)
        assert x - y == RationalFunction(n1 * d2 - n2 * d1, d1 * d2), (a, b)
        assert x * y == RationalFunction(n1 * n2, d1 * d2), (a, b)


def test_divisor_longer_than_dividend():
    for p, s in ((2, 2), (3, 1), (257, 1)):
        fld = field(p, s)
        a, b = Polynomial(fld, [1, 2 % fld.q]), Polynomial(fld, [1, 0, 0, 1])
        quot, rem = divmod(a, b)
        assert quot.is_zero() and rem == a


def test_pow_multiplies_only_what_the_exponent_needs(monkeypatch):
    f = P("T^2+2*T+1", F3)
    powers = [Polynomial.one(F3)]
    for _ in range(13):
        powers.append(powers[-1] * f)
    f257 = field(257)  # above the table limit: its powers run square-and-multiply
    calls = []
    mul, mul_untabled = polys._mul, FiniteField._mul_untabled

    def counting_mul(fld, a, b):
        calls.append(1)
        return mul(fld, a, b)

    def counting_mul_untabled(fld, a, b):
        calls.append(1)
        return mul_untabled(fld, a, b)

    monkeypatch.setattr(polys, "_mul", counting_mul)  # the kernel the powers run on
    monkeypatch.setattr(FiniteField, "_mul_untabled", counting_mul_untabled)
    mod = P("T^3+2*T+1", F3)
    # squarings up to the top bit, plus one multiply per further set bit
    for e, muls in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (8, 3), (13, 5)):
        for power, expected in ((lambda: f ** e, powers[e]),
                                (lambda: f.modpow(e, mod), powers[e] % mod),
                                (lambda: f257._pow_untabled(3, e), pow(3, e, 257))):
            calls.clear()
            assert power() == expected
            assert len(calls) == muls, (e, expected)
    assert Polynomial.zero(F3) ** 0 == Polynomial.one(F3)
    for m in (mod, P("2", F3)):  # a constant modulus leaves only zero
        assert f.modpow(0, m) == Polynomial.one(F3) % m
        assert f.modpow(5, m) == powers[5] % m
    for power in (lambda: f ** -1, lambda: f.modpow(-1, mod)):
        with pytest.raises(ValueError):
            power()
