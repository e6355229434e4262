import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcount import rationals
from wittcount.fields import field
from wittcount.polys import Polynomial, monic_irreducibles, parse_poly
from wittcount.rationals import (
    RationalFunction,
    parse_rational,
    partial_fractions,
    pole_part,
)

from oracles import recombine

F2 = field(2, 1)
F3 = field(3, 1)
F4 = field(2, 2)


def R(text, fld=F2):
    return parse_rational(fld, text)


def test_reduction_invariants():
    f = RationalFunction(parse_poly(F2, "T^2+T"), parse_poly(F2, "T"))
    assert str(f) == "T+1"
    assert f.den.is_monic()
    g = RationalFunction(parse_poly(F3, "T"), parse_poly(F3, "2*T^2"))
    assert g.den.is_monic()
    assert g.num.gcd(g.den).degree == 0


def test_zero_is_zero_over_one():
    z = RationalFunction(Polynomial.zero(F2), parse_poly(F2, "T^5"))
    assert z.is_zero() and z.den == Polynomial.one(F2)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial.one(F2), Polynomial.zero(F2))


def test_arithmetic():
    a = R("1/T")
    b = R("1/(T+1)")
    assert str(a + b) == "1/(T^2+T)"
    assert (a - a).is_zero()
    assert str(a * b) == "1/(T^2+T)"
    assert a * RationalFunction(a.den, a.num) == RationalFunction.const(F2, 1)
    assert str(a**2) == "1/T^2"
    assert str(RationalFunction(a.den, a.num)) == "T"


def test_operands_from_another_field_are_rejected():
    t = R("T")
    with pytest.raises(ValueError):
        t * RationalFunction.zero(F3)
    with pytest.raises(ValueError):
        t + R("T", F4)
    # F_q elements enter F_q(T) only as integer encodings, through const
    for x in (F2.elem(1), F4.elem(3)):
        with pytest.raises(TypeError):
            t + x
        with pytest.raises(TypeError):
            Polynomial.const(F2, x)
    assert t + RationalFunction.const(F2, 1) == R("T+1") and t * 3 == t
    assert (t - RationalFunction(Polynomial.T(F2))).is_zero()


def test_operands_of_another_type_are_rejected():
    # each operator takes a rational function over the same field; * also
    # takes an int on either side, acting as n mod p; there is no /
    t, poly = R("1/T", F3), Polynomial.T(F3)
    for op in (lambda: t + poly, lambda: t + 1, lambda: 1 + t, lambda: t - 1, lambda: 1 - t,
               lambda: t / t, lambda: 1 / t, lambda: t * poly):
        with pytest.raises(TypeError):
            op()
    assert (R("T", F3) == poly) is False and t * 2 == 2 * t == -t and t * 4 == t
    with pytest.raises(ValueError):
        t**-1


def test_field_axioms_random():
    rng = random.Random(4)

    def rand_rf(fld):
        num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(4))])
        den = Polynomial.zero(fld)
        while den.is_zero():
            den = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 4))])
        return RationalFunction(num, den)

    for fld in (F2, F3, F4):
        for _ in range(50):
            a, b, c = rand_rf(fld), rand_rf(fld), rand_rf(fld)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == RationalFunction.zero(fld)
            if not a.is_zero():
                assert a * RationalFunction(a.den, a.num) == RationalFunction.const(fld, 1)


@st.composite
def _fraction_pairs(draw):
    """Two fractions over one of F_2, F_3, F_4: zero and constants included,
    their denominators built over a shared factor."""
    fld = draw(st.sampled_from((F2, F3, F4)))

    def poly(max_len, nonzero=False):
        f = Polynomial(fld, draw(st.lists(st.integers(0, fld.q - 1), max_size=max_len)))
        return Polynomial.one(fld) if nonzero and f.is_zero() else f

    shared = poly(3, nonzero=True)
    x = RationalFunction(poly(4), shared * poly(3, nonzero=True))
    y = RationalFunction(poly(4), shared * poly(3, nonzero=True))
    return x, y


def _reduced(f):
    return f.den.is_monic() and f.num.gcd(f.den).degree == 0


@settings(max_examples=300, deadline=None)
@given(pair=_fraction_pairs(), e=st.integers(-3, 3))
def test_arithmetic_matches_the_normalising_constructor(pair, e):
    x, y = pair
    a, b, c, d = x.num, x.den, y.num, y.den
    checks = [
        (x + y, RationalFunction(a * d + c * b, b * d)),
        (x - y, RationalFunction(a * d - c * b, b * d)),
        (x * y, RationalFunction(a * c, b * d)),
        (-x, RationalFunction(-a, b)),
    ]
    if not y.is_zero():
        checks.append((x * RationalFunction(d, c), RationalFunction(a * d, b * c)))
    if e >= 0:
        checks.append((x**e, RationalFunction(a**e, b**e)))
    elif not x.is_zero():
        checks.append((RationalFunction(b, a) ** -e, RationalFunction(b ** -e, a ** -e)))
    for result, expected in checks:
        assert (result.num, result.den) == (expected.num, expected.den)
        assert _reduced(result)


def test_frobenius_and_wp():
    a = R("1/T")
    assert a.frobenius() == a * a
    assert str(a.frobenius() - a) == "(T+1)/T^2"  # 1/T^2 + 1/T over F_2
    c = RationalFunction.const(F3, 1)
    assert (c.frobenius() - c).is_zero()  # 1^3 - 1


def test_text_roundtrip():
    rng = random.Random(12)
    for fld in (F2, F3, F4):
        for _ in range(80):
            num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(5))])
            den = Polynomial.zero(fld)
            while den.is_zero():
                den = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 5))])
            f = RationalFunction(num, den)
            assert parse_rational(fld, str(f)) == f
    assert str(R("(T^2+1)/T")) == "(T^2+1)/T"


def test_partial_fractions_frozen_examples():
    pp, terms = partial_fractions(RationalFunction.zero(F2))
    assert pp.is_zero() and terms == []

    pp, terms = partial_fractions(R("1/(T^2+T)"))
    assert pp.is_zero()
    assert [(str(a), b, str(c)) for a, b, c in terms] == [("T", 1, "1"), ("T+1", 1, "1")]

    pp, terms = partial_fractions(R("(T^3+T+1)/T"))
    assert str(pp) == "T^2+1"
    assert [(str(a), b, str(c)) for a, b, c in terms] == [("T", 1, "1")]


def test_partial_fractions_conditions():
    rng = random.Random(21)
    for fld in (F2, F3, F4):
        for _ in range(40):
            num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(9))])
            den = Polynomial.zero(fld)
            while den.degree < 1:
                den = Polynomial(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 9))])
            f = RationalFunction(num, den)
            pp, terms = partial_fractions(f)
            for p_, e, q_ in terms:
                assert p_.is_monic()
                assert e >= 1
                assert not q_.is_zero()
                assert q_.gcd(p_).degree == 0
                assert q_.degree < e * p_.degree
            assert recombine(pp, terms) == f


def _plan_cases(fld, rng):
    """(prime powers, two fractions over their product): single prime powers
    with e >= 2, then products of two and of three prime powers."""
    primes = monic_irreducibles(fld, 1)[:3] + monic_irreducibles(fld, 2)[:2]
    shapes = [[(p_, e)] for p_ in primes for e in (2, 3, 5)]
    for size in (2, 3, 3):
        shapes += [[(p_, rng.randrange(1, 4)) for p_ in rng.sample(primes, size)]
                   for _ in range(4)]
    for powers in shapes:
        den = Polynomial.one(fld)
        for p_, e in powers:
            den = den * p_**e
        fractions = []
        while len(fractions) < 2:
            num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(den.degree + 3)])
            if num.gcd(den).degree == 0:
                fractions.append(RationalFunction(num, den))
        yield sorted(powers, key=lambda pe: (pe[0].degree, pe[0].to_int())), fractions


def test_partial_fraction_plans():
    rng = random.Random(43)
    for fld in (F2, F3, F4):
        for powers, (f, g) in _plan_cases(fld, rng):
            rationals._plan.cache_clear()
            cold = partial_fractions(f)
            pp, terms = cold[0], list(cold[1])
            assert [(p_, e) for p_, e, _ in terms] == powers
            for p_, e, q_ in terms:
                assert q_ and q_.gcd(p_).degree == 0 and q_.degree < e * p_.degree
            if len(powers) == 1:  # Q is the proper numerator itself
                assert terms[0][2] == f.poly_and_proper_parts()[1].num
            assert recombine(pp, terms) == f
            cold[1].clear()  # a caller's edit reaches neither the plan nor the next result
            assert partial_fractions(f) == (pp, terms)  # warm: the plan is cached
            warm = partial_fractions(g)
            assert rationals._plan.cache_info().hits == 2
            rationals._plan.cache_clear()
            assert partial_fractions(g) == warm and recombine(*warm) == g


@settings(max_examples=300, deadline=None)
@given(pair=_fraction_pairs())
def test_text_roundtrip_property(pair):
    for f in pair:
        assert parse_rational(f.field, str(f)) == f


@settings(max_examples=60, deadline=None)
@given(num_enc=st.integers(0, 2**8 - 1), den_enc=st.integers(1, 2**8 - 1))
def test_partial_fractions_roundtrip_property(num_enc, den_enc):
    num = Polynomial.from_int(F2, num_enc)
    den = Polynomial.from_int(F2, den_enc)
    f = RationalFunction(num, den)
    pp, terms = partial_fractions(f)
    assert recombine(pp, terms) == f
    for term in terms:
        assert pole_part(term).den.is_monic()


def test_poly_and_proper_parts():
    f = R("(T^3+T+1)/(T^2+T)")
    poly, proper = f.poly_and_proper_parts()
    assert RationalFunction(poly) + proper == f
    assert proper.num.degree < proper.den.degree
