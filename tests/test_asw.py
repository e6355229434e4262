import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcount import asw
from wittcount.asw import (
    AswGenerator,
    AswNormalForm,
    NotNormalFormError,
    PrimeBlock,
    conductor_exponent,
    hasse_normalize,
    infinity_behavior,
    is_single_ramified_form,
    is_normal_form,
    witt_normalize,
)
from wittcount.fields import field
from wittcount.polys import Polynomial, canonical_prime, parse_poly
from wittcount.rationals import RationalFunction, parse_rational, partial_fractions, pole_part
from wittcount.witt import WittVector

from oracles import ghost, invert_variable, is_single_ramified_at_infinity

F2 = field(2, 1)
F3 = field(3, 1)
F4 = field(2, 2)


def R(text, fld=F2):
    return parse_rational(fld, text)


def gen(fld, *texts):
    return AswGenerator(WittVector(fld.p, tuple(parse_rational(fld, t) for t in texts)))


def _rand_rf(rng, fld, max_pole=6):
    """Random rational function with bounded pole orders at small primes."""
    primes = [parse_poly(fld, "T"), parse_poly(fld, "T+1")]
    den = Polynomial.one(fld)
    total = 0
    for p_ in primes:
        e = rng.randrange(0, max_pole // 2 + 1)
        total += e
        den = den * p_**e
    num_deg = rng.randrange(0, den.degree + 3) if total else rng.randrange(0, 4)
    num = Polynomial(fld, [rng.randrange(fld.q) for _ in range(num_deg + 1)])
    return RationalFunction(num, den)


# -- hasse_normalize --

def test_hasse_zero():
    bn, c = hasse_normalize(RationalFunction.zero(F2))
    assert bn.is_zero() and c.is_zero()


def test_hasse_frozen_examples():
    bn, c = hasse_normalize(R("1/T^2"))
    assert str(bn) == "1/T" and str(c) == "1/T"
    bn, c = hasse_normalize(R("T^2"))
    assert str(bn) == "T" and str(c) == "T"


def test_hasse_certificate_and_conditions():
    rng = random.Random(101)
    for fld in (F2, F3, F4):
        for _ in range(120):
            beta = _rand_rf(rng, fld, max_pole=8)
            bn, c = hasse_normalize(beta)
            assert bn == beta + (c.frobenius() - c)
            pp, terms = partial_fractions(bn)
            for _, e, q_ in terms:
                assert e % fld.p != 0
            if pp.is_constant():
                v = pp.constant_coeff()
                assert not v or not fld.in_wp_image_val(v)
            else:
                assert pp.degree % fld.p != 0


def test_hasse_idempotent():
    rng = random.Random(103)
    for _ in range(60):
        beta = _rand_rf(rng, F2)
        bn, _ = hasse_normalize(beta)
        bn2, c2 = hasse_normalize(bn)
        assert bn2 == bn and c2.is_zero()


def test_hasse_constant_reduction():
    # over F_4, wp(F_4) = {0, 1}, so the constant 1 must vanish
    bn, c = hasse_normalize(RationalFunction.const(F4, 1))
    assert bn.is_zero()
    assert c.frobenius() - c == -RationalFunction.const(F4, 1)


# -- witt_normalize --

def test_normalize_zero_vector():
    nf = witt_normalize(gen(F2, "0", "0"))
    assert nf.normalized_beta.is_zero()
    assert nf.certificate.is_zero()
    assert nf.primes == ()
    assert all(f.is_zero() for f in nf.mu)


def test_normalize_frozen_examples():
    nf = witt_normalize(gen(F2, "1/T^2", "0"))
    assert str(nf.normalized_beta.comps[0]) == "1/T"
    assert str(nf.certificate.comps[0]) == "1/T"
    assert nf.certificate_holds()

    nf2 = witt_normalize(gen(F2, "1/T", "1/T^2"))
    assert str(nf2.normalized_beta) == "(1/T, 1/T)"
    assert str(nf2.certificate) == "(0, 1/T)"
    assert nf2.certificate_holds()


def test_normalize_idempotent_with_zero_certificate():
    rng = random.Random(107)
    for _ in range(25):
        beta = WittVector(2, tuple(_rand_rf(rng, F2) for _ in range(2)))
        nf = witt_normalize(AswGenerator(beta))
        again = witt_normalize(AswGenerator(nf.normalized_beta))
        assert again.normalized_beta == nf.normalized_beta
        assert again.certificate.is_zero()


@st.composite
def _small_generators(draw):
    """Generators of length n <= 2 over F_2, F_3 or F_4 with poles of order
    at most 2 at T and T + 1 (zero components included)."""
    fld = draw(st.sampled_from((F2, F3, F4)))
    comps = []
    for _ in range(draw(st.integers(1, 2))):
        den = parse_poly(fld, "T") ** draw(st.integers(0, 2)) * parse_poly(fld, "T+1") ** draw(
            st.integers(0, 2))
        num = Polynomial(fld, draw(st.lists(st.integers(0, fld.q - 1), max_size=den.degree + 2)))
        comps.append(RationalFunction(num, den))
    return AswGenerator(WittVector(fld.p, tuple(comps)))


@settings(max_examples=60, deadline=None)
@given(generator=_small_generators())
def test_normalize_idempotent_property(generator):
    nf = witt_normalize(generator)
    assert nf.certificate_holds()
    again = witt_normalize(AswGenerator(nf.normalized_beta))
    assert again.certificate.is_zero()
    assert again.normalized_beta == nf.normalized_beta
    assert again.certificate_holds()


def test_normalize_certificates_random():
    rng = random.Random(109)
    for fld in (F2, F3):
        for n in (1, 2, 3):
            for _ in range(12):
                beta = WittVector(fld.p, tuple(_rand_rf(rng, fld) for _ in range(n)))
                nf = witt_normalize(AswGenerator(beta))
                assert nf.certificate_holds()
                nf.validate()
                assert is_normal_form(nf.normalized_beta)


def _accumulated_certificate(beta):
    """The normalizer loop with the certificate as a running Witt sum of the
    single-level vectors V^i[c_i]: the reference for the certificate."""
    p, n = beta.p, beta.n
    zero = RationalFunction.zero(beta.comps[0].field)
    running, certificate = beta, WittVector.zero(p, n, like=zero)
    for level in range(n):
        c_i = asw._hasse_parts(running.comps[level])[2]
        v = WittVector(p, [c_i if i == level else zero for i in range(n)])
        certificate = certificate.add(v)
        running = running.add(v.wp())
    return certificate


def test_certificate_is_the_accumulated_witt_sum():
    rng = random.Random(109)  # the generators of test_normalize_certificates_random
    for fld in (F2, F3):
        for n in (1, 2, 3):
            for _ in range(12):
                beta = WittVector(fld.p, tuple(_rand_rf(rng, fld) for _ in range(n)))
                assert witt_normalize(AswGenerator(beta)).certificate == _accumulated_certificate(beta)


def _full_length_normalize(beta):
    """The normalizer loop with each wp(V^L[c_L]) added over the full length
    n: the reference for the level update.  Returns the normalized vector, the
    certificate, the prime blocks and the polynomial parts."""
    p, n = beta.p, beta.n
    fld = beta.comps[0].field
    zero, zero_poly = RationalFunction.zero(fld), Polynomial.zero(fld)
    running, corrections, prime_levels, mu = beta, [], {}, []
    for level in range(n):
        g, terms, c_i = asw._hasse_parts(running.comps[level])
        corrections.append(c_i)
        mu.append(g)
        for prime, e, q_num in terms:
            prime_levels.setdefault(prime, {})[level] = (q_num, e)
        if not c_i.is_zero():
            v = WittVector(p, [c_i if i == level else zero for i in range(n)])
            running = running.add(v.wp())
    primes = tuple(PrimeBlock(prime=prime, levels=tuple(prime_levels[prime].get(level, (zero_poly, 0))
                                                        for level in range(n)))
                   for prime in sorted(prime_levels, key=lambda pp: (pp.degree, pp.to_int())))
    return running, WittVector(p, corrections), primes, tuple(mu)


def test_level_update_matches_the_full_length_sum():
    rng = random.Random(109)  # the generators of test_normalize_certificates_random
    betas = [WittVector(fld.p, tuple(_rand_rf(rng, fld) for _ in range(n)))
             for fld in (F2, F3) for n in (1, 2, 3) for _ in range(12)]
    rng = random.Random(131)  # and more of length 3, at p = 2, 3 and q = 4
    betas += [WittVector(fld.p, tuple(_rand_rf(rng, fld) for _ in range(3)))
              for fld in (F2, F3, F4) for _ in range(12)]
    for beta in betas:
        nf = witt_normalize(AswGenerator(beta))
        assert (nf.normalized_beta, nf.certificate, nf.primes, nf.mu) == _full_length_normalize(beta)


def _rational_peel(beta):
    """_hasse_parts with every pole step taken in F_q(T): add wp(u/P^k) to
    the pole part as a RationalFunction and read e off its denominator."""
    fld = beta.field
    p = fld.p
    correction = RationalFunction.zero(fld)
    poly_part, terms = partial_fractions(beta)
    normal_terms = []
    for prime, e, q_num in terms:
        frac = pole_part((prime, e, q_num))
        while e > 0 and e % p == 0:
            u = asw._pth_root_mod(-(frac.num % prime), prime)
            step = RationalFunction(u, prime ** (e // p))
            correction = correction + step
            frac = frac + (step.frobenius() - step)
            e = frac.den.degree // prime.degree
        if e > 0:
            normal_terms.append((prime, e, frac.num))
    g = poly_part
    while not g.is_constant() and g.degree % p == 0:
        b = fld.pth_root_val(fld.neg_val(g.leading()))
        step_poly = Polynomial(fld, (0,) * (g.degree // p) + (b,))
        correction = correction + RationalFunction(step_poly)
        g = g + step_poly.frobenius() - step_poly
    if g.is_constant() and g.constant_coeff():
        v = fld.elem(g.constant_coeff())
        # the smallest-encoded v + a^p - a over all of F_q, and the smallest a reaching it
        rep, a = min(((v + fld.elem(fld.wp_val(x))).val, x) for x in range(fld.q))
        if rep != v.val:
            correction = correction + RationalFunction.const(fld, a)
            g = Polynomial.const(fld, rep)
    return g, normal_terms, correction


def test_pole_peel_matches_the_rational_peel():
    rng = random.Random(127)
    for fld in (F2, F3, F4):
        p = fld.p
        primes = [parse_poly(fld, "T"), parse_poly(fld, "T+1"), canonical_prime(fld, 2)]

        def rand_num(degree_below):
            return Polynomial(fld, [rng.randrange(fld.q) for _ in range(degree_below)])

        def pole(prime, e):
            while True:
                if (num := rand_num(e * prime.degree)).gcd(prime).degree == 0:
                    return RationalFunction(num, prime**e)

        betas = []
        for e in (p, 2 * p, p**2, p**3):
            for prime in primes:
                betas.append(pole(prime, e) + RationalFunction(rand_num(4)))
            others = rng.sample(primes, 2)
            betas.append(pole(others[0], e) + pole(others[1], rng.choice((1, e, p**2))))
            for k in (e // p, e):  # wp(u/P^k) cancels in full, next to another term
                prime, other = rng.sample(primes, 2)
                u = rand_num(prime.degree)
                if u:
                    step = RationalFunction(u, prime**k)
                    betas.append(step.frobenius() - step + pole(other, e))
        for beta in betas:
            got, want = asw._hasse_parts(beta), _rational_peel(beta)
            assert got == want, beta
            assert asw._level_fault(got[0], got[1]) is None
            assert asw._assemble(got[0], got[1]) == beta + (got[2].frobenius() - got[2])


@pytest.mark.parametrize("p", [2, 3])
def test_witt_sum_of_disjoint_supports_is_the_concatenation(p):
    rng = random.Random(p)
    fld = field(p, 1)
    for n in (1, 2, 3):
        for L in range(n + 1):
            for _ in range(10):
                xs = [rng.randrange(-50, 50) for _ in range(n)]
                ys = [rng.randrange(-50, 50) for _ in range(n)]
                low = WittVector(p, xs[:L] + [0] * (n - L))
                high = WittVector(p, [0] * L + ys[L:])
                concat = WittVector(p, xs[:L] + ys[L:])
                assert ghost(concat) == tuple(a + b for a, b in zip(ghost(low), ghost(high)))
                assert low.add(high) == concat
                rfs = [_rand_rf(rng, fld, max_pole=4) for _ in range(n)]
                zero = RationalFunction.zero(fld)
                low = WittVector(p, rfs[:L] + [zero] * (n - L))
                high = WittVector(p, [zero] * L + rfs[L:])
                assert low.add(high) == WittVector(p, rfs)


def test_normalize_respects_length_bound():
    comps = tuple(RationalFunction.zero(F2) for _ in range(5))
    with pytest.raises(ValueError):
        witt_normalize(AswGenerator(WittVector(2, comps)))


@pytest.mark.parametrize("fld, text", [(F2, "1/T^2"), (F2, "T^2"), (F4, "1")])
def test_non_normal_levels_are_rejected(fld, text):
    # pole order divisible by p, polynomial degree divisible by p, and a
    # constant in wp(F_4) = {0, 1}: each breaks one normal-form condition
    beta = R(text, fld)
    assert not is_normal_form(WittVector(fld.p, (beta,)))
    poly_part, terms = partial_fractions(beta)
    hand_built = AswNormalForm(
        n=1,
        primes=tuple(PrimeBlock(prime=p_, levels=((q_, e),)) for p_, e, q_ in terms),
        mu=(poly_part,),
        certificate=WittVector(fld.p, (RationalFunction.zero(fld),)),
        normalized_beta=WittVector(fld.p, (beta,)),
        source_beta=WittVector(fld.p, (beta,)),
    )
    with pytest.raises(NotNormalFormError):
        hand_built.validate()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalize_decomposes_each_level_once(monkeypatch, n):
    calls = []

    def counted(f):
        calls.append(f)
        return partial_fractions(f)

    monkeypatch.setattr(asw, "partial_fractions", counted)
    nf = witt_normalize(gen(F2, *["1/(T^3+T)"] * n))
    assert len(calls) == n
    assert nf.certificate_holds()


def test_mu_readoff():
    # beta_1 = T^2 + 1 + 1/T; the even-degree top T^2 is peeled by wp(T),
    # leaving polynomial part T+1, and level 2 absorbs the Witt carry
    nf = witt_normalize(gen(F2, "(T^3+T+1)/T", "0"))
    assert str(nf.mu[0]) == "T+1"
    assert nf.mu[0].degree % 2 == 1
    assert len(nf.primes) == 1
    assert nf.primes[0].levels[0] == (Polynomial.one(F2), 1)
    assert nf.certificate_holds()


# -- conductor --

def test_conductor_frozen_examples():
    assert conductor_exponent((1, 0), 2) == 2
    assert conductor_exponent((1, 0), 2) + 1 == 3
    assert conductor_exponent((1, 3), 2) == 3
    assert conductor_exponent((1, 3), 2) + 1 == 4
    assert conductor_exponent((5,), 2) == 5
    assert conductor_exponent((5,), 2) + 1 == 6


def test_conductor_rejects_bad_input():
    with pytest.raises(ValueError):
        conductor_exponent((0, 1), 2)
    with pytest.raises(ValueError):
        conductor_exponent((1, 2), 2)
    with pytest.raises(ValueError):
        conductor_exponent((), 2)


def test_conductor_bound_propagation():
    # M_n <= alpha-1 forces M_(n-1) <= floor((alpha-1)/p)
    for p in (2, 3):
        for lam1 in range(1, 10):
            for lam2 in range(0, 10):
                if lam1 % p == 0 or (lam2 and lam2 % p == 0):
                    continue
                m2 = conductor_exponent((lam1, lam2), p)
                m1 = conductor_exponent((lam1,), p)
                for alpha in range(m2 + 1, m2 + 4):
                    assert m1 <= (alpha - 1) // p


# -- infinity behavior --

def test_infinity_n1_trichotomy():
    nf = witt_normalize(gen(F2, "1/T"))
    b = infinity_behavior(nf)
    assert (b.e, b.f, b.g) == (1, 1, 2) and b.label == "decomposed"

    nf = witt_normalize(gen(F2, "(T+1)/T"))  # 1/T + 1
    b = infinity_behavior(nf)
    assert (b.e, b.f, b.g) == (1, 2, 1) and b.label == "inert"

    nf = witt_normalize(gen(F2, "T"))
    b = infinity_behavior(nf)
    assert (b.e, b.f, b.g) == (2, 1, 1) and b.label == "ramified"


def test_infinity_frozen_n2():
    nf = witt_normalize(gen(F2, "0", "1"))
    b = infinity_behavior(nf)
    assert (b.s, b.t) == (1, 2)
    assert (b.e, b.f, b.g) == (1, 2, 2)


def test_infinity_product_identity_random():
    rng = random.Random(131)
    for fld in (F2, F3):
        p = fld.p
        for _ in range(60):
            n = rng.randrange(1, 4)
            comps = []
            for _ in range(n):
                kind = rng.randrange(3)
                if kind == 0:
                    comps.append(RationalFunction.zero(fld))
                elif kind == 1:
                    c = rng.randrange(1, fld.q)
                    comps.append(RationalFunction.const(fld, c))
                else:
                    deg = rng.choice([d for d in range(1, 5) if d % p])
                    coeffs = [rng.randrange(fld.q) for d_ in range(deg)] + [rng.randrange(1, fld.q)]
                    comps.append(RationalFunction(Polynomial(fld, coeffs)))
            beta = WittVector(p, tuple(comps))
            nf = witt_normalize(AswGenerator(beta))
            b = infinity_behavior(nf)
            assert b.e * b.f * b.g == p**n


# -- variable inversion --

def test_invert_variable_frozen():
    g = gen(F2, "T")
    assert str(invert_variable(g).beta.comps[0]) == "1/T"
    g = gen(F2, "1/T")
    assert str(invert_variable(g).beta.comps[0]) == "T"
    g = gen(F2, "(T^2+1)/T")
    assert str(invert_variable(g).beta.comps[0]) == "(T^2+1)/T"  # (1+T'^2)/T'


def test_invert_variable_involution():
    rng = random.Random(137)
    for fld in (F2, F3):
        for _ in range(40):
            beta = WittVector(fld.p, tuple(_rand_rf(rng, fld) for _ in range(2)))
            g = AswGenerator(beta)
            assert invert_variable(invert_variable(g)).beta == beta


# -- single-ramified-prime predicate --

def test_is_single_ramified_form():
    t = canonical_prime(F2, 1)
    nf = witt_normalize(gen(F2, "1/T", "0"))
    assert is_single_ramified_form(nf, t)
    nf = witt_normalize(gen(F2, "(T+1)/T", "0"))  # constant part present
    assert not is_single_ramified_form(nf, t)
    nf = witt_normalize(gen(F2, "1/T^2", "0"))  # normalizes to 1/T: passes
    assert is_single_ramified_form(nf, t)
    nf = witt_normalize(gen(F2, "1/(T+1)", "0"))  # wrong prime
    assert not is_single_ramified_form(nf, t)
    nf = witt_normalize(gen(F2, "1/(T^3+T)", "0"))  # several primes
    assert not is_single_ramified_form(nf, t)


def test_is_single_ramified_at_infinity():
    assert is_single_ramified_at_infinity(witt_normalize(gen(F2, "T", "0")))
    assert is_single_ramified_at_infinity(witt_normalize(gen(F2, "T", "T^3")))
    assert not is_single_ramified_at_infinity(witt_normalize(gen(F2, "T+1", "0")))  # f(0) != 0
    assert not is_single_ramified_at_infinity(witt_normalize(gen(F2, "0", "T")))  # first part constant
    assert not is_single_ramified_at_infinity(witt_normalize(gen(F2, "1/T", "0")))  # finite pole
    f3gen = AswGenerator(WittVector(3, (parse_rational(F3, "T^3+T"),)))
    nf3 = witt_normalize(f3gen)  # T^3 peels away, leaving degree-1 part
    assert is_single_ramified_at_infinity(nf3)


def test_variable_inversion_swaps_ramification_side():
    # a generator supported at T alone becomes, after T -> 1/T and
    # renormalization, one supported at the infinite place alone
    t = canonical_prime(F2, 1)
    for texts in (("1/T", "0"), ("1/T^3", "1/T")):
        nf = witt_normalize(gen(F2, *texts))
        assert is_single_ramified_form(nf, t)
        flipped = witt_normalize(invert_variable(AswGenerator(nf.normalized_beta)))
        assert is_single_ramified_at_infinity(flipped)


def test_polynomial_peel_stops_under_a_broken_frobenius(bounded_python):
    # with h^p = h, peeling wp(T) off T^2 leaves T^2: each step must lower
    # the degree, where the loop used to run forever (the sleep keeps such a
    # loop to a few thousand steps before the timeout)
    run = bounded_python(
        "import time\n"
        "from wittcount.asw import hasse_normalize\n"
        "from wittcount.fields import field\n"
        "from wittcount.polys import Polynomial\n"
        "from wittcount.rationals import parse_rational\n"
        "Polynomial.frobenius = lambda self: (time.sleep(0.001), self)[1]\n"
        "hasse_normalize(parse_rational(field(2), 'T^2'))\n")
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == \
        "AssertionError: peeling the top term of T^2 left degree 2"
