"""Generator normalization for cyclic p-power extensions of F_q(T).

A degree-p extension generator beta is brought to the classical normal
form (pole orders coprime to p, reduced numerators, polynomial part of
degree coprime to p, constants outside the a^p - a image) by adding
explicit corrections wp(c); the length-n vector case runs the same
reduction level by level through full Witt arithmetic, which leaves the
already-normalized lower levels untouched.  Every normalization returns
its correction vector as a checkable certificate.
"""

from __future__ import annotations

from collections import namedtuple

from .fields import FiniteField
from .polys import Polynomial
from .rationals import RationalFunction, partial_fractions, pole_part
from .witt import MAX_WITT_LENGTH, WittVector


class AswGenerator(namedtuple("AswGenerator", "beta")):
    """A Witt vector of rational functions defining a cyclic p^n-extension."""

    __slots__ = ()

    @property
    def field(self) -> FiniteField:
        return self.beta.comps[0].field


class PrimeBlock(namedtuple("PrimeBlock", "prime levels")):
    __slots__ = ()  # levels: per level (Q: Polynomial, lam: int), Q zero iff lam zero

    def lambdas(self) -> tuple:
        return tuple(lam for _, lam in self.levels)


class InfinityBehavior(namedtuple("InfinityBehavior", "s t e f g")):
    """Splitting data of the infinite place: e*f*g = p^n always."""

    __slots__ = ()

    def __new__(cls, s, t, e, f, g):
        if not (0 <= s <= t) or min(e, f, g) < 1:
            raise ValueError("inconsistent infinity behavior")
        return super().__new__(cls, s, t, e, f, g)

    @property
    def label(self) -> str:
        if self.e == 1 and self.f == 1:
            return "decomposed"
        if self.e == 1 and self.g == 1:
            return "inert"
        if self.f == 1 and self.g == 1:
            return "ramified"
        return f"mixed(e={self.e},f={self.f},g={self.g})"


class NotNormalFormError(ValueError):
    """Raised when an operation requires an input already in normal form."""


class AswNormalForm(namedtuple("AswNormalForm",
                               "n primes mu certificate normalized_beta source_beta")):
    """Normalized generator plus the data read off from its components.

    ``primes`` (a tuple of PrimeBlock) and ``mu`` (each level's polynomial
    part) come from the partial-fraction decomposition of each component of
    ``normalized_beta``; the certificate satisfies
    normalized_beta = source_beta (+) wp(certificate) in Witt arithmetic.
    """

    __slots__ = ()

    @property
    def p(self) -> int:
        return self.normalized_beta.p

    def certificate_holds(self) -> bool:
        """Re-check normalized = source (+) wp(certificate) by Witt arithmetic."""
        return self.source_beta.add(self.certificate.wp()) == self.normalized_beta

    def validate(self):
        """Raise NotNormalFormError unless the component data is a normal form."""
        for level, g in enumerate(self.mu):
            terms = []
            for block in self.primes:
                q_i, lam = block.levels[level]
                if (lam == 0) != q_i.is_zero():
                    raise NotNormalFormError("numerator and pole order are not zero together")
                if lam:
                    if q_i.gcd(block.prime).degree != 0:
                        raise NotNormalFormError("numerator shares a factor with its prime")
                    if q_i.degree >= lam * block.prime.degree:
                        raise NotNormalFormError("numerator degree too large")
                    terms.append((block.prime, lam, q_i))
            if (fault := _level_fault(g, terms)) is not None:
                raise NotNormalFormError(fault)
        return self

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "primes": [
                {
                    "P": str(block.prime),
                    "levels": [[str(q_i), lam] for q_i, lam in block.levels],
                }
                for block in self.primes
            ],
            "mu": [str(f_i) for f_i in self.mu],
            "certificate": str(self.certificate),
            "normalized": str(self.normalized_beta),
        }


def _pth_root_mod(v: Polynomial, prime: Polynomial) -> Polynomial:
    """The p-th root of v in the residue field F_q[T]/(P)."""
    fld = v.field
    exp = fld.p ** (fld.s * prime.degree - 1)
    return v.modpow(exp, prime)


def hasse_normalize(beta: RationalFunction):
    """Return (beta', c) with beta' = beta + wp(c) in normal form.

    Pole orders divisible by p are peeled by subtracting wp(u / P^(e/p))
    with u^p = -Q mod P; polynomial degrees divisible by p are peeled with
    wp(b T^(deg/p)), b^p = -leading; a leftover constant is moved to the
    smallest-encoded representative of its coset modulo a^p - a.
    """
    g, terms, correction = _hasse_parts(beta)
    return _assemble(g, terms), correction


def _hasse_parts(beta: RationalFunction):
    """:func:`hasse_normalize` as partial fractions: (g, terms, c) where
    beta + wp(c) is the polynomial part g plus the (P, e, Q) terms, each a
    proper fraction Q/P^e, sorted as :func:`partial_fractions` sorts them.
    beta is decomposed once, and a pole order e = kp is peeled in F_q[T]:
    Q/P^e + wp(u/P^k) = (Q + u^p - u*P^(e-k))/P^e stays proper, and P is
    divided out of its numerator, which it divides as u^p = -Q mod P."""
    fld = beta.field
    p = fld.p
    correction = RationalFunction.zero(fld)
    poly_part, terms = partial_fractions(beta)

    normal_terms = []
    for prime, e, q_num in terms:
        while q_num and e % p == 0:
            u = _pth_root_mod(-(q_num % prime), prime)
            # u/P^k is reduced: u is a nonzero residue, as Q is prime to P
            correction = correction + RationalFunction._raw(u, prime ** (e // p))
            q_num, r = divmod(q_num + u.frobenius() - u * prime ** (e - e // p), prime)
            if r:  # u^p = -Q mod P: only broken arithmetic leaves a remainder
                raise AssertionError(f"{prime} does not divide the peeled numerator")
            e -= 1
            while q_num and not (qr := divmod(q_num, prime))[1]:
                q_num, e = qr[0], e - 1
        if q_num:
            normal_terms.append((prime, e, q_num))

    g = poly_part
    while not g.is_constant() and g.degree % p == 0:
        b = fld.pth_root_val(fld.neg_val(g.leading()))
        step_poly = Polynomial(fld, (0,) * (g.degree // p) + (b,))
        correction = correction + RationalFunction(step_poly)
        peeled = g + step_poly.frobenius() - step_poly
        if peeled.degree >= g.degree:  # (b T^(deg/p))^p cancels the top term unless arithmetic is broken
            raise AssertionError(f"peeling the top term of {g} left degree {peeled.degree}")
        g = peeled

    if g.is_constant() and g.constant_coeff():
        rep, a = fld.wp_coset_rep_val(g.constant_coeff())
        if a:
            correction = correction + RationalFunction.const(fld, a)
            g = Polynomial.const(fld, rep)
    return g, normal_terms, correction


def _assemble(g: Polynomial, terms) -> RationalFunction:
    """g plus the fractions Q/P^e of the (P, e, Q) terms."""
    out = RationalFunction(g)
    for term in terms:
        out = out + pole_part(term)
    return out


def _level_fault(g: Polynomial, terms):
    """Why one level, the polynomial part g plus the (P, e, Q) terms, is not
    in normal form, or None when it is."""
    fld = g.field
    p = fld.p
    for _, e, _ in terms:
        if e % p == 0:
            return f"pole order {e} divisible by {p}"
    if not g.is_constant():
        return f"polynomial part degree {g.degree} divisible by {p}" if g.degree % p == 0 else None
    c = g.constant_coeff()
    return "constant part lies in the a^p - a image" if c and fld.in_wp_image_val(c) else None


def is_normal_form(beta: WittVector) -> bool:
    return all(_level_fault(*partial_fractions(c)) is None for c in beta.comps)


def witt_normalize(gen: AswGenerator) -> AswNormalForm:
    """Level-by-level Schmid normalization with a checkable certificate.

    At each level L the component is Hasse-normalized and its correction
    c_L is added as wp(V^L[c_L]) = V^L(wp([c_L])), F and V commuting in
    characteristic p.  V^L is additive, so the sum is running[:L] followed
    by running[L:] (+) wp([c_L]) in W_(n-L): the lower levels are untouched
    by construction, not asserted, level L is checked against its Hasse
    decomposition, and higher levels absorb the carry terms and are
    normalized in their own turn.  So each level's Hasse decomposition is
    already its final one, and ``mu`` and the prime blocks are read off it.
    The certificate, the Witt sum of the V^i[c_i], is (c_0, ..., c_(n-1))
    itself: a vector that is zero from level L on plus one that is zero
    below L is their concatenation.
    """
    beta = gen.beta
    n = beta.n
    if n > MAX_WITT_LENGTH:
        raise ValueError(f"Witt length {n} exceeds bound {MAX_WITT_LENGTH}")
    fld = gen.field
    p = beta.p
    zero = RationalFunction.zero(fld)
    running = beta
    corrections = []
    prime_levels = {}
    mu = []
    for level in range(n):
        g, terms, c_i = _hasse_parts(running.comps[level])
        corrections.append(c_i)
        mu.append(g)
        for prime, e, q_num in terms:
            prime_levels.setdefault(prime, {})[level] = (q_num, e)
        if not c_i.is_zero():
            v = WittVector._raw(p, (c_i,) + (zero,) * (n - 1 - level))
            tail = WittVector._raw(p, running.comps[level:]).add(v.wp())
            running = WittVector._raw(p, running.comps[:level] + tail.comps)
            if running.comps[level] != _assemble(g, terms):
                raise AssertionError("level isolation failed during normalization")
    zero_poly = Polynomial.zero(fld)
    blocks = []
    for prime in sorted(prime_levels, key=lambda pp: (pp.degree, pp.to_int())):
        levels = tuple(prime_levels[prime].get(level, (zero_poly, 0)) for level in range(n))
        blocks.append(PrimeBlock(prime=prime, levels=levels))
    return AswNormalForm(
        n=n,
        primes=tuple(blocks),
        mu=tuple(mu),
        certificate=WittVector(p, corrections),
        normalized_beta=running,
        source_beta=beta,
    ).validate()


def conductor_exponent(lambdas, p: int) -> int:
    """M_n = max_i p^(n-i) * lambda_i, cross-checked against the recursion
    M_i = max(p*M_(i-1), lambda_i)."""
    lams = list(lambdas)
    if not lams:
        raise ValueError("empty pole-order vector")
    if lams[0] <= 0:
        raise ValueError("the first pole order must be positive (the prime must ramify)")
    for lam in lams:
        if lam < 0 or (lam > 0 and lam % p == 0):
            raise ValueError(f"pole order {lam} must be zero or coprime to {p}")
    n = len(lams)
    closed = max(p ** (n - 1 - i) * lam for i, lam in enumerate(lams))
    rec = lams[0]
    for lam in lams[1:]:
        rec = max(p * rec, lam)
    if closed != rec:
        raise AssertionError("conductor closed form disagrees with its recursion")
    return closed


def infinity_behavior(nf: AswNormalForm) -> InfinityBehavior:
    """Splitting type of the infinite place from the polynomial parts."""
    p, n = nf.p, nf.n
    t = n
    for i, f_i in enumerate(nf.mu):
        if not f_i.is_constant():
            t = i
            break
    s = 0
    while s < t and nf.mu[s].is_zero():
        s += 1
    behavior = InfinityBehavior(s=s, t=t, e=p ** (n - t), f=p ** (t - s), g=p**s)
    if behavior.e * behavior.f * behavior.g != p**n:
        raise AssertionError(f"e * f * g = {behavior.e * behavior.f * behavior.g} != p^n = {p**n}")
    return behavior


def is_single_ramified_form(nf: AswNormalForm, prime: Polynomial) -> bool:
    """True when the form is supported at `prime` alone, with no constant or
    polynomial parts, and the prime ramifies from the first level."""
    if any(not f_i.is_zero() for f_i in nf.mu):
        return False
    if len(nf.primes) != 1 or nf.primes[0].prime != prime:
        return False
    return nf.primes[0].levels[0][1] > 0
