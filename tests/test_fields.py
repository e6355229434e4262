import pytest

from wittcount.fields import FiniteField, _LazyRows, field
from wittcount.polys import Polynomial


def test_canonical_moduli():
    assert field(2, 1).modulus == (0, 1)
    assert field(3, 1).modulus == (0, 1)
    # the only monic irreducible quadratic over F_2, confirmed by scanning
    # all four monic quadratics by hand: x^2, x^2+1, x^2+x factor
    assert field(2, 2).modulus == (1, 1, 1)
    # smallest-encoded monic irreducibles, constant term first
    assert field(2, 3).modulus == (1, 1, 0, 1)
    assert field(3, 2).modulus == (1, 0, 1)
    assert field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert field(5, 2).modulus == (2, 0, 1)
    assert field(7, 2).modulus == (1, 0, 1)
    assert field(3, 4).modulus == (2, 1, 0, 0, 1)
    assert field(2, 10).modulus == (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)
    assert field(2, 1).q == 2
    assert field(3, 1).q == 3


def test_modulus_search_is_polynomial_time():
    # trial division of a quartic over F_1031 would need 1031^2 quadratic
    # divisors; the sieve tests the ~1,000 candidates before T^4+T+1 well
    # inside the search's cap
    fld = field(1031, 4)
    assert fld.modulus == (1, 1, 0, 0, 1)
    assert all((x**4 + x + 1) % 1031 for x in range(1031))  # no root in F_1031


def test_modulus_search_holds_no_row_of_a_large_prime_field():
    # the candidates are decoded one at a time: a row of 2^40 ints would not fit
    p = 1099511627689  # a prime just below MAX_CHARACTERISTIC
    assert field(p, 2).modulus == (7, 0, 1)
    assert pow(p - 7, (p - 1) // 2, p) == p - 1  # -7 is no square mod p


def test_field_is_cached_and_identical():
    assert field(2, 2) is field(2, 2)
    assert field(5, 1) is field(5, 1)
    assert field(5) is field(5, 1)


@pytest.mark.parametrize("p, s", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                                  (5, 2), (7, 2)])
def test_tables_match_untabled_arithmetic(p, s):
    # every q = p^s <= 64 with s > 1: the log/antilog mul table and the
    # digit-by-digit add table against the polynomial product and digit sums
    fld = field(p, s)
    for a in range(fld.q):
        da = fld._digits(a)
        for b in range(fld.q):
            assert fld._mul_table[a][b] == fld._mul_untabled(a, b)
            digit_sum = [(x + y) % p for x, y in zip(da, fld._digits(b))]
            assert fld._add_table[a][b] == fld._undigits(digit_sum)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field(4, 1)
    with pytest.raises(ValueError):
        field(2, 0)
    with pytest.raises(ValueError):
        field(2, 17)


def test_char2_addition():
    f2 = field(2, 1)
    assert (f2.one() + f2.one()).val == 0


def test_f4_generator_multiplication():
    # g is a root of x^2+x+1, so g*g = g+1 (encodings 2 and 3)
    f4 = field(2, 2)
    g = f4.elem(2)
    assert (g * g).val == 3
    assert (g * g * g).val == 1


def test_fermat_in_prime_field():
    f3 = field(3, 1)
    assert (f3.elem(2) ** 3).val == 2


def test_division_and_errors():
    f4 = field(2, 2)
    g = f4.elem(2)
    assert (g / g).val == 1
    with pytest.raises(ZeroDivisionError):
        g / f4.zero()
    with pytest.raises(ValueError):
        g + field(3, 1).elem(1)


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (5, 1)])
def test_field_axioms_exhaustive(p, s):
    f = field(p, s)
    elems = list(f.elements())
    for x in elems:
        assert (x ** f.q) == x
        for y in elems:
            assert (x + y) ** p == x**p + y**p  # Frobenius additivity
    for x in elems:
        if x.val:
            assert (x * (f.one() / x)).val == 1


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_pth_root_inverts_frobenius(p, s):
    f = field(p, s)
    squares = {x.val: x.frobenius().val for x in f.elements()}
    for x in f.elements():
        assert x.pth_root().frobenius() == x
        assert squares[x.pth_root().val] == x.val


def test_pth_root_frozen_examples():
    assert field(2, 1).elem(1).pth_root().val == 1
    # in F_4: (g+1)^2 = g, derived by squaring all four elements
    f4 = field(2, 2)
    assert f4.elem(2).pth_root().val == 3
    assert field(3, 1).elem(2).pth_root().val == 2


def test_wp_image_frozen_examples():
    f2 = field(2, 1)
    assert f2.elem(0).in_wp_image()
    assert not f2.elem(1).in_wp_image()  # wp(F_2) = {0} by enumeration
    f4 = field(2, 2)
    assert f4.elem(1).in_wp_image()  # wp(g) = g^2 - g = 1


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (5, 1), (7, 1)])
def test_wp_image_matches_exhaustive(p, s):
    f = field(p, s)
    image = {x.wp().val for x in f.elements()}
    for x in f.elements():
        assert x.in_wp_image() == (x.val in image)


def test_wp_coset_representative_is_canonical():
    f4 = field(2, 2)
    for x in f4.elements():
        rep, a = f4.wp_coset_rep_val(x.val)
        coset = [f4.add_val(x.val, f4.wp_val(b)) for b in range(4)]
        assert rep == min(coset)
        # a moves x to rep, and no smaller-encoded element does
        assert coset[a] == rep and rep not in coset[:a]
    # a representative of the image coset is 0, reached with no move
    assert f4.wp_coset_rep_val(0) == (0, 0)


def test_integer_encoding_digits():
    f9 = field(3, 2)
    x = f9.elem(7)  # digits (1, 2): 1 + 2*3
    assert x.coeffs == (1, 2)


def test_element_is_not_equal_to_an_int():
    # equality with an int would hold for a whole residue class mod p, which
    # no hash can follow; elements compare with elements only
    f3 = field(3)
    one = f3.elem(1)
    assert one != 1 and one != 4 and f3.zero() != 0
    assert one == f3.from_int(4) and hash(one) == hash(f3.from_int(4))
    assert len({f3.elem(v) for v in range(9)}) == 3


def test_trace_lands_in_prime_field():
    for p, s in [(2, 2), (2, 3), (3, 2)]:
        f = field(p, s)
        for x in f.elements():
            assert 0 <= x.trace() < p


def test_large_field_without_tables():
    f = field(2, 10)  # q = 1024, above the table limit
    g = f.elem(37)
    assert (g * g.pth_root().frobenius()).val == f.mul_val(37, 37)
    assert g ** f.q == g


@pytest.mark.parametrize("p, s", [(2, 2), (3, 2)])
def test_tabled_field_holds_one_element_per_value(p, s):
    # F_4 and F_9: every operator, constructor and evaluation returns the
    # field's own object for its value, never a new one
    fld = field(p, s)
    elems = list(fld.elements())
    assert [x.val for x in elems] == list(range(fld.q))
    assert all(x is fld.elem(x.val) is fld.elem(x.val + fld.q) for x in elems)
    assert fld.zero() is elems[0] and fld.one() is elems[1] is fld.from_int(p + 1)
    for x in elems:
        results = [-x, x**0, x**3, x.frobenius(), x.pth_root(), x.wp(), x + 1, 1 + x, x - 1,
                   1 - x, 2 * x, x * 2, Polynomial(fld, (1, 2, 1)).eval(x)]
        for y in elems:
            results += [x + y, x - y, x * y]
            if y:
                results += [x / y, 1 / y, y**-1]
        assert all(r is elems[r.val] for r in results), x


def test_untabled_field_builds_elements_on_demand():
    # a tuple of every element would hold 2^40 of them at the largest p; above
    # the table limit each lookup builds a fresh element, equal by value
    fld = field(2, 9)  # q = 512
    assert isinstance(fld._elems, _LazyRows)
    x, y = fld.elem(37), fld.elem(37 + fld.q)
    assert x is not y and x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x * fld.one() == x and x - y == fld.zero() and (x / y).val == 1
    assert x.pth_root().frobenius() == x and (x ** (fld.q - 1)).val == 1


def _pow_untabled_reference(fld, a, e):
    """a^e by square-and-multiply over ``_mul_untabled``; e >= 0."""
    result = 1
    while e:
        if e & 1:
            result = fld._mul_untabled(result, a)
        a, e = fld._mul_untabled(a, a), e >> 1
    return result


TABLED_UP_TO_64 = [(p, s) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                    53, 59, 61)
                   for s in range(1, 7) if p**s <= 64]


@pytest.mark.parametrize("p, s", TABLED_UP_TO_64)
def test_unary_tables_and_log_powers_match_untabled(p, s):
    # every tabled q = p^s <= 64: negation, inverse, Frobenius and p-th root
    # rows, and the log/antilog pow_val, against digits and square-and-multiply
    fld = field(p, s)
    q = fld.q
    exponents = (0, 1, 2, p, q - 2, q - 1, q, q + 1, 3 * q + 5)
    for a in range(q):
        assert fld.neg_val(a) == fld._undigits([-x % p for x in fld._digits(a)])
        assert fld.frobenius_val(a) == _pow_untabled_reference(fld, a, p)
        assert fld.pth_root_val(fld.frobenius_val(a)) == a
        for e in exponents:
            assert fld.pow_val(a, e) == _pow_untabled_reference(fld, a, e), (a, e)
        if a:
            inv = fld.inv_val(a)
            assert fld._mul_untabled(a, inv) == 1
            for e in exponents:
                assert fld.pow_val(a, -e) == _pow_untabled_reference(fld, inv, e), (a, -e)
    assert fld.pow_val(0, 0) == 1 and fld.pow_val(0, q + 1) == 0
    for e in (-1, -q):
        with pytest.raises(ZeroDivisionError):
            fld.pow_val(0, e)
    with pytest.raises(ZeroDivisionError):
        fld.zero() ** -1
    with pytest.raises(ZeroDivisionError):
        fld.inv_val(0)


def test_primitive_element_search_stops_under_a_broken_multiply(bounded_python):
    # with x*g = x, the powers of g never return to 1: the search stops after
    # q - 1 products of a candidate, where it used to loop forever (the sleep
    # keeps such a loop from filling memory before the timeout)
    run = bounded_python(
        "import time\n"
        "from wittcount.fields import FiniteField\n"
        "FiniteField._mul_untabled = lambda self, a, b: (time.sleep(0.001), a)[1]\n"
        "FiniteField(5, 1)\n")
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == \
        "AssertionError: the powers of 2 in GF(5) do not return to 1"
