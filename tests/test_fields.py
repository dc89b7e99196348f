"""Exact coefficient fields: one element type, RatFunc, for both.  Q(t)
elements are checked against the Fraction reference in fraction_reference,
and elements of Q, the RatFuncs that do not depend on t, against
fractions.Fraction."""

from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given

import fraction_reference as ref
from diffalg import QQ, QT, RatFunc
from diffalg.fields import _pgcd, _pmul

from strategies import small_fractions, small_rationals


@st.composite
def ratfuncs(draw):
    num = draw(st.lists(small_rationals(), min_size=0, max_size=3))
    den = draw(st.lists(small_rationals(), min_size=0, max_size=3))
    d = tuple(den)
    while not any(d):
        d = (draw(small_rationals().filter(bool)),)
    return RatFunc.make(tuple(num), d)


class TestRatFunc:
    def test_canonical_form_examples(self):
        # (t^2 - 1) / (t - 1) reduces to t + 1
        a = RatFunc.make((Fraction(-1), Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)))
        b = RatFunc.make((Fraction(1), Fraction(1)), (Fraction(1),))
        assert a == b
        assert a.text() == "t + 1"

    def test_denominator_is_monic(self):
        # 1/(2 + 2t) is (1/2)/(t + 1): monic in the rational view, and
        # 1/(2t + 2) with a positive leading coefficient inside
        a = RatFunc.make((Fraction(1),), (Fraction(2), Fraction(2)))
        assert ref.view(a) == ref.make((1,), (2, 2)) == ((Fraction(1, 2),), (1, 1))
        assert a.text() == "(1/2)/(t + 1)"
        b = RatFunc.make((Fraction(1),), (Fraction(-2), Fraction(-2)))
        assert ref.view(b) == ((Fraction(-1, 2),), (1, 1))
        assert b.den[-1] > 0

    def test_zero_is_unique(self):
        z = RatFunc.make((Fraction(0),), (Fraction(3), Fraction(5)))
        assert not z
        assert z == QT.zero

    @given(ratfuncs(), ratfuncs())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(ratfuncs(), ratfuncs(), ratfuncs())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(ratfuncs())
    def test_sub_self_is_zero(self, a):
        assert not (a - a)

    @given(ratfuncs(), ratfuncs())
    def test_div_inverts_mul(self, a, b):
        if not b:
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            assert (a / b) * b == a

    @given(ratfuncs(), ratfuncs())
    def test_derive_leibniz(self, a, b):
        assert (a * b).derive() == a.derive() * b + a * b.derive()

    @given(ratfuncs(), ratfuncs())
    def test_derive_additive(self, a, b):
        assert (a + b).derive() == a.derive() + b.derive()

    def test_derive_t(self):
        assert QT.t().derive() == QT.one
        assert QT.derive(QT.t() * QT.t()) == QT.from_fraction(2) * QT.t()

    def test_quotient_rule_example(self):
        # d/dt (1/t) = -1/t^2
        inv_t = QT.one / QT.t()
        assert inv_t.derive() == -(QT.one / (QT.t() * QT.t()))


class TestFieldWrapper:
    def test_check_rejects_mixed_elements(self):
        with pytest.raises(TypeError):
            QQ.check(QT.t())  # depends on t
        with pytest.raises(TypeError):
            QQ.check(QT.one / (QT.t() + QT.one))
        with pytest.raises(TypeError):
            QQ.check(Fraction(1))  # Fractions stop at from_fraction
        with pytest.raises(TypeError):
            QT.check(Fraction(1))
        with pytest.raises(TypeError):
            QQ.check(0.5)  # floats never enter exact arithmetic

    def test_elements_of_q_are_elements_of_q_t(self):
        a = QQ.from_fraction(Fraction(-3, 4))
        assert QQ.check(a) is a and QT.check(a) is a
        assert a == QT.from_fraction(Fraction(-3, 4))

    @given(small_fractions())
    def test_derivation_on_q_is_zero(self, a):
        assert QQ.derive(a) == QQ.zero

    def test_text_is_parseable_fractions(self):
        assert QQ.text(QQ.from_fraction(Fraction(-3, 4))) == "-3/4"
        assert QQ.text(QQ.from_fraction(5)) == "5"
        assert QQ.text(QQ.zero) == "0"

    def test_bits_reads_the_stored_integers(self):
        assert QQ.bits(QQ.from_fraction(Fraction(-255, 4))) == 8
        # 1/3 + 5t is stored as (1 + 15t)/3
        assert QT.bits(RatFunc.make((Fraction(1, 3), 5), (1,))) == 4
        assert QT.bits(QT.one / (QT.t() * QT.from_fraction(-1000) + QT.one)) == 10

    def test_text_ratfunc(self):
        a = (QT.t() * QT.t() + QT.one) / QT.t()
        assert a.text() == "(t^2 + 1)/(t)"


class TestRationalsAgainstFraction:
    """Elements of Q built by QQ.from_fraction behave as the Fractions they
    came from: fractions.Fraction is the reference."""

    @given(small_rationals(99, 12), small_rationals(99, 12))
    def test_arithmetic_matches_fraction(self, x, y):
        a, b = QQ.from_fraction(x), QQ.from_fraction(y)
        assert a + b == QQ.from_fraction(x + y)
        assert a - b == QQ.from_fraction(x - y)
        assert a * b == QQ.from_fraction(x * y)
        assert -a == QQ.from_fraction(-x)
        if y:
            assert a / b == QQ.from_fraction(x / y)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        for r in (a + b, a - b, a * b):
            assert r.is_constant() and _is_canonical(r)

    @given(small_rationals(99, 12), small_rationals(99, 12))
    def test_equality_and_hash_match_fraction(self, x, y):
        a, b = QQ.from_fraction(x), QQ.from_fraction(y)
        assert (a == b) == (x == y)
        if x == y:
            assert hash(a) == hash(b)
        assert bool(a) == bool(x)

    @given(small_rationals(10**30, 10**12))
    def test_text_and_bits_match_fraction(self, x):
        a = QQ.from_fraction(x)
        assert QQ.text(a) == ref.fraction_text(x)
        assert QQ.bits(a) == max(x.numerator.bit_length(), x.denominator.bit_length())
        assert ref.view(a) == ((x,) if x else (), ref.ONE)

    @given(small_rationals(), st.integers(min_value=0, max_value=40))
    def test_power_matches_fraction(self, x, e):
        assert QQ.from_fraction(x) ** e == QQ.from_fraction(x**e)


@st.composite
def tpolys(draw):
    """Polynomials in t: a constant denominator, the case the fast paths
    serve."""
    return RatFunc.make(tuple(draw(st.lists(small_rationals(), max_size=4))), (1,))


def _is_canonical(a: RatFunc) -> bool:
    """Integer coefficients, coprime in Q[t], jointly primitive, lc(den) > 0."""
    num, den = a.num, a.den
    return (
        all(type(c) is int for c in num + den)
        and (not num or num[-1] != 0)
        and den[-1] > 0
        and gcd(*num, *den) == 1
        and (bool(num) or den == (1,))
        and (not num or ref.pgcd(ref.ptrim(map(Fraction, num)), ref.ptrim(map(Fraction, den))) == ref.ONE)
    )


class TestFastPaths:
    """Each shortcut of RatFunc against the Fraction reference, compared
    through the rational view and text()."""

    @given(st.lists(small_rationals(), max_size=4), st.lists(small_rationals(), max_size=4))
    def test_make_matches_reference(self, num, den):
        if not any(den):
            with pytest.raises(ZeroDivisionError):
                RatFunc.make(tuple(num), tuple(den))
            return
        got, want = RatFunc.make(tuple(num), tuple(den)), ref.make(num, den)
        assert ref.view(got) == want
        assert got.text() == ref.text(want)

    def test_make_accepts_integers(self):
        assert RatFunc.make((2, 4), (2,)) == RatFunc.make((Fraction(1), Fraction(2)), (Fraction(1),))

    @given(st.one_of(ratfuncs(), tpolys()), st.one_of(ratfuncs(), tpolys()))
    def test_sum_product_and_derivative_match_reference(self, a, b):
        ra, rb = ref.view(a), ref.view(b)
        for got, want in (
            (a + b, ref.add(ra, rb)),
            (a - b, ref.add(ra, (ref.pneg(rb[0]), rb[1]))),
            (a * b, ref.mul(ra, rb)),
            (a.derive(), ref.derive(ra)),
        ):
            assert ref.view(got) == want
            assert got.text() == ref.text(want)
        if b:
            assert ref.view(a / b) == ref.div(ra, rb)
        assert _pmul(a.num, b.num) == ref.pmul(a.num, b.num)

    @given(st.lists(st.integers(-9, 9), max_size=5), st.lists(st.integers(-9, 9), max_size=5))
    def test_integer_gcd_matches_reference(self, a, b):
        a, b = ref.ptrim(a), ref.ptrim(b)
        if not a or not b:
            return
        g = _pgcd(a, b)
        assert gcd(*g) == 1 and g[-1] > 0
        assert ref.pscale(g, Fraction(1, g[-1])) == ref.pgcd(ref.ptrim(map(Fraction, a)), ref.ptrim(map(Fraction, b)))

    @given(st.one_of(ratfuncs(), tpolys(), small_fractions()), st.integers(min_value=0, max_value=9))
    def test_power_is_repeated_product(self, a, e):
        want = QT.one
        for _ in range(e):
            want = want * a
        got = a**e
        assert got == want and _is_canonical(got)

    def test_field_constants(self):
        assert QQ.zero == QQ.from_fraction(0) and QQ.one == QQ.from_fraction(1)
        assert QT.zero == RatFunc.make((), (1,)) and QT.one == RatFunc.make((1,), (1,))
        assert QQ.zero is QT.zero and QQ.one is QT.one


class TestCanonicalForm:
    """One value, one representation: the invariants hold after every
    operation, so equal values are == with equal hashes."""

    @given(st.one_of(ratfuncs(), tpolys()), st.one_of(ratfuncs(), tpolys()))
    def test_invariants_after_each_operation(self, a, b):
        results = [a, b, a + b, a - b, -a, a * b, a.derive(), b.derive()]
        if b:
            results.append(a / b)
        for r in results:
            assert _is_canonical(r), r

    @given(st.one_of(ratfuncs(), tpolys()), st.one_of(ratfuncs(), tpolys()), st.integers(-6, 6).filter(bool))
    def test_paths_to_one_value_agree(self, a, b, k):
        paths = [(a + b) - b, a * b / b if b else a]
        num, den = ref.view(a)
        paths.append(RatFunc.make([c * k for c in num], [c * k for c in den]))
        paths.append(RatFunc.make([c * Fraction(1, k) for c in num], [c * Fraction(1, k) for c in den]))
        for p in paths:
            assert p == a and hash(p) == hash(a)
