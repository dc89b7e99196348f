"""Exact coefficient fields: Q via Fraction, Q(t) via reduced rational
functions with the d/dt derivation."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from diffalg import QQ, QT, RatFunc
from diffalg.fields import (
    _padd,
    _pderive,
    _pdivmod,
    _pgcd,
    _pmul,
    _pneg,
    _pscale,
    _ptrim,
)

from conftest import small_fractions


@st.composite
def ratfuncs(draw):
    num = draw(st.lists(small_fractions(), min_size=0, max_size=3))
    den = draw(st.lists(small_fractions(), min_size=0, max_size=3))
    d = tuple(den)
    while not any(d):
        d = (draw(small_fractions().filter(bool)),)
    return RatFunc.make(tuple(num), d)


class TestRatFunc:
    def test_canonical_form_examples(self):
        # (t^2 - 1) / (t - 1) reduces to t + 1
        a = RatFunc.make((Fraction(-1), Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)))
        b = RatFunc.make((Fraction(1), Fraction(1)), (Fraction(1),))
        assert a == b
        assert a.text() == "t + 1"

    def test_denominator_is_monic(self):
        a = RatFunc.make((Fraction(1),), (Fraction(2), Fraction(2)))
        assert a.den[-1] == 1

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
            QQ.check(RatFunc.from_fraction(Fraction(1)))
        with pytest.raises(TypeError):
            QT.check(Fraction(1))
        with pytest.raises(TypeError):
            QQ.check(0.5)  # floats never enter exact arithmetic

    @given(small_fractions())
    def test_derivation_on_q_is_zero(self, a):
        assert QQ.derive(a) == 0

    def test_text_is_parseable_fractions(self):
        assert QQ.text(Fraction(-3, 4)) == "-3/4"
        assert QQ.text(Fraction(5)) == "5"

    def test_text_ratfunc(self):
        a = (QT.t() * QT.t() + QT.one) / QT.t()
        assert a.text() == "(t^2 + 1)/(t)"


def _reference_make(num, den) -> RatFunc:
    """The canonical form the long way: always divide out the gcd, then
    make the denominator monic."""
    num = _ptrim(Fraction(c) for c in num)
    den = _ptrim(Fraction(c) for c in den)
    if not num:
        return RatFunc.make((), (1,))
    g = _pgcd(num, den)
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    return RatFunc(_pscale(num, 1 / den[-1]), _pscale(den, 1 / den[-1]))


def _reference_mul(a, b) -> tuple:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


@st.composite
def tpolys(draw):
    """Polynomials in t: denominator 1, the case the fast paths serve."""
    return RatFunc.make(tuple(draw(st.lists(small_fractions(), max_size=4))), (1,))


class TestFastPaths:
    """Each shortcut of RatFunc against the general canonical form."""

    @given(st.lists(small_fractions(), max_size=4), st.lists(small_fractions(), max_size=4))
    def test_make_matches_reference(self, num, den):
        if not any(den):
            return
        assert RatFunc.make(tuple(num), tuple(den)) == _reference_make(num, den)

    def test_make_accepts_integers(self):
        assert RatFunc.make((2, 4), (2,)) == RatFunc.make((Fraction(1), Fraction(2)), (Fraction(1),))

    @given(st.one_of(ratfuncs(), tpolys()), st.one_of(ratfuncs(), tpolys()))
    def test_sum_product_and_derivative_match_reference(self, a, b):
        assert a + b == _reference_make(
            _padd(_reference_mul(a.num, b.den), _reference_mul(b.num, a.den)),
            _reference_mul(a.den, b.den),
        )
        assert a * b == _reference_make(_reference_mul(a.num, b.num), _reference_mul(a.den, b.den))
        assert _pmul(a.num, b.num) == _reference_mul(a.num, b.num)
        assert a.derive() == _reference_make(
            _padd(_reference_mul(_pderive(a.num), a.den), _pneg(_reference_mul(a.num, _pderive(a.den)))),
            _reference_mul(a.den, a.den),
        )

    @given(tpolys(), st.integers(min_value=0, max_value=4))
    def test_power_is_repeated_product(self, a, e):
        ref = QT.one
        for _ in range(e):
            ref = ref * a
        assert a**e == ref

    def test_field_constants(self):
        assert QQ.zero == 0 and QQ.one == 1
        assert QT.zero == RatFunc.make((), (1,)) and QT.one == RatFunc.make((1,), (1,))
        assert QQ.zero is QQ.zero and QT.one is QT.one
