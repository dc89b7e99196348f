"""Exact coefficient fields: Q via Fraction, Q(t) via reduced rational
functions with the d/dt derivation."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from diffalg import QQ, QT, RatFunc
from diffalg.fields import FieldTag, field_for

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
    def test_field_for_roundtrip(self):
        assert field_for(FieldTag.RATIONALS) is QQ
        assert field_for(FieldTag.RATIONAL_FUNCTIONS_T) is QT

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
