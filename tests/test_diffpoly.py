"""Differential polynomial arithmetic: ring axioms, the derivation, order
bookkeeping, and evaluation at points."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from diffalg import (
    NEG_INF,
    ConcretePoint,
    Context,
    Convention,
    DerVar,
    DiffPoly,
    Monomial,
    QQ,
    QT,
)
from diffalg.diffpoly import MON_ONE, OrderCapExceeded

from conftest import contexts, diffpolys, small_fractions

XY = Context(("x", "y"), QQ)


def P(src: str, ctx=XY) -> DiffPoly:
    from diffalg.sysfile import parse_poly

    return parse_poly(src, ctx)


class TestMonomial:
    def test_of_zero_exponent_is_one(self):
        assert Monomial.of(DerVar(0, 1), 0) is MON_ONE

    def test_make_merges_repeated_jets(self):
        v = DerVar(0, 2)
        m = Monomial.make([(v, 1), (v, 2)])
        assert m.degree_in(v) == 3

    def test_weight_counts_orders(self):
        m = Monomial.make([(DerVar(0, 2), 2), (DerVar(1, 1), 1)])
        assert m.weight() == 5
        assert m.degree() == 3

    def test_text(self):
        m = Monomial.make([(DerVar(0, 1), 2), (DerVar(1, 0), 1)])
        assert m.text(("x", "y")) == "x'^2*y"
        assert Monomial.of(DerVar(0, 4)).text(("x",)) == "x^(4)"


class TestRingAxioms:
    @given(st.data())
    def test_add_commutes(self, data):
        ctx = data.draw(contexts())
        a = data.draw(diffpolys(ctx))
        b = data.draw(diffpolys(ctx))
        assert a + b == b + a

    @given(st.data())
    def test_mul_associates(self, data):
        ctx = data.draw(contexts(max_vars=2))
        a = data.draw(diffpolys(ctx, max_terms=3))
        b = data.draw(diffpolys(ctx, max_terms=3))
        c = data.draw(diffpolys(ctx, max_terms=3))
        assert (a * b) * c == a * (b * c)

    @given(st.data())
    def test_distributive(self, data):
        ctx = data.draw(contexts(max_vars=2))
        a = data.draw(diffpolys(ctx, max_terms=3))
        b = data.draw(diffpolys(ctx, max_terms=3))
        c = data.draw(diffpolys(ctx, max_terms=3))
        assert a * (b + c) == a * b + a * c

    @given(st.data())
    def test_sub_self(self, data):
        ctx = data.draw(contexts())
        a = data.draw(diffpolys(ctx))
        assert (a - a).is_zero()

    def test_mixed_contexts_rejected(self):
        other = Context(("x",), QQ)
        with pytest.raises(ValueError):
            DiffPoly.one(XY) + DiffPoly.one(other)

    @given(st.data())
    def test_pow_matches_repeated_mul(self, data):
        ctx = data.draw(contexts(max_vars=2))
        a = data.draw(diffpolys(ctx, max_terms=2, max_degree=2))
        assert a ** 3 == a * a * a
        assert a ** 0 == DiffPoly.one(ctx)


class TestDerivation:
    @given(st.data())
    def test_leibniz(self, data):
        ctx = data.draw(contexts())
        a = data.draw(diffpolys(ctx, max_terms=3))
        b = data.draw(diffpolys(ctx, max_terms=3))
        assert (a * b).derive() == a.derive() * b + a * b.derive()

    @given(st.data())
    def test_additive(self, data):
        ctx = data.draw(contexts())
        a = data.draw(diffpolys(ctx))
        b = data.draw(diffpolys(ctx))
        assert (a + b).derive() == a.derive() + b.derive()

    def test_jet_shift(self):
        assert P("x").derive() == P("x'")
        assert P("x'*y").derive() == P("x''*y + x'*y'")

    def test_iterated(self):
        assert P("x^2").derive(2) == P("2*x*x'' + 2*x'^2")

    def test_derivation_acts_on_qt_coefficients(self):
        ctx = Context(("x",), QT)
        p = P("t*x", ctx)
        assert p.derive() == P("t*x' + x", ctx)

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            P("x").derive(5, cap=4)

    @given(st.data())
    @settings(max_examples=60)
    def test_order_increments_by_one(self, data):
        ctx = data.draw(contexts())
        p = data.draw(diffpolys(ctx).filter(lambda q: not q.is_zero()))
        for j in range(ctx.n):
            before = p.order_of(j, Convention.MINUS_INFINITY)
            after = p.derive().order_of(j, Convention.MINUS_INFINITY)
            if before is NEG_INF:
                assert after is NEG_INF
            else:
                assert after == before + 1


class TestOrderOf:
    def test_conventions_differ_only_when_absent(self):
        p = P("x''*y + x")
        assert p.order_of(0, Convention.MAX_PLUS) == 2
        assert p.order_of(0, Convention.MINUS_INFINITY) == 2
        q = P("x'")
        assert q.order_of(1, Convention.MAX_PLUS) == 0
        assert q.order_of(1, Convention.MINUS_INFINITY) is NEG_INF

    def test_neg_inf_is_absorbing(self):
        assert NEG_INF + 5 is NEG_INF
        assert NEG_INF < -(10 ** 9)


class TestStructure:
    @given(st.data())
    def test_partial_is_a_derivation_in_one_jet(self, data):
        ctx = data.draw(contexts(max_vars=2))
        a = data.draw(diffpolys(ctx, max_terms=3))
        b = data.draw(diffpolys(ctx, max_terms=3))
        v = DerVar(0, 1)
        lhs = (a * b).partial(v)
        rhs = a.partial(v) * b + a * b.partial(v)
        assert lhs == rhs

    def test_monic_divides_by_leading_coefficient(self):
        p = P("2*y*x' - y'")
        m = p.monic()
        assert m == P("y*x' - 1/2*y'")
        assert m.monic() == m

    def test_embed_into_larger_context(self):
        big = Context(("x", "y", "z"), QQ)
        p = P("x'*y")
        q = p.embed(big)
        assert q.context == big
        assert q.to_text() == "x'*y"


class TestEvalAt:
    def test_constant_point_kills_proper_derivatives(self):
        pt = ConcretePoint.from_names(XY, {"x": Fraction(2), "y": Fraction(3)})
        assert P("x*y").eval_at(pt) == Fraction(6)
        assert P("x'").eval_at(pt) == Fraction(0)  # derivation is zero on Q

    def test_qt_point_jets_follow_field_derivation(self):
        ctx = Context(("x",), QT)
        pt = ConcretePoint.from_names(ctx, {"x": QT.t() * QT.t()})
        assert P("x'", ctx).eval_at(pt) == QT.from_fraction(2) * QT.t()
        assert P("x''", ctx).eval_at(pt) == QT.from_fraction(2)

    @given(st.data())
    @settings(max_examples=60)
    def test_evaluation_is_a_ring_morphism(self, data):
        a = data.draw(diffpolys(XY, max_terms=3))
        b = data.draw(diffpolys(XY, max_terms=3))
        pt = ConcretePoint.from_names(
            XY,
            {"x": data.draw(small_fractions()), "y": data.draw(small_fractions())},
        )
        assert (a + b).eval_at(pt) == a.eval_at(pt) + b.eval_at(pt)
        assert (a * b).eval_at(pt) == a.eval_at(pt) * b.eval_at(pt)

    def test_point_must_cover_all_variables(self):
        with pytest.raises(ValueError):
            ConcretePoint(XY, {0: Fraction(1)})


class TestText:
    def test_roundtrip_examples(self):
        for src in ("x'' + y", "x'^2 + y", "2*y*x' - y'", "x^(4) - x"):
            assert P(P(src).to_text()) == P(src)

    @given(st.data())
    @settings(max_examples=80)
    def test_to_text_parses_back(self, data):
        ctx = data.draw(contexts())
        p = data.draw(diffpolys(ctx))
        assert P(p.to_text(), ctx) == p
