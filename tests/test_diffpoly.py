"""Differential polynomial arithmetic: ring axioms, the derivation, order
bookkeeping, and evaluation at points."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from diffalg import (
    ConcretePoint,
    Context,
    Convention,
    DerVar,
    DiffPoly,
    Monomial,
    QQ,
    QT,
    analyze,
    is_reduced,
    order_matrix,
)
from diffalg.diffpoly import MON_ONE, OrderCapExceeded

from strategies import contexts, diffpolys, monomials, rankings, small_fractions

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
        # DEFAULT_ORDER_CAP = 64 is the highest order derive() creates
        assert P("x^(63)").derive() == P("x^(64)")
        with pytest.raises(OrderCapExceeded, match=r"order 65 > cap 64 \(DEFAULT_ORDER_CAP\)$"):
            P("x^(64)").derive()
        with pytest.raises(OrderCapExceeded, match=r"order 65 > cap 64 \(DEFAULT_ORDER_CAP\)$"):
            P("x").derive(65)

    @given(st.data())
    @settings(max_examples=60)
    def test_order_increments_by_one(self, data):
        ctx = data.draw(contexts())
        p = data.draw(diffpolys(ctx).filter(lambda q: not q.is_zero()))
        for j in range(ctx.n):
            before = p.order_of(j)
            after = p.derive().order_of(j)
            if before is None:
                assert after is None
            else:
                assert after == before + 1


@st.composite
def kernel_polys(draw, ctx):
    """Polynomials whose coefficients over Q(t) carry t, so that the field
    derivation acts too."""
    p = draw(diffpolys(ctx, max_terms=3))
    if ctx.field is QT:
        p = p + DiffPoly.const(ctx, QT.t() * QT.t() + QT.one) * draw(diffpolys(ctx, max_terms=2))
    return p


def _reference_make(items) -> Monomial:
    """A monomial by a dict and a sort: the reference for Monomial.make."""
    acc = {}
    for v, e in items:
        acc[v] = acc.get(v, 0) + e
    if any(e < 0 for e in acc.values()):
        raise ValueError("negative exponent")
    return Monomial(tuple(sorted((v, e) for v, e in acc.items() if e)))


def _reference_derive(p: DiffPoly) -> DiffPoly:
    """One derivation built term by term through the reference monomial
    construction: the reference for the sorted-tuple edits of _derive_once."""
    fld = p.context.field
    terms = []
    for m, c in p.items():
        terms.append((m, fld.derive(c)))
        for v, e in m.factors:
            rest = [f for f in m.factors if f[0] != v]
            terms.append((_reference_make(rest + [(v, e - 1), (v.derived(), 1)]), c * fld.from_fraction(e)))
    return DiffPoly.from_terms(p.context, terms)


def _reference_partial(p: DiffPoly, v: DerVar) -> DiffPoly:
    fld = p.context.field
    terms = []
    for m, c in p.items():
        e = m.degree_in(v)
        if e:
            rest = [f for f in m.factors if f[0] != v]
            terms.append((_reference_make(rest + [(v, e - 1)]), c * fld.from_fraction(e)))
    return DiffPoly.from_terms(p.context, terms)


class TestKernelEquivalence:
    """The kernel's fast paths against the plain constructions they replace."""

    @given(
        st.lists(
            st.tuples(
                st.builds(DerVar, st.integers(0, 2), st.integers(0, 3)), st.integers(-2, 3)
            ),
            max_size=6,
        )
    )
    def test_make_matches_a_dict_and_a_sort(self, items):
        try:
            ref = _reference_make(items)
        except ValueError:
            with pytest.raises(ValueError, match="negative exponent"):
                Monomial.make(items)
            return
        got = Monomial.make(items)
        assert got.factors == ref.factors and hash(got) == hash(ref)
        # factors already sorted, distinct and positive come back as they are
        assert Monomial.make(ref.factors) == ref
        assert Monomial.make(reversed(ref.factors)) == ref

    @given(st.data())
    def test_product_matches_a_dict_and_a_sort(self, data):
        """The product merges the two sorted factor tuples in one pass; it
        agrees with make on the joined factors, shared jets, factors that
        all rank above the other's and the empty monomial included."""
        ctx = data.draw(contexts())
        a, b, c = (data.draw(monomials(ctx, max_factors=3)) for _ in range(3))
        shared = Monomial.make(a.factors[:1] + b.factors)  # a's first jet, if any, in b too
        above = Monomial.make((DerVar(v.var + ctx.n, v.order), e) for v, e in b.factors)
        b = data.draw(st.sampled_from((b, shared, above, MON_ONE)))
        ref = _reference_make(a.factors + b.factors)
        got = a * b
        assert got.factors == ref.factors
        assert got == ref and hash(got) == hash(ref)
        assert {ref: 1}[got] == 1
        assert b * a == got
        assert (got == c) == (got.factors == c.factors)
        for x, y in ((a, b), (a, a), (MON_ONE, MON_ONE)):
            assert (x * y).factors == Monomial.make(x.factors + y.factors).factors

    @given(st.data())
    @settings(max_examples=80)
    def test_derive_and_partial_match_a_dict_and_a_sort(self, data):
        ctx = data.draw(contexts(fields=(QQ, QT)))
        p = data.draw(kernel_polys(ctx))
        assert p.derive() == _reference_derive(p)
        v = data.draw(st.sampled_from(p.dervars() or (DerVar(0, 0),)))
        assert p.partial(v) == _reference_partial(p, v)

    @given(st.data())
    @settings(max_examples=60)
    def test_kept_derivatives_match_a_fresh_chain(self, data):
        ctx = data.draw(contexts(max_vars=2, fields=(QQ, QT)))
        p = data.draw(kernel_polys(ctx))
        j = data.draw(st.integers(min_value=0, max_value=3))
        p.derive(data.draw(st.integers(min_value=0, max_value=3)))  # keeps a chain on p
        fresh = DiffPoly.from_terms(ctx, p.items())
        ref = p
        for _ in range(j):
            ref = _reference_derive(ref)
        assert p.derive(j) == fresh.derive(j) == ref
        assert p.derive(j) is p.derive(j)

    @given(st.data())
    @settings(max_examples=80)
    def test_degree_profile_matches_the_terms(self, data):
        """degree_in, dervars and is_reduced read the kept jet-degree
        profile; they agree with a pass over the monomials for the zero
        polynomial, constants and polynomials read both before and after
        they are derived."""
        ctx = data.draw(contexts(max_vars=2, fields=(QQ, QT)))
        rk = data.draw(rankings(ctx))
        a = analyze(data.draw(diffpolys(ctx).filter(lambda q: not q.is_constant())), rk)
        p = data.draw(
            st.one_of(
                kernel_polys(ctx),
                st.just(DiffPoly.zero(ctx)),
                small_fractions().map(lambda c: DiffPoly.const(ctx, c)),
            )
        )
        probes = [DerVar(i, j) for i in range(ctx.n) for j in range(5)]

        def check(q):
            ms = list(q.monomials())
            assert q.dervars() == tuple(sorted({v for m in ms for v, _ in m.factors}))
            for v in probes:
                assert q.degree_in(v) == max((m.degree_in(v) for m in ms), default=0)
            lv = a.leader
            reduced = all(
                m.degree_in(lv) < a.degree
                and not any(v.var == lv.var and v.order > lv.order for v, _ in m.factors)
                for m in ms
            )
            assert is_reduced(q, a) == reduced

        check(p)
        d = p.derive()
        check(p)
        check(d)
        check(DiffPoly.from_terms(ctx, p.items()))

    def test_kept_derivative_still_raises_at_the_cap(self):
        p = P("x^(62)*y + x")
        top = p.derive(2)
        assert top == P("x^(64)*y + 2*x^(63)*y' + x^(62)*y'' + x''")
        for _ in range(2):  # a step that raises keeps nothing, so it raises again
            with pytest.raises(OrderCapExceeded, match=r"order 65 > cap 64 \(DEFAULT_ORDER_CAP\)$"):
                p.derive(3)
        assert p.derive(2) is top


class TestOrderOf:
    def test_conventions_differ_only_when_absent(self):
        p = P("x''*y + x")
        assert p.order_of(0) == 2
        q = P("x'")
        assert q.order_of(1) is None
        assert order_matrix([p, q], Convention.MAX_PLUS).entries == ((2, 0), (1, 0))
        assert order_matrix([p, q], Convention.MINUS_INFINITY).entries == ((2, 0), (1, None))

    def test_absent_variable_and_zero_polynomial_give_none(self):
        assert P("y'^2 + 1").order_of(0) is None
        assert P("y'^2 + 1").order_of(1) == 1
        assert P("3").order_of(0) is None
        assert DiffPoly.zero(XY).order_of(0) is None
        assert DiffPoly.zero(XY).order_of(1) is None
        with pytest.raises(ValueError, match="outside context"):
            P("x").order_of(2)


    @given(st.data())
    def test_one_pass_rows_equal_per_pair_orders(self, data):
        ctx = data.draw(contexts(fields=(QQ, QT)))
        us = [data.draw(diffpolys(ctx)) for _ in range(ctx.n)]

        def walk(u, j):  # the per-pair walk over every factor of every term
            return max((v.order for m in u.monomials() for v, _ in m.factors if v.var == j), default=None)

        rows = tuple(tuple(walk(u, j) for j in range(ctx.n)) for u in us)
        assert tuple(u.orders() for u in us) == rows
        assert tuple(tuple(u.order_of(j) for j in range(ctx.n)) for u in us) == rows
        assert order_matrix(us, Convention.MINUS_INFINITY).entries == rows


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


class TestEvalAt:
    def test_constant_point_kills_proper_derivatives(self):
        pt = ConcretePoint.from_names(XY, {"x": QQ.from_fraction(2), "y": QQ.from_fraction(Fraction(3, 2))})
        assert P("x*y").eval_at(pt) == QQ.from_fraction(Fraction(3))
        assert P("x*y^2").eval_at(pt).text() == "9/2"
        assert P("x'").eval_at(pt) == QQ.zero  # derivation is zero on Q

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
            ConcretePoint(XY, {0: QQ.one})

    def test_point_values_are_field_elements(self):
        with pytest.raises(TypeError):
            ConcretePoint.from_names(XY, {"x": Fraction(1), "y": Fraction(2)})


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
