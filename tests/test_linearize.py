"""Linearization: formal tangents, tangents at points, and how the Jacobi
number behaves under both."""

import math
import time
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import diffalg.decompose
import diffalg.linearize
from diffalg import (
    CharSetComponent,
    ConcretePoint,
    Context,
    Convention,
    DerVar,
    DiffPoly,
    Monomial,
    PointNotOnZeroSetError,
    QQ,
    QT,
    Ranking,
    jacobi_assign,
    linearize_at,
    linearize_sym,
    linearized_order_matrix,
)
from diffalg.cli import main
from diffalg.diffpoly import DEFAULT_ORDER_CAP, OrderCapExceeded
from diffalg.linearize import extended_context, tangent_dervar
from diffalg.sysfile import parse_poly

from reference_engines import first_order_expansion, jacobi_number
from strategies import FLAGSHIP, FLAGSHIP_COMPONENT_2, contexts, diffpolys, small_fractions

XY = Context(("x", "y"), QQ)
EXT = extended_context(XY)


def P(src, ctx=XY):
    return parse_poly(src, ctx)


def origin(ctx):
    return ConcretePoint(ctx, {j: ctx.field.zero for j in range(ctx.n)})


class TestSymbolic:
    def test_flagship(self):
        assert linearize_sym(P("x'' + y")).poly == P("dx'' + dy", EXT)
        assert linearize_sym(P("x'^2 + y")).poly == P("2*x'*dx' + dy", EXT)

    def test_square_has_cross_term(self):
        assert linearize_sym(P("x*y")).poly == P("y*dx + x*dy", EXT)

    def test_constant_linearizes_to_zero(self):
        assert linearize_sym(P("5")).is_zero()

    @given(st.data())
    @settings(max_examples=80)
    def test_linear_in_the_argument(self, data):
        ctx = data.draw(contexts(max_vars=2))
        a = data.draw(diffpolys(ctx, max_terms=3))
        b = data.draw(diffpolys(ctx, max_terms=3))
        lhs = linearize_sym(a + b).poly
        rhs = linearize_sym(a).poly + linearize_sym(b).poly
        assert lhs == rhs

    @given(st.data())
    @settings(max_examples=80)
    def test_commutes_with_derivation(self, data):
        ctx = data.draw(contexts(max_vars=2))
        u = data.draw(diffpolys(ctx, max_terms=3))
        assert linearize_sym(u.derive()).poly == linearize_sym(u).poly.derive()

    def test_tangent_degree_is_exactly_one(self):
        lp = linearize_sym(P("x'^3*y + x"))
        for m in lp.poly.monomials():
            assert sum(e for v, e in m.factors if v.var >= 2) == 1


class TestAtConcretePoints:
    def test_single_square_at_origin(self):
        ctx = Context(("x",), QQ)
        lp = linearize_at(P("x^2", ctx), origin(ctx))
        assert lp.is_zero()

    def test_cusp_system_at_origin(self):
        us = [P("y^2 - x^3"), P("x'")]
        pt = origin(XY)
        l1, l2 = (linearize_at(u, pt) for u in us)
        assert l1.is_zero()
        assert l2.poly == P("dx'", EXT)

    def test_point_must_lie_on_zero_set(self):
        pt = ConcretePoint.from_names(XY, {"x": QQ.from_fraction(1), "y": QQ.from_fraction(Fraction(2))})
        with pytest.raises(PointNotOnZeroSetError):
            linearize_at(P("y^2 - x^3"), pt)
        # the check can be waived explicitly
        lp = linearize_at(P("y^2 - x^3"), pt, require_zero=False)
        assert lp.poly == P("-3*dx + 4*dy", EXT)

    def test_jets_of_high_order_at_a_point_over_q(self, tmp_path, capsys):
        # over Q every jet of positive order is zero at a point, read with
        # no recursion per order
        p = tmp_path / "high.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq u1 = x^(5000) - 1 + x\npoint p: x = 1\n")
        assert main(["linearize", str(p), "--at", "p"]) == 0
        assert capsys.readouterr().out.startswith("L[u1, p] = dx^(5000) + dx\n")

    def test_jet_values_over_qt_stop_at_a_zero_derivative_or_the_cap(self, tmp_path, capsys):
        ctx = Context(("x",), QT)
        t = QT.t()
        square = ConcretePoint(ctx, {0: t * t + QT.one})
        assert square.value(DerVar(0, 2)) == QT.from_fraction(2)
        start = time.perf_counter()
        assert not square.value(DerVar(0, 900))  # zero from the third derivative on
        assert time.perf_counter() - start < 1.0
        # the derivatives of 1/(t + 1) never vanish: the 64th is 64!/(t + 1)^65
        inverse = ConcretePoint(ctx, {0: QT.one / (t + QT.one)})
        assert inverse.value(DerVar(0, DEFAULT_ORDER_CAP)) == QT.from_fraction(
            math.factorial(DEFAULT_ORDER_CAP)
        ) / (t + QT.one) ** (DEFAULT_ORDER_CAP + 1)
        with pytest.raises(OrderCapExceeded, match=r"point value of order 65 > cap 64 \(DEFAULT_ORDER_CAP\): "):
            inverse.value(DerVar(0, DEFAULT_ORDER_CAP + 1))
        # at the command line the cap is a domain error, exit 3
        p = tmp_path / "inverse.sys"
        p.write_text("field: Q(t)\nvars: x\nranking: elim x\neq u1 = x^(300) - x\npoint p: x = 1/(t+1)\n")
        assert main(["linearize", str(p), "--at", "p"]) == 3
        assert capsys.readouterr().err == (
            "diffalg: point value of order 300 > cap 64 (DEFAULT_ORDER_CAP): its derivatives do not vanish by order 64\n"
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tangent_order_never_exceeds_original(self, data):
        ctx = data.draw(contexts(max_vars=2))
        u = data.draw(diffpolys(ctx, max_terms=3).filter(lambda q: not q.is_zero()))
        pt = ConcretePoint(
            ctx, {j: data.draw(small_fractions()) for j in range(ctx.n)}
        )
        lu = linearize_at(u, pt, require_zero=False)
        for j, got in enumerate(lu.tangent_orders()):
            orig = u.order_of(j)
            if orig is None:
                assert got is None
            else:
                assert got is None or got <= orig


class TestTwoTangentBuilders:
    """linearize_sym keeps each coefficient du/dv as a polynomial;
    linearize_at evaluates it.  The two must agree at every point."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_symbolic_tangent_evaluates_to_the_tangent_at_a_point(self, data):
        ctx = data.draw(contexts(max_vars=2, fields=(QQ, QT)))
        u = data.draw(diffpolys(ctx, max_terms=3))
        if ctx.field is QT:  # coefficients and point values that carry t
            u = u + DiffPoly.const(ctx, QT.t()) * data.draw(diffpolys(ctx, max_terms=2))
        t_part = QT.t() if ctx.field is QT else QQ.zero
        pt = ConcretePoint(
            ctx,
            {j: data.draw(small_fractions()) + data.draw(small_fractions()) * t_part for j in range(ctx.n)},
        )
        n = ctx.n
        by_jet: dict = {}  # tangent jet -> terms of its coefficient in linearize_sym
        for m, c in linearize_sym(u).poly.items():
            (yv,) = (v for v in m.dervars() if v.var >= n)
            by_jet.setdefault(yv, []).append((m.without(yv), c))
        evaluated = {yv: DiffPoly.from_terms(ctx, terms).eval_at(pt) for yv, terms in by_jet.items()}
        at = {m.dervars()[0]: c for m, c in linearize_at(u, pt, require_zero=False).poly.items()}
        assert {yv: c for yv, c in evaluated.items() if c} == at


def tangents_at(us, pt):
    return [linearize_at(u, pt) for u in us]


class TestOrderMatrices:
    def test_cusp_matrix_minusinf(self):
        us = [P("y^2 - x^3"), P("x'")]
        m = linearized_order_matrix(tangents_at(us, origin(XY)), Convention.MINUS_INFINITY)
        assert m.entries == ((None, None), (1, None))
        assert jacobi_assign(m).value is None

    def test_strict_drop_against_original(self):
        us = [P("y^2 - x^3"), P("x'")]
        m = linearized_order_matrix(tangents_at(us, origin(XY)), Convention.MINUS_INFINITY)
        strong_lin = jacobi_assign(m).value
        weak_orig = jacobi_number(us).value
        assert strong_lin is None and weak_orig == 1

    def test_requires_square(self):
        with pytest.raises(ValueError):
            linearized_order_matrix(tangents_at([P("x + y")], origin(XY)))


class TestFirstOrderExpansion:
    def test_agrees_with_eval_and_tangent(self):
        u = P("x'^2 + y")
        pt = ConcretePoint.from_names(XY, {"x": QQ.from_fraction(1), "y": QQ.from_fraction(Fraction(-2))})
        value, tangent = first_order_expansion(u, pt)
        assert value == u.eval_at(pt)
        assert tangent.poly == linearize_at(u, pt, require_zero=False).poly

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_dual_numbers_match_partial_evaluations(self, data):
        # linearize_at at a concrete point walks u's terms once; it must
        # give the partials evaluated one by one and the dual-number
        # expansion, zero test included, at points with zero coordinates,
        # with exponents up to 4 and over Q(t)
        ctx = data.draw(contexts(max_vars=2, fields=(QQ, QT)))
        u = data.draw(diffpolys(ctx, max_terms=4, max_degree=4))
        t_part = QQ.zero
        if ctx.field is QT:  # coefficients and point values that carry t
            t_part = QT.t()
            u = u + DiffPoly.const(ctx, t_part) * data.draw(diffpolys(ctx, max_terms=2, max_degree=4))
        pt = ConcretePoint(
            ctx,
            {
                j: ctx.field.zero
                if data.draw(st.booleans())
                else data.draw(small_fractions()) + data.draw(small_fractions()) * t_part
                for j in range(ctx.n)
            },
        )
        n, ext = ctx.n, extended_context(ctx)
        by_partials = DiffPoly.from_terms(
            ext, ((Monomial.of(tangent_dervar(n, v)), u.partial(v).eval_at(pt)) for v in u.dervars())
        )
        value, dual = first_order_expansion(u, pt)
        assert value == u.eval_at(pt)
        assert linearize_at(u, pt, require_zero=False).poly == by_partials == dual.poly
        if value:
            with pytest.raises(PointNotOnZeroSetError, match="point is not a zero: value "):
                linearize_at(u, pt)
        else:
            assert linearize_at(u, pt).poly == by_partials


class TestGenericPoints:
    def test_support_pattern_on_component(self):
        rk = Ranking.elimination(2, [0, 1])
        comp = CharSetComponent(rk, (P("y"), P("x'")), ())
        # d/dy' of y'^2+4y^3 is 2y', which vanishes on the component
        lp = linearize_at(P("y'^2 + 4*y^3"), comp)
        assert lp.is_zero()
        # in y^2 + x'' the y-partial 2y dies on the component, the x''-partial
        # is the constant 1 and survives: support is the bare indicator dx''
        lp2 = linearize_at(P("y^2 + x''"), comp)
        assert lp2.poly == P("dx''", EXT)
        assert lp2.heuristic  # the component was never certified prime

    def test_generic_point_respects_require_zero(self):
        rk = Ranking.elimination(2, [0, 1])
        comp = CharSetComponent(rk, (P("y"), P("x'")), ())
        with pytest.raises(PointNotOnZeroSetError):
            linearize_at(P("y + 1"), comp)

    def test_one_extended_context_per_context(self):
        # the tangents of one system share one 2n-name context, built on
        # first use; a context whose tangent names clash raises every time
        ctx = Context(("x", "y"), QQ)
        a = linearize_at(P("x*y", ctx), origin(ctx))
        b = linearize_sym(P("x' + y", ctx))
        assert a.poly.context is b.poly.context is extended_context(ctx)
        clash = Context(("x", "dx"), QQ)
        for _ in range(2):
            with pytest.raises(ValueError, match="collide"):
                extended_context(clash)


class TestWorkCounts:
    def test_flagship_work_counts(self, tmp_path, monkeypatch, capsys):
        # Deterministic work counters, pinned: `linearize --at` makes one
        # pass over each equation's terms (two here) and builds no partial
        # and calls no eval_at.  At a generic point each equation and each
        # of its four partials is one membership test, one reduction modulo
        # the component; the other two are the component's inequation checks
        # when its file is read, and the other two partials the separants of
        # its sequence.
        system = tmp_path / "flagship.sys"
        system.write_text(FLAGSHIP)
        comp = tmp_path / "component2.txt"
        comp.write_text(FLAGSHIP_COMPONENT_2)
        counts = Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(diffalg.linearize, "_tangent_at", counted("passes", diffalg.linearize._tangent_at))
        monkeypatch.setattr(DiffPoly, "eval_at", counted("evaluations", DiffPoly.eval_at))
        monkeypatch.setattr(DiffPoly, "partial", counted("partials", DiffPoly.partial))
        monkeypatch.setattr(CharSetComponent, "membership", counted("memberships", CharSetComponent.membership))
        monkeypatch.setattr(diffalg.decompose, "ritt_reduce_seq", counted("reductions", diffalg.decompose.ritt_reduce_seq))
        assert main(["linearize", str(system), "--at", "p0"]) == 0
        assert dict(counts) == {"passes": 2}
        counts.clear()
        assert main(["linearize", str(system), "--generic", str(comp)]) == 0
        assert dict(counts) == {"partials": 6, "memberships": 8, "reductions": 8}
        capsys.readouterr()
