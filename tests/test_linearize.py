"""Linearization: formal tangents, tangents at points, and how the Jacobi
number behaves under both."""

from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import diffalg.decompose
from diffalg import (
    CharSetComponent,
    ConcretePoint,
    Context,
    Convention,
    DiffPoly,
    PointNotOnZeroSetError,
    QQ,
    QT,
    Ranking,
    first_order_expansion,
    jacobi_assign,
    jacobi_number,
    linearize_at,
    linearize_sym,
    linearized_order_matrix,
)
from diffalg.cli import main
from diffalg.linearize import extended_context
from diffalg.sysfile import parse_poly

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
    @settings(max_examples=80, deadline=None)
    def test_dual_numbers_match_partial_evaluations(self, data):
        ctx = data.draw(contexts(max_vars=2))
        u = data.draw(diffpolys(ctx, max_terms=3, max_degree=3))
        pt = ConcretePoint(
            ctx, {j: data.draw(small_fractions()) for j in range(ctx.n)}
        )
        value, tangent = first_order_expansion(u, pt)
        assert value == u.eval_at(pt)
        assert tangent.poly == linearize_at(u, pt, require_zero=False).poly


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


class TestWorkCounts:
    def test_flagship_work_counts(self, tmp_path, monkeypatch, capsys):
        # Deterministic work counters, pinned: `linearize` evaluates each
        # equation and each of its partials at the point once (three per
        # equation here), and at a generic point each evaluation is one
        # membership test, one reduction modulo the component; the other two
        # are the component's inequation checks when its file is read.
        system = tmp_path / "flagship.sys"
        system.write_text(FLAGSHIP)
        comp = tmp_path / "component2.txt"
        comp.write_text(FLAGSHIP_COMPONENT_2)
        counts = Counter()
        real_eval = DiffPoly.eval_at
        real_membership = CharSetComponent.membership
        real_reduce = diffalg.decompose.ritt_reduce_seq

        def eval_at(self, pt):
            counts["evaluations"] += 1
            return real_eval(self, pt)

        def membership(self, f):
            counts["memberships"] += 1
            return real_membership(self, f)

        def reduce(*args, **kwargs):
            counts["reductions"] += 1
            return real_reduce(*args, **kwargs)

        monkeypatch.setattr(DiffPoly, "eval_at", eval_at)
        monkeypatch.setattr(CharSetComponent, "membership", membership)
        monkeypatch.setattr(diffalg.decompose, "ritt_reduce_seq", reduce)
        assert main(["linearize", str(system), "--at", "p0"]) == 0
        assert dict(counts) == {"evaluations": 6}
        counts.clear()
        assert main(["linearize", str(system), "--generic", str(comp)]) == 0
        assert dict(counts) == {"memberships": 8, "reductions": 8}
        capsys.readouterr()
