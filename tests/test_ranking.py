"""Rankings, leaders, and reducedness."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from diffalg import (
    ConstantPolyError,
    Context,
    DerVar,
    DiffPoly,
    QQ,
    RankKind,
    Ranking,
    analyze,
    is_autoreduced,
    is_reduced,
)
from diffalg.sysfile import parse_poly

from strategies import contexts, dervars

XY = Context(("x", "y"), QQ)
ELIM_XY = Ranking.elimination(2, [0, 1])  # x > y
ORD_XY = Ranking.orderly(2, [0, 1])


def P(src, ctx=XY):
    return parse_poly(src, ctx)


class TestKeys:
    def test_elimination_prefers_variable_over_order(self):
        # any jet of x beats any jet of y
        assert ELIM_XY.key(DerVar(0, 0)) > ELIM_XY.key(DerVar(1, 9))

    def test_orderly_prefers_order_over_variable(self):
        assert ORD_XY.key(DerVar(1, 2)) > ORD_XY.key(DerVar(0, 1))
        # ties broken by priority
        assert ORD_XY.key(DerVar(0, 2)) > ORD_XY.key(DerVar(1, 2))

    @given(st.data())
    def test_key_is_injective_on_jets(self, data):
        ctx = data.draw(contexts())
        rk = Ranking.orderly(ctx.n) if data.draw(st.booleans()) else Ranking.elimination(ctx.n)
        v = data.draw(dervars(ctx, max_order=4))
        w = data.draw(dervars(ctx, max_order=4))
        assert (rk.key(v) == rk.key(w)) == (v == w)

    @given(st.data())
    def test_derivation_raises_every_jet(self, data):
        ctx = data.draw(contexts())
        kind = data.draw(st.sampled_from([Ranking.orderly, Ranking.elimination]))
        rk = kind(ctx.n)
        v = data.draw(dervars(ctx, max_order=4))
        assert rk.key(v.derived()) > rk.key(v)

    def test_bad_priority_rejected(self):
        with pytest.raises(ValueError):
            Ranking(RankKind.ORDERLY, (0, 0))


class TestAnalyze:
    def test_leader_separant_initial(self):
        rp = analyze(P("x'^2 + y"), ELIM_XY)
        assert rp.leader == DerVar(0, 1)
        assert rp.degree == 2
        assert rp.separant == P("2*x'")
        assert rp.initial == P("1")

    def test_initial_collects_leading_coefficient(self):
        rp = analyze(P("y*x'' + x'"), ELIM_XY)
        assert rp.leader == DerVar(0, 2)
        assert rp.initial == P("y")
        assert rp.separant == P("y")

    def test_leader_depends_on_ranking(self):
        p = P("x + y''")
        assert analyze(p, ELIM_XY).leader == DerVar(0, 0)
        assert analyze(p, ORD_XY).leader == DerVar(1, 2)

    def test_constants_have_no_leader(self):
        with pytest.raises(ConstantPolyError):
            analyze(P("3"), ELIM_XY)
        with pytest.raises(ConstantPolyError):
            analyze(DiffPoly.zero(XY), ELIM_XY)

    def test_rank_key_orders_by_leader_then_degree(self):
        a = analyze(P("x'"), ELIM_XY)
        b = analyze(P("x'^2"), ELIM_XY)
        c = analyze(P("x''"), ELIM_XY)
        assert a.rank_key < b.rank_key < c.rank_key
        assert b.rank_key == (ELIM_XY.key(DerVar(0, 1)), 2)

    def test_rank_key_is_read_once_per_analysis(self, monkeypatch):
        calls = []
        key = Ranking.key
        monkeypatch.setattr(Ranking, "key", lambda r, v: calls.append(v) or key(r, v))
        rp = analyze(P("x' + y"), ELIM_XY)
        assert len(calls) == 3  # max_var's two jets, then the leader's for the rank
        sorted([rp, rp, rp], key=lambda r: r.rank_key)
        assert len(calls) == 3


class TestReduced:
    def test_derivative_offense(self):
        a = analyze(P("x' + y"), ELIM_XY)
        assert not is_reduced(P("x''"), a)
        assert is_reduced(P("x + y"), a)

    def test_degree_offense(self):
        a = analyze(P("x'^2 + y"), ELIM_XY)
        assert not is_reduced(P("x'^2"), a)
        assert is_reduced(P("y*x'"), a)  # lower degree in the leader is fine

    def test_autoreduced_pairs(self):
        assert is_autoreduced([P("y'^2 + 4*y^3"), P("2*y*x' - y'")], ELIM_XY)
        assert not is_autoreduced([P("x' + y"), P("x'' + y")], ELIM_XY)
        # duplicated leaders are not autoreduced
        assert not is_autoreduced([P("x'"), P("x' + y")], ELIM_XY)

