"""Characteristic-set components, the splitting decomposition, and the
dimension-vs-Jacobi check."""

import sys
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import diffalg.decompose
import diffalg.ranking
from diffalg import (
    CharSetComponent,
    Context,
    DiffPoly,
    JbcVerdict,
    Monomial,
    PointNotOnZeroSetError,
    QQ,
    Ranking,
    component_dimension,
    jbc_check,
    linearize_at,
    split_decompose,
    verify_certificate,
    verify_component,
)
from diffalg.decompose import VanishingInequationError
from diffalg.linearize import extended_context, tangent_dervar
from diffalg.reduction import PreparedSeq
from diffalg.sysfile import parse_poly

from strategies import diffpolys

XY = Context(("x", "y"), QQ)
ELIM_XY = Ranking.elimination(2, [0, 1])  # x > y


def P(src, ctx=XY):
    return parse_poly(src, ctx)


def seq_texts(c):
    return tuple(p.to_text() for p in c.sequence)


class TestCharSetComponent:
    def test_requires_autoreduced(self):
        with pytest.raises(ValueError):
            CharSetComponent(ELIM_XY, (P("x'"), P("x'' + y")))

    def test_rejects_vanishing_inequation(self):
        with pytest.raises(VanishingInequationError):
            CharSetComponent(ELIM_XY, (P("y"), P("x'")), (P("y^2"),))

    def test_takes_a_prepared_sequence(self):
        prep = PreparedSeq((P("y'^2 + 4*y^3"), P("2*y*x' - y'")), ELIM_XY)
        comp = CharSetComponent(ELIM_XY, prep, (P("y"),))
        assert comp.prepared is prep
        assert comp == CharSetComponent(ELIM_XY, prep.sequence, (P("y"),))
        with pytest.raises(ValueError):
            CharSetComponent(Ranking.orderly(2), prep)

    def test_rejects_constant_member(self):
        with pytest.raises(Exception):
            CharSetComponent(ELIM_XY, (P("1"),))

    def test_membership_is_zero_remainder(self):
        comp = CharSetComponent(ELIM_XY, (P("y"), P("x'")))
        assert comp.membership(P("y^2 + x''*y"))
        assert not comp.membership(P("x"))
        assert comp.membership(P("y")).heuristic  # not certified prime

    def test_sequence_is_kept_in_ascending_rank_order(self):
        for seq in ((P("x + y"), P("y^2")), (P("y^2"), P("x + y"))):
            assert CharSetComponent(ELIM_XY, seq).sequence == (P("y^2"), P("x + y"))
        prep = PreparedSeq([P("x'"), P("y")], ELIM_XY)
        comp = CharSetComponent(ELIM_XY, prep)
        assert comp.sequence == (P("y"), P("x'"))
        assert comp.prepared.sequence == comp.sequence

    def test_prime_verified_drops_heuristic_flag(self):
        comp = CharSetComponent(ELIM_XY, (P("y"), P("x'")), prime_verified=True)
        assert not comp.membership(P("y")).heuristic

    def test_generic_point_evaluation_is_the_membership_verdict(self):
        # linearize_at(u, comp) reads u and each partial at the generic
        # point as the component's membership verdict
        comp = CharSetComponent(ELIM_XY, (P("y'^2 + 4*y^3"), P("2*y*x' - y'")), (P("y"),))
        ext = extended_context(XY)
        for src in ("x'' + y", "x'^2 + y", "y", "x*y' + y''"):
            u = P(src)
            for q in [u] + [u.partial(v) for v in u.dervars()]:
                verdict = comp.membership(q)
                assert verify_certificate(verdict.certificate, q, comp.sequence, comp.ranking)
                assert verdict.member == verdict.certificate.remainder.is_zero()
            support = [
                (Monomial.of(tangent_dervar(2, v)), QQ.one)
                for v in u.dervars()
                if not comp.membership(u.partial(v)).member
            ]
            lp = linearize_at(u, comp, require_zero=False)
            assert lp.poly == DiffPoly.from_terms(ext, support)
            assert lp.heuristic
            if comp.membership(u).member:
                assert linearize_at(u, comp) == lp
            else:
                with pytest.raises(PointNotOnZeroSetError):
                    linearize_at(u, comp)


class TestDimension:
    def test_full_length_is_assignment_maximum(self):
        comp = CharSetComponent(ELIM_XY, (P("y'^2 + 4*y^3"), P("2*y*x' - y'")), (P("y"), P("y'")))
        assert component_dimension(comp) == 2

    def test_short_sequence_has_no_number(self):
        comp = CharSetComponent(ELIM_XY, (P("y'"),))
        assert not comp.finite_dimensional
        assert component_dimension(comp) is None


class TestSplitDecompose:
    def test_flagship_two_components(self):
        dec = split_decompose([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        assert dec.complete
        assert [seq_texts(c) for c in dec.components] == [
            ("y", "x'"),
            ("y^3 + 1/4*y'^2", "x'*y - 1/2*y'"),
        ]
        # the nonconstant separants and initials, monic, in text order
        assert [c.inequations for c in dec.components] == [(), (P("y"), P("y'"))]
        dims = [component_dimension(c) for c in dec.components]
        assert dims == [1, 2]
        for c in dec.components:
            assert verify_component(c, [P("x'' + y"), P("x'^2 + y")])

    def test_flagship_matches_classical_presentation(self):
        # the same zero sets, presented with integer leading terms
        dec = split_decompose([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        big = dec.components[1]
        classical = CharSetComponent(
            ELIM_XY, (P("y'^2 + 4*y^3"), P("2*y*x' - y'")), (P("y"),)
        )
        for p in classical.sequence:
            assert big.membership(p)
        for p in big.sequence:
            assert classical.membership(p)

    def test_cusp_with_constant_flow(self):
        us = [P("y^2 - x^3"), P("x'")]
        dec = split_decompose(us, ELIM_XY)
        assert dec.complete
        assert [seq_texts(c) for c in dec.components] == [
            ("y", "x"),
            ("y'", "x^3 - y^2"),
        ]
        assert [component_dimension(c) for c in dec.components] == [0, 1]

    def test_single_equation_infinite_dimensional(self):
        ctx = Context(("x",), QQ)
        rk = Ranking.elimination(1)
        dec = split_decompose([parse_poly("x'^2 - x", ctx)], rk)
        assert dec.complete
        assert all(c.finite_dimensional for c in dec.components)

    def test_constant_equation_means_empty_zero_set(self):
        dec = split_decompose([P("x"), P("3")], ELIM_XY)
        assert dec.complete
        assert dec.components == ()

    def test_budget_exhaustion_is_reported(self, monkeypatch):
        monkeypatch.setattr(diffalg.decompose, "MAX_SPLIT_STEPS", 1)
        dec = split_decompose([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        assert not dec.complete

    def test_rejects_zero_member(self):
        with pytest.raises(ValueError):
            split_decompose([P("x"), P("0")], ELIM_XY)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            diffpolys(XY, max_order=1, max_degree=2, max_terms=2).filter(bool),
            min_size=2,
            max_size=2,
        )
    )
    def test_every_component_verifies_against_the_inputs(self, us):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diffalg.decompose, "MAX_COMPONENTS", 8)
            mp.setattr(diffalg.decompose, "MAX_SPLIT_STEPS", 20)
            dec = split_decompose(us, ELIM_XY)
        for c in dec.components:
            assert verify_component(c, us)

    def test_output_is_deterministic(self):
        us = [P("x'' + y"), P("x'^2 + y")]
        a = split_decompose(us, ELIM_XY)
        b = split_decompose(list(reversed(us)), ELIM_XY)
        assert [seq_texts(c) for c in a.components] == [seq_texts(c) for c in b.components]


class TestJbcCheck:
    def test_flagship_holds(self):
        rep = jbc_check([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS
        assert rep.weak.value == 2
        assert rep.strong.value == 2
        assert rep.complete
        dims = sorted(r.dimension for r in rep.records)
        assert dims == [1, 2]
        assert any(r.equality for r in rep.records)
        assert rep.heuristic  # separant conditions were never proven prime

    def test_characteristic_sequence_reports_equality(self):
        us = [P("y'^2 + 4*y^3"), P("2*y*x' - y'")]
        rep = jbc_check(us, ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS
        assert rep.weak.value == 2
        full = [r for r in rep.records if r.component.finite_dimensional]
        assert any(r.dimension == 2 and r.equality for r in full)

    def test_ingested_components_are_reverified(self):
        us = [P("x'' + y"), P("x'^2 + y")]
        # a component that has nothing to do with the system
        alien = CharSetComponent(ELIM_XY, (P("y - 1"), P("x'")))
        rep = jbc_check(us, ELIM_XY, components=[alien])
        assert not rep.records[0].verified
        assert rep.verdict is JbcVerdict.INCONCLUSIVE

    def test_incomplete_decomposition_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(diffalg.decompose, "MAX_SPLIT_STEPS", 1)
        rep = jbc_check([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        assert rep.verdict is JbcVerdict.INCONCLUSIVE

    # A FAILS verdict needs a verified full-length component whose dimension
    # exceeds the assignment maximum; producing one would refute the bound
    # the check exists to monitor, so that branch has no honest fixture.

    def test_requires_square_system(self):
        with pytest.raises(ValueError):
            jbc_check([P("x + y")], ELIM_XY)

    def test_flagship_reduction_count(self, monkeypatch):
        # 42 reductions inside split_decompose (node remainders and the
        # inequation check of each component built) and 6 for the two
        # records: two inputs per component plus the big component's
        # inequations.
        calls = []
        real = diffalg.decompose.ritt_reduce_seq

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(diffalg.decompose, "ritt_reduce_seq", counted)
        rep = jbc_check([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS
        assert len(calls) <= 48

    def test_flagship_work_counts(self, monkeypatch):
        # Deterministic work counters, pinned: each polynomial is analyzed
        # once per run, node reductions build no certificate products, and
        # each polynomial is rendered to text at most once.
        us = [P("x'' + y"), P("x'^2 + y")]
        counts = Counter()
        real_analyze = diffalg.ranking.analyze

        def analyze(*args, **kwargs):
            counts["analyze"] += 1
            return real_analyze(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "diffalg":
                for attr, obj in list(vars(mod).items()):
                    if obj is real_analyze:
                        monkeypatch.setattr(mod, attr, analyze)
        real_mul = DiffPoly.__mul__

        def mul(self, other):
            counts["products"] += 1
            return real_mul(self, other)

        real_text = DiffPoly.to_text

        def to_text(self):
            if getattr(self, "_text", None) is None:
                counts["renders"] += 1
            return real_text(self)

        monkeypatch.setattr(DiffPoly, "__mul__", mul)
        monkeypatch.setattr(DiffPoly, "to_text", to_text)
        rep = jbc_check(us, ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS
        assert dict(counts) == {"analyze": 9, "products": 261, "renders": 19}

    def test_flagship_prolongation_count(self, monkeypatch):
        # Pinned: each polynomial keeps its first derivative, so the run
        # computes 7 derivatives, not one per use (43 before they were kept).
        # The product count is that of test_flagship_work_counts.
        us = [P("x'' + y"), P("x'^2 + y")]
        counts = Counter()
        real_derive_once = DiffPoly._derive_once
        real_mul = DiffPoly.__mul__

        def derive_once(self):
            counts["derivatives"] += 1
            return real_derive_once(self)

        def mul(self, other):
            counts["products"] += 1
            return real_mul(self, other)

        monkeypatch.setattr(DiffPoly, "_derive_once", derive_once)
        monkeypatch.setattr(DiffPoly, "__mul__", mul)
        rep = jbc_check(us, ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS
        assert dict(counts) == {"derivatives": 7, "products": 261}

    def test_report_text_is_stable(self):
        us = [P("x'' + y"), P("x'^2 + y")]
        a = jbc_check(us, ELIM_XY).to_text()
        b = jbc_check(us, ELIM_XY).to_text()
        assert a == b
        assert "verdict: HOLDS" in a
        assert "jacobi weak (maxplus): 2" in a

    def test_report_json_round_trips(self):
        import json

        rep = jbc_check([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        data = json.loads(rep.to_json())
        assert data["verdict"] == "HOLDS"
        assert data["system"]["jacobi_weak"] == 2
        assert len(data["components"]) == 2
