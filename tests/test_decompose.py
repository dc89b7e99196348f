"""Characteristic-set components, the splitting decomposition, and the
dimension-vs-Jacobi check."""

import functools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import diffalg.decompose
import diffalg.ranking
import diffalg.reduction
from diffalg import (
    CharSetComponent,
    ConcretePoint,
    Context,
    DiffPoly,
    JbcVerdict,
    Monomial,
    PointNotOnZeroSetError,
    QQ,
    Ranking,
    RatFunc,
    analyze,
    component_dimension,
    jbc_check,
    linearize_at,
    split_decompose,
    verify_certificate,
)
from diffalg.decompose import VanishingInequationError, _basic_set, _fork, _fork_shape
from diffalg.linearize import extended_context, tangent_dervar
from diffalg.reduction import DiffOperator, PreparedSeq, TermLimitExceeded, Verdict, Work
from diffalg.sysfile import SysFileError, parse_components, parse_poly

from strategies import contexts, diffpolys, rankings, splitting_nodes

from reference_engines import text_sorted_basic_set, text_sorted_fork, verify_component

XY = Context(("x", "y"), QQ)
ELIM_XY = Ranking.elimination(2, [0, 1])  # x > y
ZW = Context(("z", "w"), QQ)
XYZW = Context(("x", "y", "z", "w"), QQ)
ELIM_XYZW = Ranking.elimination(4, [0, 1, 2, 3])  # x > y > z > w
# two flagship pairs side by side, in disjoint variables
DOUBLE_FLAGSHIP = ("x'' + y", "x'^2 + y", "z'' + w", "z'^2 + w")


def P(src, ctx=XY):
    return parse_poly(src, ctx)


def seq_texts(c):
    return tuple(p.to_text() for p in c.sequence)


def wrap_divisions(mp, wrapper):
    """Patch the one way a decomposition divides, ritt_reduce_seq, for the
    tree's node divisions (given the tree's meter) and the divisions of
    components, with wrapper(real, p, prep, *rest); returns the original
    to restore."""
    real = diffalg.decompose.ritt_reduce_seq
    mp.setattr(diffalg.decompose, "ritt_reduce_seq", functools.partial(wrapper, real))
    return real


def recorded_decompose(mp, us, ranking):
    """split_decompose(us, ranking), and the (dividend, divisors) pair of
    each Ritt division it made, in order; mp patches the divisions."""
    divisions = []

    def recorded(real, p, prep, *rest):
        divisions.append((p, prep.sequence))
        return real(p, prep, *rest)

    real = wrap_divisions(mp, recorded)
    dec = split_decompose(us, ranking)
    mp.setattr(diffalg.decompose, "ritt_reduce_seq", real)
    return dec, divisions


def single_tree(us, ranking):
    """The splitting tree run on the whole system at once, blocks or not."""
    return diffalg.decompose._split_tree(frozenset(u.monic() for u in us), ranking)


def summary(dec):
    """Everything a decomposition reports, in its order."""
    return [c.to_text() for c in dec.components], dec.complete


def square_pairs(ctx):
    """Two small nonconstant equations in ctx, at the existing properties'
    size."""
    return st.lists(
        diffpolys(ctx, max_order=1, max_degree=2, max_terms=2).filter(lambda p: not p.is_constant()),
        min_size=2,
        max_size=2,
    )


# a pair in x, y beside a pair in z, w, both in the context x, y, z, w
two_block_systems = st.tuples(square_pairs(XY), square_pairs(ZW)).map(
    lambda pairs: [parse_poly(p.to_text(), XYZW) for p in pairs[0] + pairs[1]]
)


@st.composite
def systems_with_a_zero(draw, systems, ctx):
    """A system from systems, each equation shifted by a constant so that
    it vanishes at a drawn small-integer constant point; the point."""
    values = draw(st.lists(st.integers(-2, 2), min_size=ctx.n, max_size=ctx.n))
    pt = ConcretePoint(ctx, {j: RatFunc.from_int(v) for j, v in enumerate(values)})
    us = [u - DiffPoly.const(ctx, u.eval_at(pt)) for u in draw(systems)]
    return [u for u in us if u], pt


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

    def test_a_declared_prime_is_refused(self):
        # nothing tests primality, so a component file cannot declare a
        # component prime, and every membership stays heuristic
        with pytest.raises(SysFileError, match=r"^line 2: 'prime: yes' is refused: no primality test confirms it"):
            parse_components("charset: y; x'\nprime: yes\n", XY, ELIM_XY)
        (comp,) = parse_components("charset: y; x'\nprime: no\n", XY, ELIM_XY)
        assert comp.membership(P("y")).heuristic
        assert comp.to_text().endswith("prime: no")

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

    def test_the_flagship_takes_108_units_of_work(self, monkeypatch):
        # the tree's 14 nodes and the term pairs of its node divisions: the
        # run completes with exactly that budget and runs out of work below it
        us = [P("x'' + y"), P("x'^2 + y")]
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 108)
        dec = split_decompose(us, ELIM_XY)
        assert dec.complete and len(dec.components) == 2
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 107)
        dec = split_decompose(us, ELIM_XY)
        assert not dec.complete and dec.out_of_work

    def test_budget_exhaustion_is_reported(self, monkeypatch):
        # the first node spends the whole budget, and its first division
        # would take the run past it
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 1)
        dec = split_decompose([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        assert not dec.complete and dec.out_of_work
        assert dec.components == ()

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
            mp.setattr(diffalg.reduction, "MAX_WORK", 10_000)
            dec = split_decompose(us, ELIM_XY)
        for c in dec.components:
            assert verify_component(c, us)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            diffpolys(XY, max_order=1, max_degree=2, max_terms=2).filter(bool),
            min_size=2,
            max_size=2,
        )
    )
    def test_each_equation_is_divided_once_per_basic_set(self, us):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diffalg.decompose, "MAX_COMPONENTS", 8)
            mp.setattr(diffalg.reduction, "MAX_WORK", 10_000)
            dec, divisions = recorded_decompose(mp, us, ELIM_XY)
        assert len(set(divisions)) == len(divisions)
        for c in dec.components:
            assert verify_component(c, us)

    def test_a_basic_set_met_again_builds_its_component_once(self, monkeypatch):
        # the basic set y; x'' is met in three nodes of this connected
        # system's tree; each component is built (its inequations checked)
        # once, and no division repeats: 23 node divisions and the 2
        # inequation checks of the component with nonconstant conditions
        us = [P("x''' + y"), P("x''^2 + y")]
        met = Counter()
        real_basic_set = diffalg.decompose._basic_set

        def basic_set(node, rank):
            chosen, rest = real_basic_set(node, rank)
            met["; ".join(rp.poly.to_text() for rp in chosen)] += 1
            return chosen, rest

        built = Counter()

        class Counted(CharSetComponent):
            def __post_init__(self):
                super().__post_init__()
                built[seq_texts(self)] += 1

        monkeypatch.setattr(diffalg.decompose, "_basic_set", basic_set)
        monkeypatch.setattr(diffalg.decompose, "CharSetComponent", Counted)
        dec, divisions = recorded_decompose(monkeypatch, us, ELIM_XY)
        assert dec.complete
        assert [seq_texts(c) for c in dec.components] == [
            ("y", "x''"),
            ("y^3 + 1/4*y'^2", "x''*y - 1/2*y'"),
        ]
        assert met["y; x''"] == 3
        assert built == {seq_texts(c): 1 for c in dec.components}
        assert len(set(divisions)) == len(divisions) == 25

    def test_independent_blocks_are_decomposed_apart(self, monkeypatch):
        # two flagship pairs in disjoint variables: each block runs its own
        # tree (23 node divisions each, as for one flagship pair), each
        # block's component with nonconstant conditions checks its 2
        # inequations, and the four product components check theirs again
        # (0 + 2 + 2 + 4): 2 * 23 + 2 * 2 + 8 = 58 divisions, none repeated
        # (134 when one tree ran over the pairs of the blocks' nodes)
        us = [P(src, XYZW) for src in DOUBLE_FLAGSHIP]
        dec, divisions = recorded_decompose(monkeypatch, us, ELIM_XYZW)
        assert dec.complete
        assert [seq_texts(c) for c in dec.components] == [
            ("w", "z'", "y", "x'"),
            ("w", "z'", "y^3 + 1/4*y'^2", "x'*y - 1/2*y'"),
            ("w^3 + 1/4*w'^2", "z'*w - 1/2*w'", "y", "x'"),
            ("w^3 + 1/4*w'^2", "z'*w - 1/2*w'", "y^3 + 1/4*y'^2", "x'*y - 1/2*y'"),
        ]
        assert summary(dec) == summary(single_tree(us, ELIM_XYZW))
        assert len(set(divisions)) == len(divisions) == 58
        for c in dec.components:
            assert verify_component(c, us)

    def test_too_many_product_components_keep_the_first_joins(self, monkeypatch):
        # the double flagship has 2 * 2 combinations; with room for 3 the
        # first three in product order are joined and the fourth is not
        monkeypatch.setattr(diffalg.decompose, "MAX_COMPONENTS", 3)
        us = [P(src, XYZW) for src in DOUBLE_FLAGSHIP]
        dec = split_decompose(us, ELIM_XYZW)
        assert not dec.complete
        assert [seq_texts(c) for c in dec.components] == [
            ("w", "z'", "y", "x'"),
            ("w", "z'", "y^3 + 1/4*y'^2", "x'*y - 1/2*y'"),
            ("w^3 + 1/4*w'^2", "z'*w - 1/2*w'", "y", "x'"),
        ]
        for c in dec.components:
            assert verify_component(c, us)

    def test_the_step_budget_bounds_each_block(self, monkeypatch):
        # each flagship block's tree spends at most 108 units of work (14
        # nodes and the term pairs of their divisions), so both block runs
        # are complete within 200 and so is their product, though the tree
        # over the whole system, which needs 622, runs out of work
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 200)
        us = [P(src, XYZW) for src in DOUBLE_FLAGSHIP]
        single = single_tree(us, ELIM_XYZW)
        assert not single.complete and single.out_of_work
        dec = split_decompose(us, ELIM_XYZW)
        monkeypatch.undo()
        assert summary(dec) == summary(split_decompose(us, ELIM_XYZW))
        assert dec.complete and len(dec.components) == 4

    def test_an_incomplete_block_makes_the_product_incomplete(self, monkeypatch):
        # each flagship block's run drops a remainder with the coefficient
        # 1/4 at a 2-bit cap, so it is incomplete, and so is the product
        monkeypatch.setattr(diffalg.reduction, "MAX_COEFF_BITS", 2)
        us = [P(src, XYZW) for src in DOUBLE_FLAGSHIP]
        blocks = diffalg.decompose._blocks(frozenset(u.monic() for u in us))
        assert not any(diffalg.decompose._split_tree(b, ELIM_XYZW).complete for b in blocks)
        dec = split_decompose(us, ELIM_XYZW)
        assert not dec.complete

    @pytest.mark.parametrize("empty, hard", [("xy", "zw"), ("zw", "xy")])
    def test_a_block_with_no_zeros_empties_the_product(self, monkeypatch, empty, hard):
        # a^2 = 0 and a'^2 = 1 have no common zero, while the other pair's
        # tree runs out of work: before or after it, the empty block makes
        # the product complete and empty, as the tree over the whole system
        # finds it
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 2_000)
        a, (c, d) = empty[0], hard
        sources = (f"2*{a}^2", f"-{a}'^2 + 1", f"-2/3*{c}'^2*{d}^2 - 5*{c}*{d}^2 - 2*{c}", f"2*{c}^2*{c}'^2 - 1/2*{d}' - 4")
        us = [P(src, XYZW) for src in sources]
        hard_block = frozenset(u.monic() for u in us[2:])
        assert diffalg.decompose._split_tree(hard_block, ELIM_XYZW).out_of_work
        dec = split_decompose(us, ELIM_XYZW)
        assert summary(dec) == summary(single_tree(us, ELIM_XYZW)) == ([], True)

    def test_order_cap_drops_its_node(self):
        # dividing y^(60) + x by y + x^(10) derives the divisor 60 times,
        # to x^(70): past DEFAULT_ORDER_CAP the division stops as a size cap
        # stops it, the node is dropped and the decomposition is incomplete
        ctx = Context(("y", "x"), QQ)
        rk = Ranking.elimination(2, [0, 1])  # y > x
        us = [parse_poly("y + x^(10)", ctx), parse_poly("y^(60) + x", ctx)]
        dec = split_decompose(us, rk)
        assert summary(dec) == ([], False) and not dec.out_of_work
        assert jbc_check(us, rk).verdict is JbcVerdict.INCONCLUSIVE
        # building a component reduces its inequations by the same division
        with pytest.raises(TermLimitExceeded) as err:
            CharSetComponent(rk, (us[0],), (parse_poly("y^(60) + 1", ctx),))
        assert str(err.value) == (
            "reduction stopped at step 1: derivation would create order 65 > cap 64 (DEFAULT_ORDER_CAP)"
        )

    def test_many_blocks_join_at_most_max_components(self, monkeypatch):
        # seven independent x_i'^2 - x_i: 2^7 = 128 combinations, of which
        # the first 64 are joined and no more; with the 2 components of each
        # block's tree, 78 components are built in all
        ctx = Context(tuple(f"x{i}" for i in range(7)), QQ)
        us = [parse_poly(f"x{i}'^2 - x{i}", ctx) for i in range(7)]
        built = Counter()

        class Counted(CharSetComponent):
            def __post_init__(self):
                super().__post_init__()
                built[len(self.sequence) > 1] += 1

        monkeypatch.setattr(diffalg.decompose, "CharSetComponent", Counted)
        dec = split_decompose(us, Ranking.elimination(7))
        assert not dec.complete
        assert len(dec.components) == diffalg.decompose.MAX_COMPONENTS == 64
        assert built == {False: 14, True: 64}
        for c in dec.components[:4]:
            assert verify_component(c, us)

    @settings(max_examples=100, deadline=None)
    @given(two_block_systems)
    def test_blocks_decompose_as_one_tree(self, us):
        # where the tree over the whole system completes, the product is
        # what it gives; where a block run is incomplete and no block is
        # empty, so is the product
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diffalg.decompose, "MAX_COMPONENTS", 8)
            mp.setattr(diffalg.reduction, "MAX_WORK", 10_000)
            dec = split_decompose(us, ELIM_XYZW)
            single = single_tree(us, ELIM_XYZW)
            blocks = diffalg.decompose._blocks(frozenset(u.monic() for u in us))
            runs = [diffalg.decompose._split_tree(b, ELIM_XYZW) for b in blocks]
        if single.complete:
            assert dec.complete
            assert summary(dec) == summary(single)
        empty_block = any(run.complete and not run.components for run in runs)
        if not all(run.complete for run in runs) and not empty_block:
            assert not dec.complete

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            systems_with_a_zero(square_pairs(XY), XY).map(lambda s: s + (ELIM_XY,)),
            systems_with_a_zero(two_block_systems, XYZW).map(lambda s: s + (ELIM_XYZW,)),
        )
    )
    def test_a_complete_decomposition_covers_a_constant_zero(self, drawn):
        # a complete decomposition covers the zero set: the drawn constant
        # zero lies in some component, where every element of the
        # characteristic set vanishes and no inequation does
        us, pt, ranking = drawn
        if not us:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diffalg.decompose, "MAX_COMPONENTS", 8)
            mp.setattr(diffalg.reduction, "MAX_WORK", 10_000)
            dec = split_decompose(us, ranking)
        if dec.complete:
            assert any(
                all(not p.eval_at(pt) for p in c.sequence)
                and all(q.eval_at(pt) for q in c.inequations)
                for c in dec.components
            )

    def test_division_order_does_not_follow_string_hashing(self):
        # a node divides its equations in a structural order, so the
        # flagship's divisions come in the same sequence whatever
        # PYTHONHASHSEED is
        src = str(Path(diffalg.__file__).resolve().parents[1])
        code = """
import sys
sys.path.insert(0, sys.argv[1])
import diffalg.decompose as d
from diffalg import Context, QQ, Ranking
from diffalg.sysfile import SysFileError, parse_components, parse_poly
def recording(real):
    def recorded(p, prep, *rest):
        print(p.to_text(), "/", "; ".join(q.to_text() for q in prep.sequence))
        return real(p, prep, *rest)
    return recorded
d.ritt_reduce_seq = recording(d.ritt_reduce_seq)
xy = Context(("x", "y"), QQ)
d.split_decompose([parse_poly(s, xy) for s in ("x'' + y", "x'^2 + y")], Ranking.elimination(2, [0, 1]))
"""
        runs = [
            subprocess.run(
                [sys.executable, "-c", code, src],
                capture_output=True,
                text=True,
                check=True,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("0", "1")
        ]
        assert runs[0] == runs[1]
        assert len(runs[0].splitlines()) == 25

    def test_output_is_deterministic(self):
        us = [P("x'' + y"), P("x'^2 + y")]
        a = split_decompose(us, ELIM_XY)
        b = split_decompose(list(reversed(us)), ELIM_XY)
        assert [seq_texts(c) for c in a.components] == [seq_texts(c) for c in b.components]


class TestTreeChoices:
    """The tree renders text only to break a tie: its fork and basic set
    choose what a reference that renders and text-sorts every equation
    chooses."""

    @staticmethod
    def _tables(ranking):
        rank = functools.cache(lambda p: analyze(p, ranking))
        return functools.cache(lambda p: _fork_shape(p, rank)), rank

    def _check(self, node, ranking):
        shape, rank = self._tables(ranking)
        assert _fork(node, shape, rank) == text_sorted_fork(node, rank)
        chosen, rest = _basic_set(node, rank)
        ref_chosen, ref_rest = text_sorted_basic_set(node, rank)
        assert [rp.poly for rp in chosen] == [rp.poly for rp in ref_chosen]
        assert rest == ref_rest

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_choices_match_the_text_sorting_reference(self, data):
        ctx = data.draw(contexts(max_vars=2))
        ranking = data.draw(rankings(ctx))
        self._check(data.draw(splitting_nodes(ctx, ranking)), ranking)

    def test_a_tie_in_rank_key_is_broken_by_text(self):
        # x'' and y - 1/4*x'' share the rank key of x'' under elim x > y;
        # x'' comes first in text order, and the other is not reduced by it
        tied = [P("y - 1/4*x''"), P("x''")]
        node = frozenset(tied + [P("y'")])
        self._check(node, ELIM_XY)
        _, rank = self._tables(ELIM_XY)
        chosen, rest = _basic_set(node, rank)
        assert [rp.poly for rp in chosen] == [P("y'"), P("x''")] and rest == [tied[0]]

    def test_only_tied_equations_are_rendered(self):
        node = [P("y - 1/4*x''"), P("x''"), P("y'"), P("x*y + 1")]
        shape, rank = self._tables(ELIM_XY)
        _basic_set(frozenset(node), rank)
        assert [hasattr(p, "_text") for p in node] == [True, True, False, False]
        # a node with one equation of the power rule's shape renders nothing
        node = [P("x^2*y + x^2"), P("y^2 + 1"), P("x'' + y")]
        assert _fork(frozenset(node), shape, rank) == [
            frozenset({P("x"), node[1], node[2]}),
            frozenset({P("y + 1"), node[1], node[2]}),
        ]
        assert not any(hasattr(p, "_text") for p in node)


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

    def test_comparing_records_builds_no_certificate_part(self, monkeypatch):
        # a Verdict, and so a ComponentRecord, holds its certificate, which
        # compares and hashes by identity: no multiplier or quotient is
        # built (or charged) to compare two of them
        us = [P("x'' + y"), P("x'^2 + y")]
        records, again = jbc_check(us, ELIM_XY).records, jbc_check(us, ELIM_XY).records
        built = Counter()
        mul, init = DiffPoly.__mul__, DiffOperator.__init__
        monkeypatch.setattr(DiffPoly, "__mul__", lambda a, b: built.update(["products"]) or mul(a, b))
        monkeypatch.setattr(DiffOperator, "__init__", lambda op, *args: built.update(["operators"]) or init(op, *args))
        verdicts = [v for rec in records for v in rec.memberships]
        assert any(v.certificate.steps > 1 for v in verdicts)
        assert records == records and records != again
        assert len({*records, *again}) == 4 and len({*verdicts}) == len(verdicts)
        assert verdicts[0] == Verdict(verdicts[0].member, verdicts[0].heuristic, verdicts[0].certificate)
        assert built == {}
        assert all(v.certificate._multiplier is None and v.certificate._log is not None for v in verdicts)

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
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 1)
        rep = jbc_check([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        assert rep.verdict is JbcVerdict.INCONCLUSIVE

    # A FAILS verdict needs a verified full-length component whose dimension
    # exceeds the assignment maximum; producing one would refute the bound
    # the check exists to monitor, so that branch has no honest fixture.

    def test_requires_square_system(self):
        with pytest.raises(ValueError):
            jbc_check([P("x + y")], ELIM_XY)

    def test_flagship_reduction_count(self, monkeypatch):
        # 29 reductions: inside split_decompose, 23 node remainders (one per
        # equation and basic set, 42 in all when each node reduced all its
        # equations) and the inequation check of the one component with
        # nonconstant separants and initials (2); then 4 for the two
        # records, two inputs per component (the inequations were checked
        # when the component was built).  The tree's divisions share its
        # meter; each component division has a meter of its own.
        meters = Counter()

        def counted(real, *args):
            cert = real(*args)
            meters[cert.work] += 1
            return cert

        wrap_divisions(monkeypatch, counted)
        rep = jbc_check([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS
        assert sorted(meters.values()) == [1] * 6 + [23]

    @staticmethod
    def _count_division_work(monkeypatch, counts):
        """Count the division's own work into counts: its steps, and the term
        pairs of the products its steps make in the working map, which it
        charges to its meter."""

        def reduce(real, p, prep, work=None):
            work = work or Work()
            before = work.spent
            cert = real(p, prep, work)
            counts["steps"] += cert.steps
            counts["pairs"] += work.spent - before
            return cert

        wrap_divisions(monkeypatch, reduce)

    def test_flagship_work_counts(self, monkeypatch):
        # Deterministic work counters, pinned: each polynomial is analyzed
        # once per run, each equation is divided by each basic set once per
        # run, node reductions build no certificate products, and each
        # polynomial is rendered to text at most once, only where an order
        # needs its text: a tie between fork candidates or rank keys, the
        # order of a basic set's conditions and of the components (19
        # renders before the division memo, 17 when every node was sorted
        # by text).  A division step works in one map: its
        # cofactor is a monomial shift, a multiplier of 1 is not multiplied
        # in, and the multiple of the divisor is subtracted term pair by
        # term pair, so the division makes no DiffPoly product (76 products
        # in all when each step multiplied and subtracted polynomials, 261
        # before the division memo and the two step fast paths).
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
        self._count_division_work(monkeypatch, counts)
        rep = jbc_check(us, ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS
        assert counts["products"] == 0
        assert dict(counts) == {"analyze": 9, "steps": 54, "pairs": 129, "renders": 10}

    def test_flagship_conditions_are_listed_once_per_basic_set(self, monkeypatch):
        # the basic set y; x' emits at three nodes, and its separants and
        # initials are listed once, when it first emits (three times before
        # the list was kept with the basic set)
        listed, met = Counter(), Counter()
        real_conditions, real_basic_set = diffalg.decompose._sep_init_conditions, _basic_set

        def conditions(chosen):
            listed["; ".join(rp.poly.to_text() for rp in chosen)] += 1
            return real_conditions(chosen)

        def basic_set(node, rank):
            chosen, rest = real_basic_set(node, rank)
            met["; ".join(rp.poly.to_text() for rp in chosen)] += 1
            return chosen, rest

        monkeypatch.setattr(diffalg.decompose, "_sep_init_conditions", conditions)
        monkeypatch.setattr(diffalg.decompose, "_basic_set", basic_set)
        rep = jbc_check([P("x'' + y"), P("x'^2 + y")], ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS
        assert met["y; x'"] == 3
        assert listed == {"y; x'": 1, "y^3 + 1/4*y'^2; x'*y - 1/2*y'": 1}

    def test_flagship_prolongation_count(self, monkeypatch):
        # Pinned: each polynomial keeps its first derivative, so the run
        # computes 7 derivatives, not one per use (43 before they were kept).
        # The division's steps and term pairs are those of
        # test_flagship_work_counts.
        us = [P("x'' + y"), P("x'^2 + y")]
        counts = Counter()
        real_derive_once = DiffPoly._derive_once

        def derive_once(self):
            counts["derivatives"] += 1
            return real_derive_once(self)

        monkeypatch.setattr(DiffPoly, "_derive_once", derive_once)
        self._count_division_work(monkeypatch, counts)
        rep = jbc_check(us, ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS
        assert dict(counts) == {"derivatives": 7, "steps": 54, "pairs": 129}

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
