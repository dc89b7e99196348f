"""The truncated ideal-membership oracle: exact span solving over prolonged
generators, honest Inconclusive answers, and radical search."""

import sys
import time
from collections import Counter
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from diffalg import (
    Context,
    DerVar,
    DiffPoly,
    MembershipWitness,
    Monomial,
    OracleVerdict,
    QQ,
    QT,
    RatFunc,
    TruncationBounds,
    oracle,
    radical_member,
    truncated_member,
    verify_witness,
)
from diffalg.sysfile import parse_poly

from reference_engines import Echelon
from strategies import diffpolys, monomials, small_fractions, t_fractions

X1 = Context(("x",), QQ)
XY = Context(("x", "y"), QQ)
XY_T = Context(("x", "y"), QT)


def P(src, ctx=X1):
    return parse_poly(src, ctx)


class TestBounds:
    def test_defaults(self):
        b = TruncationBounds()
        assert (b.jet_order, b.prolongation_order, b.degree_bound, b.power_bound) == (4, 6, 8, 6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TruncationBounds(jet_order=-1)

    def test_describe_names_every_bound(self):
        text = TruncationBounds(1, 2, 3, 4).describe()
        for probe in ("jets<=1", "prolong<=2", "deg<=3", "power<=4"):
            assert probe in text


class TestMembers:
    def test_cube_of_first_derivative(self):
        f, g = P("x'^3"), P("x^2")
        w = truncated_member(f, [g], TruncationBounds(2, 3, 6, 6))
        assert w.is_member()
        assert verify_witness(f, [g], w)
        # the classical two-term combination: jets stay within order 2
        assert all(t.monomial.max_order() <= 2 for t in w.combination)

    def test_derivative_of_generator_is_member(self):
        f, g = P("2*x*x'"), P("x^2")
        w = truncated_member(f, [g], TruncationBounds(1, 1, 2, 1))
        assert w.is_member() and verify_witness(f, [g], w)

    def test_zero_is_trivially_member(self):
        w = truncated_member(DiffPoly.zero(X1), [P("x^2")], TruncationBounds())
        assert w.is_member()
        assert w.combination == ()

    def test_witness_text_shows_combination(self):
        f, g = P("x'^3"), P("x^2")
        w = truncated_member(f, [g], TruncationBounds(2, 3, 6, 6))
        text = w.to_text()
        assert text.startswith("Member (e = 1): f = ")
        assert "d^" in text

    def test_multiple_generators(self):
        ctx = XY
        gens = [parse_poly("y^2 - x^3", ctx), parse_poly("x'", ctx)]
        f = parse_poly("2*y*y' - 3*x^2*x'", ctx)  # = d(g1)
        w = truncated_member(f, gens, TruncationBounds(1, 1, 3, 1))
        assert w.is_member() and verify_witness(f, gens, w)


class TestInconclusive:
    def test_generator_root_is_out_of_reach(self):
        w = truncated_member(P("x"), [P("x^2")], TruncationBounds())
        assert w.verdict is OracleVerdict.INCONCLUSIVE
        assert "no combination exists" in w.diagnostic
        assert "jets<=4" in w.to_text()

    def test_unit_is_out_of_reach(self):
        w = truncated_member(P("1"), [P("x")], TruncationBounds())
        assert w.verdict is OracleVerdict.INCONCLUSIVE

    def test_degree_bound_overflow_is_reported(self):
        w = truncated_member(P("x^5"), [P("x^2")], TruncationBounds(0, 0, 3, 1))
        assert w.verdict is OracleVerdict.INCONCLUSIVE
        assert "degree" in w.diagnostic

    def test_query_beyond_jet_bound_is_an_error(self):
        with pytest.raises(ValueError):
            truncated_member(P("x^(5)"), [P("x^2")], TruncationBounds(jet_order=4))

    @pytest.mark.parametrize("degree, skipped", [(20_000, 39_984), (10**8, 199_999_984)])
    def test_a_huge_degree_bound_counts_the_stages_it_skips(self, degree, skipped):
        # past the first stage over the candidate cap every later stage is
        # over it too: the walk counts them instead of visiting them, so
        # every query takes well under a second of CPU (visited one by one,
        # the 2 * 10^8 stages would take over an hour).  Likewise past the
        # first power whose first stage is over the cap every later power's
        # is: up to a power bound of `degree`, y reaches the power bound and
        # x*y + x the degree stop, and the last power tried skips its top
        # degree's two stages (walked power by power, they took hours)
        gens = [P("x' + x^2 + 1", XY), P("y' - x", XY)]
        bounds = TruncationBounds(2, 1, degree, 1)
        powers = TruncationBounds(2, 1, degree, degree)
        start = time.process_time()
        w = truncated_member(P("y^2", XY), gens, bounds)
        r = radical_member(P("y", XY), gens, bounds)
        r_all = radical_member(P("y", XY), gens, powers)
        r_half = radical_member(P("x*y + x", XY), gens, powers)
        assert time.process_time() - start < 1.0
        note = f"search exhausted; {skipped} stage(s) skipped by the candidate cap 1500"
        assert w.diagnostic == note
        assert r.diagnostic == f"no power up to 1 found (last: {note})"
        top = "search exhausted; 2 stage(s) skipped by the candidate cap 1500"
        assert r_all.diagnostic == f"no power up to {degree} found (last: {top})"
        half = degree // 2
        assert r_half.diagnostic == (
            f"no power up to {half} found: the degree bound {degree} stops the search "
            f"at f^{half + 1} (degree {degree + 2}) (last: {top})"
        )

    def test_every_inconclusive_names_the_bounds(self):
        for f, gens in ((P("x"), [P("x^2")]), (P("1"), [P("x")])):
            w = truncated_member(f, gens, TruncationBounds())
            assert "bounds:" in w.to_text()


class TestMonotonicity:
    def test_member_stays_member_under_larger_bounds(self):
        f, g = P("x'^3"), P("x^2")
        small = TruncationBounds(2, 3, 6, 6)
        big = TruncationBounds(3, 5, 8, 6)
        assert truncated_member(f, [g], small).is_member()
        assert truncated_member(f, [g], big).is_member()


class TestVerifyWitness:
    def test_rejects_tampered_combination(self):
        f, g = P("x'^3"), P("x^2")
        w = truncated_member(f, [g], TruncationBounds(2, 3, 6, 6))
        tampered = MembershipWitness(
            verdict=w.verdict,
            bounds=w.bounds,
            context=w.context,
            power=w.power,
            combination=w.combination[:-1],
            diagnostic=w.diagnostic,
        )
        assert not verify_witness(f, [g], tampered)

    def test_rejects_inconclusive(self):
        w = truncated_member(P("x"), [P("x^2")], TruncationBounds())
        assert not verify_witness(P("x"), [P("x^2")], w)


class TestRadical:
    def test_exponent_three_for_cusp_tangent(self):
        gens = [parse_poly("y^2 - x^3", XY), parse_poly("x'", XY)]
        f = parse_poly("y'", XY)
        w = radical_member(f, gens, TruncationBounds())
        assert w.is_member()
        assert w.power == 3
        assert verify_witness(f, gens, w)
        assert w.to_text() == (
            "Member (e = 3): f^3 = (-1/2)*y''*d^1(g1) + (1/2)*y'*d^2(g1) + "
            "(3)*x*x'*y'*g2 + (-3/2)*x^2*y''*g2 + (3/2)*x^2*y'*d^1(g2)"
        )

    def test_the_cap_bounds_the_graded_walk(self):
        # each power of y or x*y + x solves graded blocks of its own; past
        # 1,500 graded candidates in all the walk tries no further power
        # (walked to the power bound 800, these took minutes)
        gens = [parse_poly("y^2 - x^3", XY), parse_poly("x'", XY)]
        bounds = TruncationBounds(2, 1, 10**8, 800)
        start = time.process_time()
        w_y = radical_member(parse_poly("y", XY), gens, bounds)
        w_xy = radical_member(parse_poly("x*y + x", XY), gens, bounds)
        assert time.process_time() - start < 2.0
        last = "(last: no combination exists at these bounds (graded search exhausted))"
        assert w_y.diagnostic == (
            "no power up to 78 found: the candidate cap 1500 stops the search at f^79 "
            f"(1521 graded candidates before it) {last}"
        )
        assert w_xy.diagnostic == (
            "no power up to 96 found: the candidate cap 1500 stops the search at f^97 "
            f"(1520 graded candidates before it) {last}"
        )

    @pytest.mark.parametrize("bounds", [(1, 2, 4, 3), (2, 3, 4, 4), (2, 3, 5, 3), (2, 4, 6, 4)])
    def test_the_benchmark_cusp_radicals_stay_members(self, bounds):
        # the truncation bounds of the membership workload's cusp queries
        gens = [parse_poly("y^2 - 3/2*x^3", XY), parse_poly("x'", XY)]
        w = radical_member(parse_poly("2*y'", XY), gens, TruncationBounds(*bounds))
        assert w.is_member() and w.power == 3

    def test_exponent_one_short_circuits(self):
        f, g = P("x'^3"), P("x^2")
        w = radical_member(f, [g], TruncationBounds(2, 3, 6, 6))
        assert w.is_member() and w.power == 1

    def test_power_bound_zero_gives_inconclusive(self):
        w = radical_member(P("x"), [P("x^2")], TruncationBounds(power_bound=0))
        assert w.verdict is OracleVerdict.INCONCLUSIVE

    def test_degree_bound_stop_is_named(self):
        # x*y + 1 has degree 2: f^3 is over the degree bound 4, so only e = 1, 2 are tried
        gens = [parse_poly("y^2 - x^3", XY), parse_poly("x'", XY)]
        w = radical_member(parse_poly("x*y + 1", XY), gens, TruncationBounds(1, 1, 4, 6))
        assert w.verdict is OracleVerdict.INCONCLUSIVE
        assert w.diagnostic.startswith(
            "no power up to 2 found: the degree bound 4 stops the search at f^3 (degree 6)"
        )
        assert "up to 6" not in w.diagnostic

    def test_degree_bound_stop_before_any_power(self):
        # the degree stop comes before the jet-bound check: x'''^5 is over
        # both bounds, and truncated_member, which has no degree stop,
        # refuses it for its jets before it reads its degree
        bounds = TruncationBounds(0, 0, 3, 2)
        for f in (P("x^5"), P("x'''^5")):
            w = radical_member(f, [P("x^2")], bounds)
            assert w.diagnostic == (
                "no power tried: the degree bound 3 stops the search at f^1 (degree 5)"
            )
        with pytest.raises(ValueError, match="derivative order 3, above the jet bound 0"):
            truncated_member(P("x'''^5"), [P("x^2")], bounds)

    def test_generators_are_checked_before_any_power(self):
        # empty, zero or foreign generators are refused once, up front, even
        # where the degree bound stops the search before f^1
        for gens in ([], [P("0")], [parse_poly("x", XY)]):
            with pytest.raises(ValueError):
                radical_member(P("x^5"), gens, TruncationBounds(0, 0, 3, 2))

    def test_cusp_builds_each_candidate_once(self, monkeypatch):
        """Work gate: the cusp is homogeneous under the weights x = 2,
        y = 3, so each power is solved in the one block it occupies: 14
        candidates in all (0, 3 and 11 for e = 1, 2, 3), and the staged
        search is never asked.  The staged search adds 3,427 candidates
        here, and the per-stage rebuild of ref_radical below ~65k.  A
        candidate is a monomial shift, so the only polynomial products are
        the powers of f and the witness replay."""
        gens = [parse_poly("y^2 - x^3", XY), parse_poly("x'", XY)]
        f = parse_poly("y'", XY)
        calls = {"add": 0, "mul": 0, "find": 0}

        def counting(name, method):
            def wrapped(*args):
                calls[name] += 1
                return method(*args)

            return wrapped

        monkeypatch.setattr(oracle._Echelon, "add", counting("add", oracle._Echelon.add))
        monkeypatch.setattr(oracle._Search, "_find", counting("find", oracle._Search._find))
        monkeypatch.setattr(DiffPoly, "__mul__", counting("mul", DiffPoly.__mul__))
        w = radical_member(f, gens, TruncationBounds())
        monkeypatch.undo()
        assert w.is_member() and w.power == 3
        assert verify_witness(f, gens, w)
        assert calls["add"] == 14
        assert calls["find"] == 0
        assert calls["mul"] <= 50

    def test_radical_walk_makes_one_product_per_power(self, monkeypatch):
        """Work gate, pinned: the walk for x*y + x over the cusp at bounds
        2,1,10^8,100 tries f^1 to f^96, and makes each power as one product
        of the power before it with f: 95 polynomial products (761 when
        each power was built by squaring from f)."""
        gens = [parse_poly("y^2 - x^3", XY), parse_poly("x'", XY)]
        f = parse_poly("x*y + x", XY)
        products = []
        mul = DiffPoly.__mul__
        monkeypatch.setattr(DiffPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        w = radical_member(f, gens, TruncationBounds(2, 1, 10**8, 100))
        assert w.diagnostic.startswith("no power up to 96 found: the candidate cap 1500 stops the search at f^97")
        assert len(products) == 95


class TestWeights:
    """The variable weights of the graded path."""

    CUSP = [parse_poly("y^2 - x^3", XY), parse_poly("x'", XY)]

    def test_cusp(self):
        assert oracle._weights(self.CUSP) == (2, 3)

    def test_unit_when_each_generator_has_one_total_degree(self):
        # the membership workload's graded pair: degree 2 with weight 0, degree 2 with weight 1
        gens = [parse_poly("x^2 - 4*y^2 + 1/3*x*y - 2/3*y^2", XY), parse_poly("x*x' - 2*y*y' + x'*y", XY)]
        assert oracle._weights(gens) == (1, 1)

    def test_primitive_multiple(self):
        # exponent sums per variable: 6*w_x = 2*w_y = 3*w_x + w_y; 5*w_x = 7*w_y;
        # 4*w_x = w_x + 2*w_y; 6*w_x + w_y = 4*w_y + w_y
        assert oracle._weights([parse_poly("x^6 - y^2 + x^3*y", XY)]) == (1, 3)
        assert oracle._weights([parse_poly("x^4*x' - 2*y^6*y'", XY)]) == (7, 5)
        assert oracle._weights([parse_poly("x^3*x' - 2*y^2*x'", XY)]) == (2, 3)
        assert oracle._weights([parse_poly("x^6*y' + y^4*y'", XY)]) == (2, 3)

    def test_constant_term_gives_none(self):
        assert oracle._weights([parse_poly("y^2 - x^3 + 1", XY), parse_poly("x'", XY)]) is None

    def test_qt_context_gives_none(self):
        gens = [parse_poly("y^2 - x^3", XY_T), parse_poly("x'", XY_T)]
        assert oracle._weights(gens) is None

    def test_contradictory_constraints_give_none(self):
        # y^2 - x^3 asks 2*w_y = 3*w_x and x^2 - y^3 asks 2*w_x = 3*w_y
        assert oracle._weights([parse_poly("y^2 - x^3", XY), parse_poly("x^2 - y^3", XY)]) is None

    def test_a_free_variable_gives_none(self):
        xyz = Context(("x", "y", "z"), QQ)
        assert oracle._weights([parse_poly("y^2 - x^3", xyz), parse_poly("z'", xyz)]) is None

    def test_two_derivative_weights_give_none(self):
        assert oracle._weights([parse_poly("y^2 - x^3*x'", XY)]) is None

    def test_degree_bound_holds_under_weights(self):
        # under x = 1, y = 3 the block of y^2 also holds x^3 * g_i, of degree 6;
        # y^2 = (y/2) * (g1 + g2) needs the degree bound 4
        gens = [parse_poly("y - x^3", XY), parse_poly("y + x^3", XY)]
        f = parse_poly("y^2", XY)
        assert oracle._weights(gens) == (1, 3)
        w = truncated_member(f, gens, TruncationBounds(0, 0, 3, 1))
        assert w.diagnostic == "no combination exists at these bounds (graded search exhausted)"
        assert ref_staged(f, gens, TruncationBounds(0, 0, 3, 1), oracle.MAX_CANDIDATES) == (None, 0)
        w = truncated_member(f, gens, TruncationBounds(0, 0, 4, 1))
        assert w.to_text() == "Member (e = 1): f = (1/2)*y*g1 + (1/2)*y*g2"

    def test_weighted_block_over_the_cap_takes_the_staged_search(self):
        f = parse_poly("y'^3", XY)
        bounds = TruncationBounds()
        with patch.object(oracle, "MAX_CANDIDATES", 10):
            search = oracle._Search(f, self.CUSP, bounds)
            assert search.weights == (2, 3)
            with pytest.raises(oracle._CapHit):
                search._graded(f)
            w = truncated_member(f, self.CUSP, bounds)
            staged = oracle._Search(f, self.CUSP, bounds)._find(f)
        assert staged == (None, 42)
        assert w.diagnostic == "search exhausted; 42 stage(s) skipped by the candidate cap 10"

    def test_unit_block_over_the_cap_takes_the_staged_search(self):
        f, g = P("x'^3"), P("x^2")
        with patch.object(oracle, "MAX_CANDIDATES", 1):
            w = truncated_member(f, [g], TruncationBounds(2, 3, 6, 6))
        assert w.diagnostic == "search exhausted; 16 stage(s) skipped by the candidate cap 1"
        # under unit weights f's block is over the cap from prolongation 4 on,
        # and raising the bound must not lose the Member that prolongation 2 proves
        xyz = Context(("x", "y", "z"), QQ)
        gens = [parse_poly(g, xyz) for g in ("x*y", "y*z", "x*z")]
        f = parse_poly("x*y*x'^2*y''^2", xyz)
        for prolong in (2, 4, 8):
            bounds = TruncationBounds(4, prolong, 6, 1)
            search = oracle._Search(f, gens, bounds)
            assert search.weights == (1, 1, 1)
            if prolong > 2:
                with pytest.raises(oracle._CapHit):
                    search._graded(f)
            w = truncated_member(f, gens, bounds)
            assert w.to_text() == "Member (e = 1): f = (1)*x'^2*y''^2*g1"


class TestQtCoefficients:
    def test_member_with_t_in_the_combination(self):
        ctx = Context(("x",), QT)
        g = parse_poly("x'", ctx)
        f = parse_poly("t*x'' + x'", ctx)  # = d(t * x') = t*x'' + x'
        w = truncated_member(f, [g], TruncationBounds(2, 2, 2, 1))
        assert w.is_member()
        assert verify_witness(f, [g], w)


class TestWorkGates:
    def test_staged_non_member_arithmetic(self, monkeypatch):
        """Work gate, pinned: the staged search on the membership
        workload's non-member staged1-nonmember (seed 5) makes these field
        operations and no polynomial product.  The echelon's rows record
        their reduction steps and no combination is built for a miss, and
        f's reduction resumes from stage to stage (158 multiplications and
        32 additions when every row carried its combination and f was
        reduced afresh at each stage).  A step is one product with its
        row's -1/lead, taken once for each of the 29 rows that a step uses
        (107 multiplications, 38 divisions and 38 negations when each step
        divided by the lead; 88 divisions if every row added were
        inverted)."""
        gens = [parse_poly("1/2*x'*y' - 3/2*x'", XY), parse_poly("-3/2*y'^2 - x - 3/2*y - 9/2", XY)]
        f = parse_poly("-4*x*y' + 4*x' - 4", XY)
        counts = Counter()

        def counting(name, method):
            def wrapped(*args):
                counts[name] += 1
                return method(*args)

            return wrapped

        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__"):
            monkeypatch.setattr(RatFunc, name, counting(name.strip("_"), getattr(RatFunc, name)))
        monkeypatch.setattr(DiffPoly, "__mul__", counting("products", DiffPoly.__mul__))
        w = truncated_member(f, gens, TruncationBounds(1, 3, 3, 1))
        assert w.diagnostic == "search exhausted"
        assert dict(counts) == {"add": 28, "truediv": 29, "mul": 145}

    def test_flagship_failing_search_multiplications(self, monkeypatch):
        """Work gate, pinned: the failing staged search for x'*y over the
        flagship pair at the default bounds 4,6,8,6 makes exactly these
        field operations (40,676 multiplications and 12,988 additions when
        every row carried its combination).  Each of its 10,104 steps is one
        product with its row's -1/lead, taken once for each of the 2,133 rows
        that a step uses (11,979 multiplications and 10,104 divisions when
        each step divided by the lead)."""
        gens = [parse_poly("x'' + y", XY), parse_poly("x'^2 + y", XY)]
        f = parse_poly("x'*y", XY)
        counts = Counter()

        def counting(name, method):
            def wrapped(*args):
                counts[name] += 1
                return method(*args)

            return wrapped

        for name in ("__add__", "__mul__", "__truediv__"):
            monkeypatch.setattr(RatFunc, name, counting(name.strip("_"), getattr(RatFunc, name)))
        w = truncated_member(f, gens, TruncationBounds(4, 6, 8, 6))
        assert w.diagnostic == "search exhausted; 23 stage(s) skipped by the candidate cap 1500"
        assert dict(counts) == {"mul": 22083, "add": 3355, "truediv": 2133}


@st.composite
def candidate_runs(draw, ctx):
    """Generators, their candidates (key, m, d^k(g_i)) in the order an
    echelon takes them, and a combination of the candidates."""
    coeffs = t_fractions() if ctx.field is QT else small_fractions()
    gens = draw(st.lists(diffpolys(ctx, max_order=1, max_degree=2, max_terms=3, coeffs=coeffs), min_size=1, max_size=2))
    assume(all(not g.is_zero() for g in gens))
    cands = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        gi = draw(st.integers(min_value=0, max_value=len(gens) - 1))
        k = draw(st.integers(min_value=0, max_value=2))
        m = draw(monomials(ctx, max_order=1, max_degree=2, max_factors=2))
        h = gens[gi].derive(k)
        if not h.is_zero():
            cands.append(((gi, k, m), m, h))
    assume(cands)
    f = DiffPoly.zero(ctx)
    for _, m, h in cands:
        c = draw(coeffs)
        f = f + h * DiffPoly.from_terms(ctx, [(m, c)])
    return cands, f


class TestEchelonAgainstMonomialKeys:
    """The echelon keyed by sort keys keeps the rows the Monomial-keyed one
    of tests/reference_engines.py keeps, and solves alike."""

    @pytest.mark.parametrize("ctx", [XY, XY_T], ids=["Q", "Qt"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_rows_and_solutions(self, ctx, data):
        cands, inside = data.draw(candidate_runs(ctx))
        new, ref = oracle._Echelon(), Echelon()
        new_kept, ref_kept = [], []
        for key, m, h in cands:
            for echelon, vec, kept in (
                (new, oracle._shifted(m, oracle._graded_terms(h)), new_kept),
                (ref, {m * hm: c for hm, c in h.items()}, ref_kept),
            ):
                size = len(echelon)
                echelon.add(key, vec)
                if len(echelon) > size:
                    kept.append(key)
        assert new_kept == ref_kept
        assert set(new.rows) == {p.sort_key() for p in ref.rows}
        # no candidate has a jet of order 5
        outside = inside + DiffPoly.var(ctx, 0, 5)
        for f in (inside, outside):
            assert new.solve(f) == ref.solve(f)
        assert new.solve(inside) is not None
        assert new.solve(outside) is None


# ------------------------------------------------------------------ reference
# The per-stage rebuild that the growing echelon replaced: each (degree,
# prolongation) stage builds all of its candidates and a fresh echelon, and
# each power of a radical query starts again from the first stage.


class _RefCapHit(Exception):
    pass


def _ref_kept_prolongations(gens, max_k, max_deg):
    kept = []
    for gi, g in enumerate(gens):
        h = g
        for k in range(max_k + 1):
            if k:
                h = h.derive()
            if not h.is_zero() and h.total_degree() <= max_deg:
                kept.append((gi, k, h))
    return kept


def _ref_monomials_upto(jets, max_deg, cap):
    out = [Monomial.make(())]
    stack = [(0, (), max_deg)]
    while stack:
        i, acc, left = stack.pop()
        for j in range(i, len(jets)):
            for e in range(1, left + 1):
                mono = acc + ((jets[j], e),)
                out.append(Monomial.make(mono))
                if len(out) > cap:
                    raise _RefCapHit
                if left - e > 0:
                    stack.append((j + 1, mono, left - e))
    return out


def _ref_solve_span(f, candidates):
    zero = f.context.field.zero
    basis = {}

    def reduce(vec, combo):
        while vec:
            pivot = max(vec, key=Monomial.sort_key)
            row = basis.get(pivot)
            if row is None:
                return vec, combo, pivot
            rvec, rcombo = row
            c = vec[pivot]
            for target, source in ((vec, rvec), (combo, rcombo)):
                for m, x in source.items():
                    nxt = target.get(m, zero) - c * x
                    if nxt:
                        target[m] = nxt
                    else:
                        target.pop(m, None)
        return vec, combo, None

    for key, poly in candidates:
        vec, combo, pivot = reduce(dict(poly.items()), {key: poly.context.field.one})
        if pivot is not None:
            lead = vec[pivot]
            basis[pivot] = ({m: c / lead for m, c in vec.items()}, {k: c / lead for k, c in combo.items()})
    _, fcombo, pivot = reduce(dict(f.items()), {})
    return None if pivot is not None else {k: -c for k, c in fcombo.items()}


def ref_staged(f, gens, bounds, cap):
    """(combination or None, stages skipped by the cap)."""
    skipped = 0
    for dd in range(f.total_degree(), bounds.degree_bound + 1):
        for pp in range(bounds.prolongation_order + 1):
            kept = _ref_kept_prolongations(gens, pp, dd)
            if not kept:
                continue
            jets = set(f.dervars())
            for _, _, h in kept:
                jets.update(h.dervars())
            universe = sorted(jets)
            try:
                cands = []
                for gi, k, h in kept:
                    for m in _ref_monomials_upto(universe, dd - h.total_degree(), cap):
                        cands.append(((gi, k, m), h * DiffPoly.from_terms(f.context, [(m, f.context.field.one)])))
                        if len(cands) > cap:
                            raise _RefCapHit
            except _RefCapHit:
                skipped += 1
                continue
            combo = _ref_solve_span(f, cands)
            if combo is not None:
                return combo, skipped
    return None, skipped


def _exhausted(skipped, cap):
    note = "search exhausted"
    if skipped:
        note += f"; {skipped} stage(s) skipped by the candidate cap {cap}"
    return note


def ref_radical(f, gens, bounds, cap):
    """(power or None, diagnostic, total stages skipped over every power)."""
    total = 0
    last = None
    diag = f"no power up to {bounds.power_bound} found"
    for e in range(1, bounds.power_bound + 1):
        fe = f ** e
        if fe.total_degree() > bounds.degree_bound:
            tried = f"no power up to {e - 1} found" if e > 1 else "no power tried"
            diag = (
                f"{tried}: the degree bound {bounds.degree_bound} stops the search "
                f"at f^{e} (degree {fe.total_degree()})"
            )
            break
        combo, skipped = ref_staged(fe, gens, bounds, cap)
        total += skipped
        if combo is not None:
            return e, "", total
        last = skipped
    if last is not None:
        diag += f" (last: {_exhausted(last, cap)})"
    return None, diag, total


def _query(draw, ctx, gens, coeffs):
    """A query for the generators and bounds that contain it: either a
    planted combination sum c * m * d^k(g_i) or an arbitrary polynomial."""
    max_k = draw(st.integers(min_value=0, max_value=2))
    if draw(st.booleans()):
        f = DiffPoly.zero(ctx)
        degree = 0
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            gi = draw(st.integers(min_value=0, max_value=len(gens) - 1))
            k = draw(st.integers(min_value=0, max_value=max_k))
            m = draw(monomials(ctx, max_order=1, max_degree=1, max_factors=1))
            c = draw(coeffs)
            h = gens[gi].derive(k)
            f = f + h * DiffPoly.from_terms(ctx, [(m, c)])
            degree = max(degree, h.total_degree() + m.degree())
    else:
        f = draw(diffpolys(ctx, max_order=1, max_degree=2, max_terms=3, coeffs=coeffs))
        degree = f.total_degree()
    assume(not f.is_zero())
    degree = max(degree, f.total_degree()) + draw(st.integers(min_value=0, max_value=1))
    bounds = TruncationBounds(f.max_order(), max_k, min(degree, 4), draw(st.integers(min_value=1, max_value=3)))
    assume(f.total_degree() <= bounds.degree_bound)
    return f, bounds


@st.composite
def staged_cases(draw, ctx=XY, coeffs=small_fractions()):
    """Two or three generators in x, y that the oracle finds no weights for
    (over Q, unless ctx and a coefficient strategy say otherwise), and a
    query."""
    polys = diffpolys(ctx, max_order=1, max_degree=2, max_terms=3, coeffs=coeffs)
    gens = draw(st.lists(polys, min_size=2, max_size=3))
    assume(all(not g.is_zero() for g in gens) and oracle._weights(gens) is None)
    f, bounds = _query(draw, ctx, gens, coeffs)
    return f, gens, bounds


# monomials of degree <= 3 in x, x', y, y'
POOL = _ref_monomials_upto(sorted(DerVar(v, o) for v in range(2) for o in range(2)), 3, 99)


@st.composite
def graded_cases(draw):
    """Two generators in x, y over Q, each homogeneous in (weighted degree,
    derivative weight) under variable weights drawn from {1, 2, 3}^2, and a
    query.  Half of the time the first generator has monomials of two total
    degrees, where the weights allow it, so that weights other than all
    ones come up often."""
    weights = draw(st.tuples(st.sampled_from((1, 2, 3)), st.sampled_from((1, 2, 3))))
    blocks: dict = {}
    for m in POOL:
        blocks.setdefault((sum(weights[v.var] * e for v, e in m.factors), m.weight()), []).append(m)
    mixed = [b for b in blocks.values() if len({m.degree() for m in b}) > 1]
    gens = []
    for first in (True, False):
        pool = mixed if first and mixed and draw(st.booleans()) else list(blocks.values())
        block = draw(st.sampled_from(pool))
        monos = draw(st.lists(st.sampled_from(block), min_size=1, max_size=3, unique=True))
        if pool is mixed:
            monos.append(draw(st.sampled_from([m for m in block if m.degree() != monos[0].degree()])))
        gens.append(DiffPoly.from_terms(XY, [(m, draw(small_fractions())) for m in monos]))
    assume(all(not g.is_zero() for g in gens))
    f, bounds = _query(draw, XY, gens, small_fractions())
    return f, gens, bounds


class TestAgainstPerStageRebuild:
    """With no stage over the cap, the growing echelon spans the top stage,
    as the per-stage rebuild's last stage does, so both decide alike; with
    stages over the cap it may decide more, never less.  Small caps make
    the second case common."""

    def test_union_of_admitted_stages_decides_more(self):
        # f = d^2(g1) + x*g1 - g2: stage (2, 2) holds d^2(g1), stage (3, 0)
        # holds x*g1 and g2 (7 candidates), and every stage holding all
        # three has more than 10 candidates
        gens = [parse_poly("x^2 + y", XY), parse_poly("x^3 + 1", XY)]
        f = parse_poly("y'' + 2*x'^2 + 2*x*x'' + x*y - 1", XY)
        bounds = TruncationBounds(2, 2, 4, 1)
        assert ref_staged(f, gens, bounds, 10) == (None, 5)
        with patch.object(oracle, "MAX_CANDIDATES", 10):
            w = truncated_member(f, gens, bounds)
        assert w.is_member() and verify_witness(f, gens, w)
        assert w.to_text() == "Member (e = 1): f = (1)*x*g1 + (1)*d^2(g1) + (-1)*g2"
        assert ref_staged(f, gens, bounds, oracle.MAX_CANDIDATES)[0] is not None

    @staticmethod
    def _check_truncated_member(case, cap):
        f, gens, bounds = case
        with patch.object(oracle, "MAX_CANDIDATES", cap):
            w = truncated_member(f, gens, bounds)
        combo, skipped = ref_staged(f, gens, bounds, cap)
        if w.is_member():
            assert verify_witness(f, gens, w)
        else:
            assert combo is None
            assert w.diagnostic == _exhausted(skipped, cap)
        if not skipped:
            assert w.is_member() == (combo is not None)

    @settings(max_examples=60, deadline=None)
    @given(case=staged_cases(), cap=st.sampled_from((8, 16, oracle.MAX_CANDIDATES)))
    def test_truncated_member(self, case, cap):
        self._check_truncated_member(case, cap)

    @settings(max_examples=40, deadline=None)
    @given(case=staged_cases(XY_T, t_fractions()), cap=st.sampled_from((8, 16, oracle.MAX_CANDIDATES)))
    def test_truncated_member_over_qt(self, case, cap):
        """Over Q(t) the rows' leads depend on t, so elimination divides by
        rational functions."""
        self._check_truncated_member(case, cap)

    @settings(max_examples=40, deadline=None)
    @given(case=staged_cases(), cap=st.sampled_from((8, 16, oracle.MAX_CANDIDATES)))
    def test_radical_member(self, case, cap):
        f, gens, bounds = case
        with patch.object(oracle, "MAX_CANDIDATES", cap):
            w = radical_member(f, gens, bounds)
        power, diag, skipped = ref_radical(f, gens, bounds, cap)
        if w.is_member():
            assert verify_witness(f, gens, w)
            assert power is None or w.power <= power
        else:
            assert power is None
            assert w.diagnostic == diag
        if not skipped:
            assert (w.power if w.is_member() else None) == power


def _in_truncation(w, gens, bounds):
    """Every summand c * m * d^k(g_i) of the witness is a candidate of the
    truncation: k <= prolongation bound, degree <= degree bound."""
    return all(
        t.derive_order <= bounds.prolongation_order
        and t.monomial.degree() + gens[t.gen_index].derive(t.derive_order).total_degree() <= bounds.degree_bound
        for t in w.combination
    )


class TestGradedAgainstPerStageRebuild:
    """Systems the oracle solves block by block, with unit or other weights,
    decide as the per-stage rebuild does whenever the rebuild skips no
    stage.  Under small caps a block over the cap goes to the staged
    search."""

    @settings(max_examples=60, deadline=None)
    @given(case=graded_cases(), cap=st.sampled_from((8, 16, oracle.MAX_CANDIDATES)))
    def test_truncated_member(self, case, cap):
        f, gens, bounds = case
        assert oracle._weights(gens) is not None
        with patch.object(oracle, "MAX_CANDIDATES", cap):
            w = truncated_member(f, gens, bounds)
        combo, skipped = ref_staged(f, gens, bounds, cap)
        if w.is_member():
            assert verify_witness(f, gens, w) and _in_truncation(w, gens, bounds)
        elif "graded search exhausted" in w.diagnostic:
            assert combo is None
        if not skipped:
            assert w.is_member() == (combo is not None)

    @settings(max_examples=40, deadline=None)
    @given(case=graded_cases(), cap=st.sampled_from((8, 16, oracle.MAX_CANDIDATES)))
    def test_radical_member(self, case, cap):
        f, gens, bounds = case
        with patch.object(oracle, "MAX_CANDIDATES", cap):
            w = radical_member(f, gens, bounds)
        power, _, skipped = ref_radical(f, gens, bounds, cap)
        if w.is_member():
            assert verify_witness(f, gens, w) and _in_truncation(w, gens, bounds)
        if not skipped:
            assert (w.power if w.is_member() else None) == power


class TestCombinationOnlyForAMember:
    """The echelon records each row's reduction steps and expands a
    combination only when a reduction ends at zero; _find resumes f's
    reduction from stage to stage.  Both give the combination that the
    reference echelon, which carries every row's combination, solves for."""

    def test_a_chain_longer_than_the_recursion_limit(self):
        # candidate k is a_(k-1) + a_k with a_k = x^(n + 1 - k), so row k is
        # reached through row k - 1, and a_n = x is the alternating sum of
        # all n + 1 candidates
        n = sys.getrecursionlimit() + 100
        x = DerVar(0, 0)
        key = [Monomial.of(x, n + 1 - k).sort_key() for k in range(n + 1)]
        one = RatFunc.from_fraction(1)
        echelon = oracle._Echelon()
        echelon.add(0, {key[0]: one})
        for k in range(1, n + 1):
            echelon.add(k, {key[k - 1]: one, key[k]: one})
        assert len(echelon) == n + 1
        combo = echelon.solve(DiffPoly.var(X1, 0, 0))
        assert combo == {k: one if (n - k) % 2 == 0 else -one for k in range(n + 1)}

    @staticmethod
    def _check_find(case, cap, stop):
        f, gens, bounds = case
        if stop is not None:  # end the walk at an intermediate stage
            bounds = TruncationBounds(
                bounds.jet_order,
                min(stop[1], bounds.prolongation_order),
                max(f.total_degree(), min(stop[0], bounds.degree_bound)),
                bounds.power_bound,
            )
        with patch.object(oracle, "MAX_CANDIDATES", cap):
            search = oracle._Search(f, gens, bounds)
            taken = []
            add = search.echelon.add

            def logging_add(key, vec):
                taken.append(key)
                add(key, vec)

            search.echelon.add = logging_add
            combo, _ = search._find(f)
        ref = Echelon()
        for gi, k, m in taken:
            ref.add((gi, k, m), {m * hm: c for hm, c in gens[gi].derive(k).items()})
        assert combo == ref.solve(f)
        assert combo == search.echelon.solve(f)

    @settings(max_examples=60, deadline=None)
    @given(
        case=staged_cases(),
        cap=st.sampled_from((8, 16, oracle.MAX_CANDIDATES)),
        stop=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 2)),
    )
    def test_find_solves_as_the_reference_echelon(self, case, cap, stop):
        self._check_find(case, cap, stop)

    @settings(max_examples=40, deadline=None)
    @given(
        case=staged_cases(XY_T, t_fractions()),
        cap=st.sampled_from((8, 16, oracle.MAX_CANDIDATES)),
        stop=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 2)),
    )
    def test_find_solves_as_the_reference_echelon_over_qt(self, case, cap, stop):
        self._check_find(case, cap, stop)
