"""The truncated ideal-membership oracle: exact span solving over prolonged
generators, honest Inconclusive answers, and radical search."""

from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from diffalg import (
    Context,
    DiffPoly,
    MembershipWitness,
    Monomial,
    OracleVerdict,
    QQ,
    QT,
    TruncationBounds,
    oracle,
    radical_member,
    truncated_member,
    verify_witness,
)
from diffalg.sysfile import parse_poly

from strategies import diffpolys, monomials, small_fractions

X1 = Context(("x",), QQ)
XY = Context(("x", "y"), QQ)


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
        w = radical_member(P("x^5"), [P("x^2")], TruncationBounds(0, 0, 3, 2))
        assert w.diagnostic == (
            "no power tried: the degree bound 3 stops the search at f^1 (degree 5)"
        )

    def test_cusp_builds_each_candidate_once(self, monkeypatch):
        """Work gate: a rebuild of the candidates per stage or per power
        makes 65,333 products here."""
        gens = [parse_poly("y^2 - x^3", XY), parse_poly("x'", XY)]
        f = parse_poly("y'", XY)
        products = 0
        mul = DiffPoly.__mul__

        def counting_mul(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(DiffPoly, "__mul__", counting_mul)
        w = radical_member(f, gens, TruncationBounds())
        monkeypatch.undo()
        assert w.is_member() and w.power == 3
        assert verify_witness(f, gens, w)
        assert products <= 4000


class TestQtCoefficients:
    def test_member_with_t_in_the_combination(self):
        ctx = Context(("x",), QT)
        g = parse_poly("x'", ctx)
        f = parse_poly("t*x'' + x'", ctx)  # = d(t * x') = t*x'' + x'
        w = truncated_member(f, [g], TruncationBounds(2, 2, 2, 1))
        assert w.is_member()
        assert verify_witness(f, [g], w)


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


def _homogeneous(gens):
    return all(len({(m.degree(), m.weight()) for m in g.monomials()}) == 1 for g in gens)


@st.composite
def staged_cases(draw):
    """Two or three non-homogeneous generators over Q in x, y and a query:
    either a planted combination sum c * m * d^k(g_i) or an arbitrary
    polynomial, with bounds that contain the planted summands."""
    gens = draw(st.lists(diffpolys(XY, max_order=1, max_degree=2, max_terms=3), min_size=2, max_size=3))
    assume(all(not g.is_zero() for g in gens) and not _homogeneous(gens))
    max_k = draw(st.integers(min_value=0, max_value=2))
    if draw(st.booleans()):
        f = DiffPoly.zero(XY)
        degree = 0
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            gi = draw(st.integers(min_value=0, max_value=len(gens) - 1))
            k = draw(st.integers(min_value=0, max_value=max_k))
            m = draw(monomials(XY, max_order=1, max_degree=1, max_factors=1))
            c = draw(small_fractions())
            h = gens[gi].derive(k)
            f = f + h * DiffPoly.from_terms(XY, [(m, c)])
            degree = max(degree, h.total_degree() + m.degree())
    else:
        f = draw(diffpolys(XY, max_order=1, max_degree=2, max_terms=3))
        degree = f.total_degree()
    assume(not f.is_zero())
    degree = max(degree, f.total_degree()) + draw(st.integers(min_value=0, max_value=1))
    bounds = TruncationBounds(f.max_order(), max_k, min(degree, 4), draw(st.integers(min_value=1, max_value=3)))
    assume(f.total_degree() <= bounds.degree_bound)
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

    @settings(max_examples=60, deadline=None)
    @given(case=staged_cases(), cap=st.sampled_from((8, 16, oracle.MAX_CANDIDATES)))
    def test_truncated_member(self, case, cap):
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
