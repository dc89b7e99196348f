"""The expression grammar and the system/component file formats."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from diffalg import (
    Context,
    Convention,
    DerVar,
    QQ,
    QT,
    RankKind,
    Ranking,
)
from diffalg.sysfile import (
    MAX_POWER_TERMS,
    ParseError,
    SysFileError,
    format_components,
    format_ranking,
    format_system,
    parse_components,
    parse_constant,
    parse_poly,
    parse_ranking,
    parse_system,
)

from conftest import contexts, diffpolys

XY = Context(("x", "y"), QQ)


def P(src, ctx=XY):
    return parse_poly(src, ctx)


class TestExpressions:
    def test_primes_and_caret_derivatives(self):
        assert P("x'''") == P("x^(3)")
        assert P("x^(4)").dervars() == (DerVar(0, 4),)
        assert P("x") == P("x^(0)")

    def test_powers(self):
        assert P("x'^2") == P("x'*x'")
        assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
        assert P("x^(4)^2") == P("x^(4)*x^(4)")

    def test_power_expansion_cap(self):
        # a monomial or constant power has one term, however high
        assert parse_poly("x^1000", XY).term_count() == 1
        assert parse_poly("(2*x*y')^50", XY).term_count() == 1
        # (x + 1)^e has C(e + 1, e) = e + 1 terms
        with pytest.raises(ParseError, match=f"cap of {MAX_POWER_TERMS} terms"):
            parse_poly(f"(x + 1)^{MAX_POWER_TERMS}", XY)

    def test_precedence(self):
        assert P("2*y*x' - y'") == P("(2*y*x') - (y')")
        assert P("-x^2") == P("-(x^2)")  # tighter power, then negate
        assert P("x - y - x") == P("-y")

    def test_constant_division(self):
        assert P("x/2") == P("1/2*x")
        assert P("x/(2/3)") == P("3/2*x")

    def test_division_by_polynomial_rejected(self):
        with pytest.raises(ParseError):
            P("x/y")

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            P("x/0")

    def test_four_primes_direct_to_caret_form(self):
        with pytest.raises(ParseError, match=r"\^\(4\)"):
            P("x''''")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            P("w + x")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            P("x + ")
        with pytest.raises(ParseError):
            P("x y")

    def test_t_is_a_scalar_over_qt(self):
        ctx = Context(("x",), QT)
        p = parse_poly("t^2*x' - t", ctx)
        assert p.order_of(0, Convention.MAX_PLUS) == 1
        assert parse_poly("t*x - x*t", ctx).is_zero()

    def test_t_takes_no_primes_over_qt(self):
        ctx = Context(("x",), QT)
        with pytest.raises(ParseError):
            parse_poly("t'", ctx)

    def test_t_is_an_ordinary_variable_over_q(self):
        ctx = Context(("s", "t", "u"), QQ)
        p = parse_poly("t'^2 + s", ctx)
        assert p.order_of(1, Convention.MAX_PLUS) == 1

    @given(st.data())
    @settings(max_examples=100)
    def test_round_trip_random_polys(self, data):
        ctx = data.draw(contexts())
        p = data.draw(diffpolys(ctx, max_order=4))
        assert parse_poly(p.to_text(), ctx) == p


class TestConstants:
    def test_rational(self):
        assert parse_constant("-3/4", QQ) == Fraction(-3, 4)
        assert parse_constant("(1 + 2)^2", QQ) == Fraction(9)

    def test_rational_function(self):
        c = parse_constant("t^2 + 1", QT)
        assert c == QT.t() * QT.t() + QT.one

    def test_nonconstant_rejected(self):
        with pytest.raises(ParseError):
            parse_constant("t + x", QT)


class TestRankings:
    def test_elim_chain(self):
        rk = parse_ranking("elim x > y", XY)
        assert rk.kind is RankKind.ELIMINATION
        assert rk.key(DerVar(0, 0)) > rk.key(DerVar(1, 5))

    def test_orderly_chain(self):
        rk = parse_ranking("orderly y > x", XY)
        assert rk.kind is RankKind.ORDERLY
        assert rk.key(DerVar(1, 2)) > rk.key(DerVar(0, 2))

    def test_chain_must_cover_all_variables(self):
        with pytest.raises(ParseError):
            parse_ranking("elim x", XY)
        with pytest.raises(ParseError):
            parse_ranking("elim x > y > x", XY)

    def test_format_round_trip(self):
        for src in ("elim x > y", "orderly y > x"):
            rk = parse_ranking(src, XY)
            assert format_ranking(rk, XY) == src
            assert parse_ranking(format_ranking(rk, XY), XY) == rk


SYSTEM = """\
# a worked example
field: Q
vars: x, y
ranking: elim x > y
eq u1 = x'' + y
eq u2 = x'^2 + y
point p0: x = 0, y = 0
"""


class TestSystemFiles:
    def test_parse(self):
        sf = parse_system(SYSTEM)
        assert sf.context.names == ("x", "y")
        assert sf.context.field is QQ
        assert [nm for nm, _ in sf.equations] == ["u1", "u2"]
        assert sf.equation("u1") == P("x'' + y")
        assert sf.point("p0").value(DerVar(0, 0)) == Fraction(0)

    def test_format_round_trip(self):
        sf = parse_system(SYSTEM)
        again = parse_system(format_system(sf))
        assert again.equations == sf.equations
        assert again.ranking == sf.ranking

    def test_qt_field(self):
        sf = parse_system(
            "field: Q(t)\nvars: x, y\nranking: elim x > y\neq f = x' + t*y\n"
        )
        assert sf.context.field is QT

    def test_missing_sections(self):
        with pytest.raises(SysFileError, match="field"):
            parse_system("vars: x\nranking: elim x\neq u = x\n")
        with pytest.raises(SysFileError, match="ranking"):
            parse_system("field: Q\nvars: x\neq u = x\n")
        with pytest.raises(SysFileError, match="at least one"):
            parse_system("field: Q\nvars: x\nranking: elim x\n")

    def test_duplicate_equation_names(self):
        with pytest.raises(SysFileError, match="duplicate"):
            parse_system(
                "field: Q\nvars: x\nranking: elim x\neq u = x\neq u = x'\n"
            )

    def test_zero_equation_rejected(self):
        with pytest.raises(SysFileError, match="zero"):
            parse_system("field: Q\nvars: x\nranking: elim x\neq u = x - x\n")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(SysFileError, match="line 4"):
            parse_system("field: Q\nvars: x\nranking: elim x\neq u = x +\n")

    def test_unknown_line_rejected(self):
        with pytest.raises(SysFileError):
            parse_system(SYSTEM + "frobnicate: 3\n")


COMPONENTS = """\
ranking: elim x > y
charset: y^3 + 1/4*y'^2; x'*y - 1/2*y'
ineqs: y; y'
prime: no

ranking: elim x > y
charset: y; x'
ineqs: (none)
prime: no
"""


class TestComponentFiles:
    def test_parse(self):
        comps = parse_components(COMPONENTS, XY)
        assert len(comps) == 2
        assert len(comps[0].inequations) == 2
        assert comps[1].inequations == ()

    def test_format_round_trip(self):
        comps = parse_components(COMPONENTS, XY)
        text = format_components(comps, XY)
        again = parse_components(text, XY)
        assert [c.to_text() for c in again] == [c.to_text() for c in comps]

    def test_default_ranking_fills_in(self):
        rk = Ranking.elimination(2, [0, 1])
        comps = parse_components("charset: y; x'\n", XY, rk)
        assert comps[0].ranking == rk

    def test_no_ranking_anywhere_fails(self):
        with pytest.raises(SysFileError, match="ranking"):
            parse_components("charset: y; x'\n", XY)

    def test_invalid_component_content_fails(self):
        # not autoreduced: file is well-formed, content is not a component
        with pytest.raises(SysFileError):
            parse_components("ranking: elim x > y\ncharset: x'; x'' + y\n", XY)

    def test_system_file_may_carry_components(self):
        sf = parse_system(SYSTEM + "\n" + COMPONENTS)
        assert len(sf.components) == 2
        # and they survive a full format/parse cycle
        again = parse_system(format_system(sf))
        assert len(again.components) == 2
