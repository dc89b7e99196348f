"""The expression grammar and the system/component file formats."""

import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from diffalg import (
    Context,
    DerVar,
    QQ,
    QT,
    RankKind,
    Ranking,
)
from diffalg.sysfile import (
    MAX_NESTING,
    MAX_POWER_COEFF_BITS,
    MAX_POWER_PRODUCTS,
    MAX_POWER_T_DEGREE,
    MAX_POWER_TERMS,
    ParseError,
    SysFileError,
    format_components,
    format_ranking,
    parse_components,
    parse_poly,
    parse_ranking,
    parse_system,
)
from diffalg.diffpoly import DiffPoly
from diffalg.sysfile import _power_growth, _power_products

import fraction_reference as ref
from strategies import contexts, diffpolys, small_fractions

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

    def test_power_product_cap(self):
        # (x + y)^9999 has 10,000 terms, inside the term cap, but binary
        # powering would make about 38 million term products
        for e in (9999, 2000):
            start = time.perf_counter()
            with pytest.raises(ParseError, match=f"cap of {MAX_POWER_PRODUCTS} term products"):
                parse_poly(f"(x + y)^{e}", XY)
            assert time.perf_counter() - start < 1.0
        assert _power_products(2, 9999) > MAX_POWER_PRODUCTS
        # the count is exact for binary powering: one square, then 1 x 6
        assert _power_products(3, 2) == 3 * 3 + 1 * 6
        assert parse_poly("(x + y)^400", XY).term_count() == 401
        assert parse_poly("(x - x)^100000", XY).is_zero()

    def test_over_long_integer_literal(self):
        # past Python's 4,300-digit conversion limit, named at the token
        long = "7" * 5000
        with pytest.raises(ParseError, match="integer literal of 5000 digits.*at position 4"):
            P("x + " + long)
        with pytest.raises(ParseError, match="integer literal of 5000 digits.*at position 2"):
            P("x^" + long)
        with pytest.raises(ParseError, match="integer literal of 5000 digits.*at position 3"):
            P("x^(" + long + ")")

    def test_power_size_caps(self):
        # single-term powers are refused from p and e alone, before expansion
        with pytest.raises(ParseError, match=f"cap of {MAX_POWER_COEFF_BITS} coefficient bits"):
            parse_poly("(2)^1000000000000000000", XY)
        with pytest.raises(ParseError, match="MAX_POWER_COEFF_BITS"):
            parse_poly("(3/2*x)^1000000000000000000", XY)
        with pytest.raises(ParseError, match=f"cap of {MAX_POWER_T_DEGREE} in t-degree"):
            parse_poly("t^1000000000000000000", Context(("x",), QT))
        with pytest.raises(ParseError, match="MAX_POWER_T_DEGREE"):
            parse_poly(f"(t*x)^{MAX_POWER_T_DEGREE + 1}", Context(("x",), QT))
        # magnitude 1 does not grow, and powers inside the caps expand
        assert parse_poly("(-x)^100001", XY) == -parse_poly("x^100001", XY)
        assert parse_poly("(2*x)^100", XY) == parse_poly(f"{2 ** 100}*x^100", XY)
        t_top = parse_poly(f"t^{MAX_POWER_T_DEGREE}", Context(("x",), QT))
        assert t_top.constant_value().num[-1] == 1

    def test_power_size_cap_counts_every_denominator(self):
        # three coprime denominators of about 480 bits each: the coefficient
        # of x^e*y^e in the e-th power has a denominator of about e * 1,430
        # bits, far above e times the largest single denominator
        p1, p2, p3 = 3**300, 5**206, 7**170
        src = f"(x^2/{p1} + x*y/{p2} + y^2/{p3})^{{}}"
        with pytest.raises(ParseError, match="MAX_POWER_COEFF_BITS"):
            parse_poly(src.format(20), XY)
        bits, _ = _power_growth(P(f"x^2/{p1} + x*y/{p2} + y^2/{p3}"))
        assert 6 * bits <= MAX_POWER_COEFF_BITS < 7 * bits
        sixth = parse_poly(src.format(6), XY)
        top = max(c.den[0].bit_length() for _, c in sixth.items())
        largest = max(p1, p2, p3).bit_length()
        assert 6 * (largest + 2) < top <= 6 * bits

    def test_power_growth_reads_the_stored_integers(self):
        # a constant denominator adds no number of its own, so coefficients
        # 1/2 and 1/3 give the same estimate over Q and Q(t); reading the
        # denominator's 1 as a number gave (4, 1) over Q(t)
        qt = Context(("x", "y"), QT)
        assert _power_growth(P("x/2 + y/3")) == (3, 0)
        assert _power_growth(parse_poly("t*x/2 + t*y/3", qt)) == (3, 1)
        # 1/(2t + 2) and 1/(t + 1) share one denominator up to a constant
        assert _power_growth(parse_poly("x/(2*t + 2) + y/(t + 1)", qt)) == (3, 1)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_power_growth_bounds_the_expanded_power(self, data):
        ctx = data.draw(contexts(max_vars=2, fields=(QQ, QT)))
        p = data.draw(diffpolys(ctx, max_terms=3))
        t_den = False
        if ctx.field is QT:
            def t_poly():
                cs = data.draw(st.lists(small_fractions(), min_size=1, max_size=3))
                return sum((a * QT.t() ** i for i, a in enumerate(cs)), QT.zero)
            p = p * DiffPoly.const(ctx, t_poly())
            d = t_poly()
            t_den = data.draw(st.booleans()) and bool(d)
            if t_den:
                p = p * DiffPoly.const(ctx, QT.one / d)
        e = data.draw(st.integers(min_value=1, max_value=4))
        bits, tdeg = _power_growth(p)
        for _, c in (p**e).items():
            num, den = ref.view(c)
            assert max(len(num), len(den)) - 1 <= e * tdeg
            rationals = num + den
            if not t_den:  # with a denominator in t the bits are an estimate
                for q in rationals:
                    assert max(abs(q.numerator), q.denominator) <= 2 ** (e * bits)

    def test_precedence(self):
        assert P("2*y*x' - y'") == P("(2*y*x') - (y')")
        assert P("-x^2") == P("-(x^2)")  # tighter power, then negate
        assert P("x - y - x") == P("-y")

    def test_powers_of_numbers(self):
        assert P("x + 2^3") == P("x + 8")
        assert P("-2^2*x") == P("-4*x")  # as -x^2 is -(x^2)

    @pytest.mark.parametrize("src", ["x^2^3", "(x)^(2)", "x'^(2)"])
    def test_malformed_powers_refused(self, src):
        with pytest.raises(ParseError):
            P(src)

    def test_nesting_up_to_the_cap(self):
        deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert P(deep + "^2") == P("x^2")
        with pytest.raises(ParseError, match="MAX_NESTING") as exc:
            P("(" + deep + ")")
        assert exc.value.pos == MAX_NESTING  # the innermost '('

    def test_long_runs_of_unary_minus(self):
        assert P("-" * 5000 + "x") == P("x")
        assert P("y*" + "-" * 5001 + "x'") == P("-y*x'")

    def test_constant_division(self):
        assert P("x/2") == P("1/2*x")
        assert P("x/(2/3)") == P("3/2*x")
        assert P("x/y^0") == P("x") and P("x/(y - y + 2)") == P("x/2")  # constants both

    def test_division_by_polynomial_rejected(self):
        with pytest.raises(ParseError):
            P("x/y")

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            P("x/0")

    @pytest.mark.parametrize(
        "src, field, message",
        [
            ("x/y", QQ, "division is only allowed by constants (at position 1)"),
            ("x/0", QQ, "division by zero (at position 1)"),
            ("x*y/(x - x)", QQ, "division by zero (at position 3)"),
            (
                "x*2^20000",
                QQ,
                f"power ^20000 may exceed the cap of {MAX_POWER_COEFF_BITS} "
                "coefficient bits (MAX_POWER_COEFF_BITS) (at position 4)",
            ),
            (
                "2^20000*x",
                QQ,
                f"power ^20000 may exceed the cap of {MAX_POWER_COEFF_BITS} "
                "coefficient bits (MAX_POWER_COEFF_BITS) (at position 2)",
            ),
            (
                "x*t^1001",
                QT,
                f"power ^1001 may exceed the cap of {MAX_POWER_T_DEGREE} "
                "in t-degree (MAX_POWER_T_DEGREE) (at position 4)",
            ),
            ("x*t'", QT, "t is a field element of Q(t); it takes no primes (at position 3)"),
            ("y*x''''", QQ, "at most three primes; write x^(4) instead (at position 3)"),
            ("x*w", QQ, "unknown variable 'w' (at position 2)"),
            ("3*x^", QQ, "expected an integer, found 'end of input' (at position 4)"),
        ],
    )
    def test_error_text_and_position(self, src, field, message):
        with pytest.raises(ParseError) as exc:
            parse_poly(src, Context(("x", "y"), field))
        assert str(exc.value) == message

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
        assert p.order_of(0) == 1
        assert parse_poly("t*x - x*t", ctx).is_zero()

    def test_t_takes_no_primes_over_qt(self):
        ctx = Context(("x",), QT)
        with pytest.raises(ParseError):
            parse_poly("t'", ctx)

    def test_t_is_an_ordinary_variable_over_q(self):
        ctx = Context(("s", "t", "u"), QQ)
        p = parse_poly("t'^2 + s", ctx)
        assert p.order_of(1) == 1

    @given(st.data())
    @settings(max_examples=100)
    def test_round_trip_random_polys(self, data):
        ctx = data.draw(contexts())
        p = data.draw(diffpolys(ctx, max_order=4))
        assert parse_poly(p.to_text(), ctx) == p


# Expression trees shaped like the grammar, for comparing the parser with
# plain DiffPoly arithmetic.  An expression is a list of (sign, term), a
# term a list of (op, factor), a factor (minus signs, atom, power or None),
# and an atom ("num", n), ("t",), ("jet", var, order) or ("paren", expr).


@st.composite
def _trees(draw, qt, depth, budget):
    """(expression, a bound on its term count): 1-3 terms of 1-3 factors;
    budget is a one-item list counting the parentheses still allowed."""
    terms, bound = [], 0
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        sign = "+" if k == 0 else draw(st.sampled_from("+-"))
        factors, count = [], 1
        for j in range(draw(st.integers(min_value=1, max_value=3))):
            op = "*" if j == 0 else draw(st.sampled_from("*/"))
            factor, n = draw(_factor_trees(qt, depth, budget, op == "/"))
            factors.append((op, factor))
            count *= n
        terms.append((sign, factors))
        bound += count
    return terms, bound


@st.composite
def _factor_trees(draw, qt, depth, budget, divisor):
    """(factor, a bound on its term count).  A divisor is a nonzero
    constant: a positive number, t, or a parenthesised sum of those, any of
    them powered and negated.  Only a parenthesised sum of at most 12 terms
    is squared, so no power cap is reached."""
    kinds = ["num"] + ["t"] * qt
    if not divisor:
        kinds.append("jet")
    if depth and budget[0]:
        kinds.append("paren")
    kind = draw(st.sampled_from(kinds))
    n = 1
    if kind == "num":
        atom = ("num", draw(st.integers(min_value=1 if divisor else 0, max_value=12)))
    elif kind == "t":
        atom = ("t",)
    elif kind == "jet":
        atom = ("jet", draw(st.integers(min_value=0, max_value=1)), draw(st.integers(min_value=0, max_value=5)))
    else:
        budget[0] -= 1
        if divisor:
            sums = st.tuples(st.just(0), st.sampled_from([("t",)] * qt + [("num", 1), ("num", 3)]), st.none())
            expr = [("+", [("*", f)]) for f in draw(st.lists(sums, min_size=1, max_size=3))]
        else:
            expr, n = draw(_trees(qt, depth - 1, budget))
        atom = ("paren", expr)
    top = 3 if kind != "paren" else 2 if n <= 12 else 1
    power = draw(st.none() | st.integers(min_value=0, max_value=top))
    if power is not None:
        n = n * (n + 1) // 2 if power == 2 else n if power else 1
    return (draw(st.integers(min_value=0, max_value=3)), atom, power), n


def _render(expr) -> str:
    out = []
    for k, (sign, term) in enumerate(expr):
        if k:
            out.append(f" {sign} ")
        for j, (op, (minus, atom, power)) in enumerate(term):
            if j:
                out.append(op)
            out.append("-" * minus)
            if atom[0] == "num":
                out.append(str(atom[1]))
            elif atom[0] == "t":
                out.append("t")
            elif atom[0] == "jet":
                _, var, order = atom
                out.append("xy"[var] + ("'" * order if order <= 3 else f"^({order})"))
            else:
                out.append(f"({_render(atom[1])})")
            if power is not None:
                out.append(f"^{power}")
    return "".join(out)


def _arithmetic(expr, ctx) -> DiffPoly:
    """The tree's polynomial by DiffPoly + - * ** scale, one factor and one
    term at a time, left to right."""
    p = None
    for sign, term in expr:
        q = None
        for op, (minus, atom, power) in term:
            if atom[0] == "num":
                f = DiffPoly.const(ctx, QQ.from_fraction(atom[1]))
            elif atom[0] == "t":
                f = DiffPoly.const(ctx, QT.t())
            elif atom[0] == "jet":
                f = DiffPoly.var(ctx, atom[1], atom[2])
            else:
                f = _arithmetic(atom[1], ctx)
            if power is not None:
                f = f**power
            if minus % 2:
                f = -f
            if q is None:
                q = f
            elif op == "*":
                q = q * f
            else:
                q = q.scale(ctx.field.one / f.constant_value())
        p = q if p is None else p + q if sign == "+" else p - q
    return p


class TestTermParser:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_parser_agrees_with_diffpoly_arithmetic(self, data):
        field = data.draw(st.sampled_from((QQ, QT)))
        ctx = Context(("x", "y"), field)
        tree, _ = data.draw(_trees(field is QT, 4, [6]))
        expected = _arithmetic(tree, ctx)
        p = parse_poly(_render(tree), ctx)
        assert p == expected
        assert list(p.items()) == list(expected.items())  # the same term order

    def test_flat_system_makes_no_polynomial_product(self, monkeypatch):
        calls = []
        mul = DiffPoly.__mul__
        monkeypatch.setattr(DiffPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        sf = parse_system(
            "field: Q\nvars: x1, x2, x3\nranking: elim x1 > x2 > x3\n"
            "eq u1 = -3*x1^2 + 1/2*x2'''\n"
            "eq u2 = 5*x3'^2*x1 - 5/2*x2^(4) - x1'*x3 + 7\n"
            "point p: x1 = 2^3, x2 = -1/4, x3 = 0\n"
        )
        assert len(calls) == 0
        assert sf.equation("u1") == parse_poly("x2''' / 2 - 3*x1*x1", sf.context)
        parse_poly("(x1 + x2)*(x1 - x2)", sf.context)  # parenthesised factors multiply
        assert len(calls) == 1


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


def point_value(src, field="Q"):
    """The value of x at the point ``p: x = SRC, y = 0`` of a system over
    FIELD in x and y."""
    sf = parse_system(
        f"field: {field}\nvars: x, y\nranking: elim x > y\neq u = x' + y\n"
        f"point p: x = {src}, y = 0\n"
    )
    return sf.point("p").value(DerVar(0, 0))


class TestConstants:
    """Constants are point values, read through ``parse_system``."""

    def test_rational(self):
        assert point_value("-3/4") == QQ.from_fraction(Fraction(-3, 4))
        assert point_value("(1 + 2)^2") == QQ.from_fraction(Fraction(9))
        assert point_value("0") == QQ.zero and not point_value("2 - 2")

    def test_rational_function(self):
        assert point_value("t^2 + 1", "Q(t)") == QT.t() * QT.t() + QT.one

    def test_nonconstant_rejected(self):
        with pytest.raises(SysFileError) as exc:
            point_value("t + x", "Q(t)")
        assert str(exc.value) == "line 5: the value of 'x' is not a constant"


class TestSystemFiles:
    def test_parse(self):
        sf = parse_system(SYSTEM)
        assert sf.context.names == ("x", "y")
        assert sf.context.field is QQ
        assert [nm for nm, _ in sf.equations] == ["u1", "u2"]
        assert sf.equation("u1") == P("x'' + y")
        assert sf.point("p0").value(DerVar(0, 0)) == QQ.zero

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

    def test_point_values_parse_like_equations(self):
        assert point_value("2^3") == QQ.from_fraction(Fraction(8))
        assert point_value("y - y + 1") == QQ.one  # the system's variables, cancelling

    def test_point_value_sees_only_the_systems_variables(self):
        with pytest.raises(SysFileError, match="unknown variable '__scratch'"):
            point_value("__scratch")

    def test_point_variable_assigned_twice(self):
        with pytest.raises(SysFileError) as exc:
            parse_system(SYSTEM.replace("point p0: x = 0", "point p0: x = 1, x = 0"))
        assert str(exc.value) == "line 7: variable 'x' is assigned twice"

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

    def test_system_file_with_component_blocks_is_refused(self):
        # components live in component files only; line 9 opens the block
        with pytest.raises(SysFileError, match="line 9: duplicate 'ranking:' line"):
            parse_system(SYSTEM + "\n" + COMPONENTS)
        without_ranking = COMPONENTS.replace("ranking: elim x > y\n", "")
        with pytest.raises(SysFileError, match='line 9: cannot understand "charset: '):
            parse_system(SYSTEM + "\n" + without_ranking)
