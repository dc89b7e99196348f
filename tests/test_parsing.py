"""The expression grammar and the system/component file formats."""

import time
from fractions import Fraction
from math import comb
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from diffalg import (
    Context,
    DerVar,
    Monomial,
    QQ,
    QT,
    RankKind,
    Ranking,
    RatFunc,
)
from diffalg.reduction import MAX_COEFF_BITS, MAX_TERMS, MAX_WORK
from diffalg.sysfile import (
    MAX_NESTING,
    MAX_POWER_T_DEGREE,
    ParseError,
    SysFileError,
    format_components,
    format_ranking,
    parse_components,
    parse_poly,
    parse_ranking,
    parse_system,
)
import diffalg.reduction
import diffalg.sysfile
from diffalg.diffpoly import DiffPoly
from diffalg.sysfile import _power_growth, _power_products

import fraction_reference as ref
from reference_engines import reference_parse_poly
from strategies import contexts, diffpolys, small_fractions, small_rationals

XY = Context(("x", "y"), QQ)
ELIM_XY = Ranking.elimination(2, [0, 1])  # elim x > y


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
        with pytest.raises(ParseError) as exc:
            parse_poly(f"(x + 1)^{MAX_TERMS}", XY)
        assert str(exc.value) == (
            f"power ^{MAX_TERMS} of a 2-term polynomial may exceed the cap of "
            f"{MAX_TERMS} terms (MAX_TERMS) (at position 8)"
        )

    def test_power_product_cap(self):
        # (x + y)^9999 has 10,000 terms, inside the term cap, but binary
        # powering would make about 38 million term products; each power
        # is charged its products before it is expanded, against MAX_WORK
        for e, pairs in ((9999, 38_146_306), (2000, 1_656_818)):
            start = time.perf_counter()
            with pytest.raises(ParseError) as exc:
                parse_poly(f"(x + y)^{e}", XY)
            assert time.perf_counter() - start < 1.0
            assert str(exc.value) == (
                f"power ^{e} of a 2-term polynomial would bring the reader's work to "
                f"{pairs} term pairs, over the budget MAX_WORK = {MAX_WORK} (at position 8)"
            )
            assert _power_products(2, e) == pairs
        # (x + y)^1614 is the largest power of a binomial inside the budget
        assert _power_products(2, 1614) <= MAX_WORK < _power_products(2, 1615)
        # the count is exact for binary powering: one square, which is the power
        assert _power_products(3, 2) == 3 * 3
        assert parse_poly("(x + y)^400", XY).term_count() == 401
        assert parse_poly("(x - x)^100000", XY).is_zero()

    def test_power_products_match_the_products_made(self, monkeypatch):
        # binary powering starts the running product at the power of the
        # lowest set bit: p ** k makes one product per squaring and one per
        # further set bit, none with 1; a sum of n distinct jets has
        # C(n + j - 1, j) terms in its j-th power, so the term pairs made
        # are what _power_products counts
        made = {"products": 0, "pairs": 0}
        real_mul = DiffPoly.__mul__

        def mul(a, b):
            made["products"] += 1
            made["pairs"] += a.term_count() * b.term_count()
            return real_mul(a, b)

        monkeypatch.setattr(DiffPoly, "__mul__", mul)
        jets = ("x", "y", "x'", "y'")
        for k, products in enumerate((0, 0, 1, 2, 2, 3, 3, 4, 3)):
            for n in range(1, len(jets) + 1):
                p = P(" + ".join(jets[:n]))
                made.update(products=0, pairs=0)
                power = p**k
                assert made["products"] == products
                assert made["pairs"] == _power_products(n, k)
                assert power.term_count() == comb(n + k - 1, k)

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
        with pytest.raises(ParseError, match=rf"cap of {MAX_COEFF_BITS} coefficient bits \(MAX_COEFF_BITS\)"):
            parse_poly("(2)^1000000000000000000", XY)
        with pytest.raises(ParseError, match="MAX_COEFF_BITS"):
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
        for e in (3, 20):
            with pytest.raises(ParseError, match="MAX_COEFF_BITS"):
                parse_poly(src.format(e), XY)
        bits, _ = _power_growth(P(f"x^2/{p1} + x*y/{p2} + y^2/{p3}"))
        assert 2 * bits <= MAX_COEFF_BITS < 3 * bits
        square = parse_poly(src.format(2), XY)
        top = max(c.den[0].bit_length() for _, c in square.items())
        largest = max(p1, p2, p3).bit_length()
        assert 2 * (largest + 2) < top <= 2 * bits

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
                f"power ^20000 may exceed the cap of {MAX_COEFF_BITS} "
                "coefficient bits (MAX_COEFF_BITS) (at position 4)",
            ),
            (
                "2^20000*x",
                QQ,
                f"power ^20000 may exceed the cap of {MAX_COEFF_BITS} "
                "coefficient bits (MAX_COEFF_BITS) (at position 2)",
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
            ("x'^(2)", QQ, "expected an integer, found '(' (at position 3)"),
            ("x^2^3", QQ, "unexpected trailing '^' (at position 3)"),
            ("+x", QQ, "unexpected '+' (at position 0)"),
            # digits and whitespace are ASCII only
            ("x^(\u0663) + \uff11\uff12", QQ, "unexpected character '\u0663' (at position 3)"),
            ("x + \u0661", QQ, "unexpected character '\u0661' (at position 4)"),
            ("x +\u00a0y", QQ, "unexpected character '\\xa0' (at position 3)"),
            ("x*\u20032", QQ, "unexpected character '\\u2003' (at position 2)"),
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

    @pytest.mark.parametrize(
        "src, same_as",
        [
            ("x '", "x'"),
            ("x ^ ( 4 )", "x^(4)"),
            ("x^ (2)", "x''"),
            ("2 ^ 3 * x", "8*x"),
            ("- - x", "x"),
            ("x*-y", "-x*y"),
            ("(x)^0", "1"),
        ],
    )
    def test_spellings_read_alike(self, src, same_as):
        assert P(src) == P(same_as)

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


def _chain(k: int) -> str:
    """k parenthesised sums of four terms multiplied together, each factor 17
    characters with its '*': the product of the first j has C(j + 3, 3)
    terms, so multiplying in the next factor makes 4 * C(j + 3, 3) term
    pairs."""
    return "*".join(f"(x + y + x' + {i})" for i in range(1, k + 1))


class TestReaderWork:
    """The reader charges the term pairs of each product of parenthesised
    factors and of each power to one count per file, before it makes them,
    against reduction.MAX_WORK; a product or power past reduction.MAX_TERMS
    terms is refused."""

    def test_a_product_chain_stops_at_the_product_that_crosses_the_count(self, monkeypatch):
        # the products make 16, 40, 80 and 140 term pairs: 56 after the
        # third factor, 136 after the fourth and 276 after the fifth
        src = _chain(6)
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 100)
        with pytest.raises(ParseError) as exc:
            P(src)
        assert str(exc.value) == (
            "product of a 20-term and a 4-term polynomial would bring the reader's work to "
            "136 term pairs, over the budget MAX_WORK = 100 (at position 51)"
        )
        assert exc.value.pos == src.index("(x + y + x' + 4)")
        assert _reading(reference_parse_poly, src, XY) == str(exc.value)
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 136)
        with pytest.raises(ParseError) as exc:
            P(src)
        assert str(exc.value) == (
            "product of a 35-term and a 4-term polynomial would bring the reader's work to "
            "276 term pairs, over the budget MAX_WORK = 136 (at position 68)"
        )
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 276)
        assert P(_chain(5)).term_count() == comb(5 + 3, 3)

    def test_a_power_and_the_products_after_it_share_the_count(self, monkeypatch):
        # (x + y)^3 is charged _power_products(2, 3) = 2 * 2 + 2 * 3 = 10
        # term pairs, and its product with (x + 1) 4 * 2 = 8 more
        src = "(x + y)^3*(x + 1)"
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 17)
        with pytest.raises(ParseError, match=r"^product of a 4-term and a 2-term .* 18 term pairs, .* = 17 \(at position 10\)$"):
            P(src)
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 18)
        assert P(src).term_count() == 8
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 9)
        with pytest.raises(ParseError, match=r"^power \^3 of a 2-term .* 10 term pairs, .* = 9 \(at position 8\)$"):
            P(src)

    def test_a_file_keeps_one_count_for_all_its_expressions(self, monkeypatch):
        # each equation makes 16 + 40 = 56 term pairs: one passes a budget
        # of 100, and the file's second crosses it at its third factor
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 100)
        eq = _chain(3)
        head = "field: Q\nvars: x, y\nranking: elim x > y\n"
        assert P(eq) == P(eq)  # parse_poly starts a fresh count each time
        one = parse_system(f"{head}eq u1 = {eq}\neq u2 = y\n")
        assert one.equation("u1") == P(eq)
        with pytest.raises(SysFileError) as exc:
            parse_system(f"{head}eq u1 = {eq}\neq u2 = y\neq u3 = {eq}\n")
        assert str(exc.value) == (
            "line 6: product of a 10-term and a 4-term polynomial would bring the reader's "
            "work to 112 term pairs, over the budget MAX_WORK = 100 (at position 34)"
        )
        # a component file keeps one count too, across its blocks
        with pytest.raises(SysFileError, match=r"^line 3: product .* 112 term pairs"):
            parse_components(f"charset: {eq}\n\ncharset: {eq}\n", XY, ELIM_XY)

    def test_a_product_over_the_term_cap_is_refused_as_a_power_is(self, monkeypatch):
        # 101 by 101 distinct jets make 10,201 terms from as many term pairs
        xs = " + ".join(f"x^({k})" for k in range(101))
        ys = xs.replace("x", "y")
        src = f"({xs})*({ys})"
        with pytest.raises(ParseError) as exc:
            P(src)
        assert str(exc.value) == (
            f"product of a 101-term and a 101-term polynomial has 10201 terms, over the cap of "
            f"{MAX_TERMS} terms (MAX_TERMS) (at position {len(xs) + 3})"
        )
        assert _reading(reference_parse_poly, src, XY) == str(exc.value)
        # under a cap of 5 terms, (x + y + 1)^2 and the product it expands
        # to are both refused, and (x + y)*(x + y + 1) passes
        monkeypatch.setattr(diffalg.reduction, "MAX_TERMS", 5)
        for src, message in (
            ("(x + y + 1)^2", "power ^2 of a 3-term polynomial may exceed the cap of 5 terms (MAX_TERMS) (at position 12)"),
            (
                "(x + y + 1)*(x + y + 1)",
                "product of a 3-term and a 3-term polynomial has 6 terms, over the cap of 5 terms "
                "(MAX_TERMS) (at position 12)",
            ),
        ):
            assert _reading(parse_poly, src, XY) == message == _reading(reference_parse_poly, src, XY)
        assert P("(x + y)*(x + y + 1)").term_count() == 5


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

    def test_flat_system_of_forty_scans_each_expression_once(self, monkeypatch):
        n = 40
        names = [f"x{i}" for i in range(1, n + 1)]
        lines = ["field: Q", f"vars: {', '.join(names)}", f"ranking: elim {' > '.join(names)}"]
        lines += [f"eq u{i} = {i}/2*x{i}'^2 - 3*x{i % n + 1}'' + x{i}^(4) - {i} - 3*x1'" for i in range(1, n + 1)]
        lines.append("point p: " + ", ".join(f"x{i} = -{i}/3" for i in range(1, n + 1)))
        products, scans, monomials, coefficients = [], [], [], []
        mul, scan = DiffPoly.__mul__, diffalg.sysfile._scan
        mono_init, coeff_init = Monomial.__init__, RatFunc.__init__
        monkeypatch.setattr(DiffPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        monkeypatch.setattr(diffalg.sysfile, "_scan", lambda src, ctx, t: scans.append(src) or scan(src, ctx, t))
        monkeypatch.setattr(Monomial, "__init__", lambda m, fs: monomials.append(fs) or mono_init(m, fs))
        monkeypatch.setattr(RatFunc, "__init__", lambda q, a, b: coefficients.append((a, b)) or coeff_init(q, a, b))
        text = "\n".join(lines) + "\n"
        sf = parse_system(text)
        assert products == []
        assert len(scans) == 2 * n  # one per equation and one per value of the point
        # Each distinct jet and coefficient is built once for the file: the
        # jets x_i'^2, x_j'' and x_i^(4) of each i and the x1' of every
        # equation (3 * 40 + 1), and the coefficients i/2 (39: 2/2 is 1,
        # which is never built), the -3 of every x_j'' and x1', the
        # constants -i (39 more: - 3 is spelled as that -3) and the point's
        # -i/3 (40).
        assert len(monomials) == len(set(monomials)) == 3 * n + 1
        assert len(coefficients) == 39 + 1 + 39 + 40
        # nothing outlives the file: a second read builds them all again
        parse_system(text)
        assert len(monomials) == 2 * (3 * n + 1) and len(coefficients) == 2 * 119
        monkeypatch.undo()
        assert sf.equation("u40") == parse_poly("20*x40'*x40' - 3*x1'' + x40^(4) - 40 - 3*x1'", sf.context)


# Strings over the grammar's tokens, well-formed or not, for comparing the
# reader with the token-by-token parser of tests/reference_engines.py.

_LONG = "7" * 4301  # one digit past Python's limit on integer-string conversion
_SPACE = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def _plain_terms(draw):
    """A term of the shape the reader takes in one match, a[/b]*NAME, NAME
    or a[/b], with its primes and power, and a blank or none at every spot
    a blank may go.  The integers are multi-digit, zero, 640 digits (the
    most that match whole) or more, primes number 1 to 4, and exponents
    are 0, 1, 1001, 641 digits and past Python's limit, so that every way
    out of the one match is drawn too."""
    sp = lambda: draw(_SPACE)
    term = ""
    if draw(st.integers(min_value=0, max_value=3)):
        term += draw(st.sampled_from(["1", "2", "12", "345", "007", "0", "00", "9" * 640, "9" * 641, _LONG]))
        if draw(st.booleans()):
            term += sp() + "/" + sp() + draw(st.sampled_from(["1", "3", "10", "0004", "0", "000", "9" * 641, _LONG]))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            return term
        term += sp() + "*" + sp()
    term += draw(st.sampled_from(["x", "y", "x", "y", "t", "w"]))
    k = draw(st.integers(min_value=0, max_value=4))
    if k:
        term += sp() + "'" * k
    if draw(st.booleans()):
        term += sp() + "^" + sp() + draw(st.sampled_from(["0", "1", "2", "1001", "9" * 641, _LONG]))
    return term


@st.composite
def _plain_sums(draw):
    """Plain terms joined by '+' and '-', each with blanks or none around
    its sign, the sum now and then inside ( ... ), powered or multiplied."""
    sp = lambda: draw(_SPACE)
    src = draw(st.sampled_from(["", "", "-", "+"])) + sp() + draw(_plain_terms())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        src += sp() + draw(st.sampled_from(["+", "-", "- ", ""])) + sp() + draw(_plain_terms())
    if draw(st.booleans()):
        src = sp() + "(" + sp() + src + sp() + ")" + draw(st.sampled_from(["", "^2", "*y", " - x'", "/2"]))
    return src + sp()


@st.composite
def _operands(draw):
    """A number, t or a jet, with primes, a ``^(k)`` or a power, spaced at
    random; now and then a spelling the grammar refuses, or a plain term."""
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return draw(_plain_terms())
    sp = draw(_SPACE)
    atom = draw(st.sampled_from(["0", "1", "2", "3", "12", "x", "y", "x", "y", "t", "t", "w"]))
    if atom.isalpha() and draw(st.booleans()):
        if draw(st.booleans()):
            atom += sp + "'" * draw(st.integers(min_value=1, max_value=4))
        else:
            k = draw(st.sampled_from(["0", "2", "4", "", _LONG]))
            atom += f"{sp}^{sp}({sp}{k}{draw(st.sampled_from([')', ')', '']))}"
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        atom += sp + "^" + sp + draw(st.sampled_from(["0", "1", "2", "3", "(2)", "", "1001", "20000", _LONG]))
    return atom


@st.composite
def _spellings(draw):
    """Terms of factors joined by operators, with runs of unary minus,
    parentheses (balanced or not, powered or not) and stray tokens, every
    token followed by random whitespace."""
    parts, depth = [], 0
    for k in range(draw(st.integers(min_value=1, max_value=7))):
        if k:
            parts.append(draw(st.sampled_from(["+", "-", "*", "/", "+", "-", "*", "/", "/0*", "*-", "- -"])))
        parts.append("-" * draw(st.integers(min_value=0, max_value=3)))
        opens = draw(st.integers(min_value=0, max_value=2))
        parts.append("(" * opens)
        depth += opens
        parts.append(draw(_operands()))
        closes = draw(st.integers(min_value=0, max_value=depth))
        depth -= closes
        if closes:
            parts.append(")" * closes + draw(st.sampled_from(["", "", "^2", "^0", "^(2)", "^1001", "^20000"])))
    parts.append(")" * draw(st.sampled_from([depth, depth, max(depth - 1, 0), depth + 1])))
    if draw(st.integers(min_value=0, max_value=5)) == 0:  # a stray token
        at = draw(st.integers(min_value=0, max_value=len(parts)))
        parts.insert(at, draw(st.sampled_from(["+", "*", ")", "(", ",", "=", ">", "^", "'", "$", "x", "7", _LONG])))
    return "".join(part + draw(_SPACE) for part in parts)


@st.composite
def _deep_spellings(draw):
    """An operand nested MAX_NESTING deep or one level more, closed or not."""
    depth = draw(st.sampled_from([MAX_NESTING, MAX_NESTING + 1]))
    closes = draw(st.sampled_from([depth, depth - 1]))
    return "(" * depth + draw(_operands()) + ")" * closes + draw(st.sampled_from(["", "^2", " * y"]))


def _reading(read, src, ctx):
    """The terms in order, or the refusal with its text and position."""
    try:
        return list(read(src, ctx).items())
    except ParseError as exc:
        return str(exc)


class TestAgainstTheReferenceParser:
    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_reader_agrees_with_the_token_by_token_parser(self, data):
        ctx = Context(("x", "y"), data.draw(st.sampled_from((QQ, QT))))
        src = data.draw(st.one_of(_spellings(), _deep_spellings(), _plain_sums(), _trees(ctx.field is QT, 3, [4]).map(
            lambda tree: _render(tree[0]))))
        assert _reading(parse_poly, src, ctx) == _reading(reference_parse_poly, src, ctx)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_small_caps_stop_both_readers_alike(self, data):
        # the work count, the term cap and the bit cap refuse the same
        # factor with the same message
        ctx = Context(("x", "y"), data.draw(st.sampled_from((QQ, QT))))
        src = data.draw(st.one_of(_spellings(), _plain_sums(), _trees(ctx.field is QT, 3, [4]).map(
            lambda tree: _render(tree[0]))))
        work = data.draw(st.sampled_from((1, 4, 12, 40)))
        terms = data.draw(st.sampled_from((1, 3, 6, 10_000)))
        bits = data.draw(st.sampled_from((4, 4096)))
        with patch.multiple(diffalg.reduction, MAX_WORK=work, MAX_TERMS=terms, MAX_COEFF_BITS=bits):
            assert _reading(parse_poly, src, ctx) == _reading(reference_parse_poly, src, ctx)

    @pytest.mark.parametrize("field", [QQ, QT])
    @pytest.mark.parametrize(
        "src",
        [
            "3/0*x", "x + 3/000*y", "0/0*x", "3/0", "-0/5*x + y", "12/18*x' - 007*y''^3 + 1001",
            "x", "x + 2*y", "x^0 + 5^2", "x^1 - x^1001", "9" * 640 + "*x", "9" * 641 + "*x",
            "x^" + "9" * 641, "x^" + _LONG, "x + 3/" + _LONG + "*y", _LONG + "/2*x", "w + x", "3*w^2",
            "+x", "x y", "x + + y", "(x + 1/2*y) - x'", " - 3 / 4 * x ' ^ 2 + y ", "x'^(2) + y",
            "2*x^(3) - y", "--x + y", "x - -y", "x/2 + y", "2*x*y + x", "t + 3*t^2 - 1/2*t'",
        ],
    )
    def test_plain_term_edges_read_as_the_token_by_token_parser(self, src, field):
        # each way into and out of the one-match plain term, refusals included
        ctx = Context(("x", "y"), field)
        assert _reading(parse_poly, src, ctx) == _reading(reference_parse_poly, src, ctx)

    @pytest.mark.parametrize("src", ["x^(\u0663) + \uff11\uff12", "x + \u0661", "x +\u00a0y", "\u2003x"])
    def test_non_ascii_digits_and_spaces_are_refused_alike(self, src):
        ctx = Context(("x", "y"), QQ)
        got = _reading(parse_poly, src, ctx)
        assert got.startswith("unexpected character")
        assert got == _reading(reference_parse_poly, src, ctx)


@st.composite
def _constant_terms(draw, over_qt):
    """(source, the coefficient as (Fraction, power of t) or None when some
    divisor is zero) of a term of integer literals, '/', t (over Q(t)) and
    parenthesised constants, times x."""
    factors = [st.integers(min_value=0, max_value=30).map(lambda k: (str(k), Fraction(k), 0))]
    factors.append(
        st.tuples(small_rationals(), small_rationals()).map(
            lambda ab: (f"({ab[0]} - {ab[1]})", ab[0] - ab[1], 0)
        )
    )
    if over_qt:
        factors.append(st.just(("t", Fraction(1), 1)))
    parts, value, tpow, zero_divisor = ["x"], Fraction(1), 0, False
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        src, q, k = draw(st.one_of(factors))
        if draw(st.booleans()):
            parts.append(f"/{src}")
            zero_divisor = zero_divisor or not q
            value, tpow = (value / q if q else value), tpow - k
        else:
            parts.append(f"*{src}")
            value, tpow = value * q, tpow + k
    sign = draw(st.sampled_from(("", "-")))
    return sign + "".join(parts), None if zero_divisor else ((-value if sign else value), tpow)


class TestIntegerCoefficients:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_term_coefficient_is_the_fraction_arithmetic(self, data):
        field = data.draw(st.sampled_from((QQ, QT)))
        ctx = Context(("x", "y"), field)
        src, want = data.draw(_constant_terms(field is QT))
        if want is None:
            with pytest.raises(ParseError, match="division by zero"):
                parse_poly(src, ctx)
            return
        value, k = want
        coeff = RatFunc.make([0] * k + [value], [1]) if k >= 0 else RatFunc.make([value], [0] * -k + [1])
        assert parse_poly(src, ctx) == DiffPoly.from_terms(ctx, [(Monomial.of(DerVar(0, 0)), coeff)])

    def test_zero_times_a_term_over_zero_is_division_by_zero(self):
        with pytest.raises(ParseError) as exc:
            P("0*x/0")
        assert str(exc.value) == "division by zero (at position 3)"

    def test_integer_literals_make_no_field_division(self, monkeypatch):
        calls = []
        div = RatFunc.__truediv__
        monkeypatch.setattr(RatFunc, "__truediv__", lambda a, b: calls.append(1) or div(a, b))
        assert P("5/2*x'") == DiffPoly.from_terms(XY, [(Monomial.of(DerVar(0, 1)), QQ.from_fraction(Fraction(5, 2)))])
        assert calls == []


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
        with pytest.raises(SysFileError) as exc:
            parse_system(
                "field: Q\nvars: x\nranking: elim x\neq u = x\neq u = x'\n"
            )
        assert str(exc.value) == "line 5: duplicate equation name 'u'"

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

    def test_duplicate_point_names(self):
        with pytest.raises(SysFileError) as exc:
            parse_system(SYSTEM + "point p0: x = 1, y = 1\n")
        assert str(exc.value) == "line 8: duplicate point name 'p0'"

    def test_point_assignment_needs_an_equals_sign(self):
        with pytest.raises(SysFileError) as exc:
            parse_system(SYSTEM.replace("point p0: x = 0, y = 0", "point p0: x = 0, y 0"))
        assert str(exc.value) == "line 7: bad assignment 'y 0'"

    def test_unknown_field_names_its_line(self):
        with pytest.raises(SysFileError) as exc:
            parse_system("field: R\nvars: x\nranking: elim x\neq u = x\n")
        assert str(exc.value) == "line 1: unknown field 'R'; expected 'Q' or 'Q(t)'"

    def test_bad_names(self):
        with pytest.raises(SysFileError) as exc:
            parse_system(SYSTEM.replace("eq u1 =", "eq 1u ="))
        assert str(exc.value) == "line 5: bad equation name '1u'"
        with pytest.raises(SysFileError) as exc:
            parse_system(SYSTEM.replace("point p0:", "point 0p:"))
        assert str(exc.value) == "line 7: bad point name '0p'"

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
        comps = parse_components(COMPONENTS, XY, ELIM_XY)
        assert len(comps) == 2
        assert len(comps[0].inequations) == 2
        assert comps[1].inequations == ()

    def test_format_round_trip(self):
        comps = parse_components(COMPONENTS, XY, ELIM_XY)
        text = format_components(comps, XY)
        again = parse_components(text, XY, ELIM_XY)
        assert [c.to_text() for c in again] == [c.to_text() for c in comps]

    def test_default_ranking_fills_in(self):
        comps = parse_components("charset: y; x'\n", XY, ELIM_XY)
        assert comps[0].ranking == ELIM_XY

    @pytest.mark.parametrize("line", ["ranking: elim x > y", "charset: y; x'", "ineqs: y", "prime: no"])
    def test_repeated_key_is_refused(self, line):
        # each key comes once per block, in any case: line 5 repeats one of lines 1-4
        key = line.partition(":")[0]
        block = COMPONENTS.split("\n\n")[1] + key.title() + line[len(key) :] + "\n"
        with pytest.raises(SysFileError) as exc:
            parse_components(block, XY, ELIM_XY)
        assert str(exc.value) == f"line 5: duplicate '{key}:' line"

    def test_invalid_component_content_fails(self):
        # not autoreduced: file is well-formed, content is not a component
        with pytest.raises(SysFileError):
            parse_components("ranking: elim x > y\ncharset: x'; x'' + y\n", XY, ELIM_XY)

    def test_system_file_with_component_blocks_is_refused(self):
        # components live in component files only; line 9 opens the block
        with pytest.raises(SysFileError, match="line 9: duplicate 'ranking:' line"):
            parse_system(SYSTEM + "\n" + COMPONENTS)
        without_ranking = COMPONENTS.replace("ranking: elim x > y\n", "")
        with pytest.raises(SysFileError, match='line 9: cannot understand "charset: '):
            parse_system(SYSTEM + "\n" + without_ranking)
