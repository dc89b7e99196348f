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
from diffalg.reduction import MAX_COEFF_BITS, MAX_T_DEGREE, MAX_TERMS, MAX_WORK
from diffalg.sysfile import (
    MAX_NESTING,
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

    def test_power_expansion_cap(self, monkeypatch):
        # a monomial or constant power has one term, however high
        assert parse_poly("x^1000", XY).term_count() == 1
        assert parse_poly("(2*x*y')^50", XY).term_count() == 1
        # (x + 1)^e has e + 1 terms: under a cap of 100 terms the 99th power
        # is made, and the 100th stops in its last product, p^36 * p^64
        monkeypatch.setattr(diffalg.reduction, "MAX_TERMS", 100)
        assert parse_poly("(x + 1)^99", XY).term_count() == 100
        with pytest.raises(ParseError) as exc:
            parse_poly("(x + 1)^100", XY)
        assert str(exc.value) == (
            "power ^100 of a 2-term polynomial passes the cap of 100 terms (MAX_TERMS) (at position 8)"
        )

    def test_power_product_cap(self, monkeypatch):
        # (x + y)^9999 has 10,000 terms, inside the term cap; each squaring
        # and product of a power is charged its term pairs before it is
        # made, against MAX_WORK, so the power stops at the first product
        # that would pass the budget, after the work before it
        assert parse_poly("(x + y)^400", XY).term_count() == 401  # 61,821 term pairs
        assert parse_poly("(x - x)^100000", XY).is_zero()
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 50_000)
        for e, pairs in ((9999, 92_622), (2000, 87_630)):
            start = time.perf_counter()
            with pytest.raises(ParseError) as exc:
                parse_poly(f"(x + y)^{e}", XY)
            assert time.perf_counter() - start < 1.0
            assert str(exc.value) == (
                f"power ^{e} of a 2-term polynomial would bring the reader's work to "
                f"{pairs} term pairs, over the budget MAX_WORK = 50000 (at position 8)"
            )

    def test_a_power_is_charged_the_pairs_it_makes(self, monkeypatch):
        # binary powering starts the running product at the power of the
        # lowest set bit: p^k makes one product per squaring and one per
        # further set bit, none with 1, and the file's work count holds
        # exactly the term pairs that those products make
        made = {"products": 0, "pairs": 0}
        add = diffalg.reduction._add_product
        times = diffalg.sysfile._times

        def count_pairs(acc, a, b):
            made["pairs"] += len(a) * len(b)
            return add(acc, a, b)

        def count_products(*args):
            made["products"] += 1
            return times(*args)

        monkeypatch.setattr(diffalg.reduction, "_add_product", count_pairs)
        monkeypatch.setattr(diffalg.sysfile, "_times", count_products)
        jets = ("x", "y", "x'", "y'")
        for k, products in enumerate((0, 0, 1, 2, 2, 3, 3, 4, 3)):
            for n in range(1, len(jets) + 1):
                made.update(products=0, pairs=0)
                table = {}
                terms = diffalg.sysfile._scan(f"({' + '.join(jets[:n])})^{k}", XY, table)
                assert made["products"] == products
                assert table.get("work", 0) == made["pairs"]
                assert len(terms) == comb(n + k - 1, k)

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
        # a single-term power is refused at the first squaring or product
        # that makes a coefficient past a cap
        with pytest.raises(ParseError, match=rf"of 4097 bits, over the cap of {MAX_COEFF_BITS} bits \(MAX_COEFF_BITS\)"):
            parse_poly("(2)^1000000000000000000", XY)
        with pytest.raises(ParseError, match="MAX_COEFF_BITS"):
            parse_poly("(3/2*x)^1000000000000000000", XY)
        with pytest.raises(ParseError, match=f"degree 1000000000000000000 in t, over the cap of {MAX_T_DEGREE}"):
            parse_poly("t^1000000000000000000", Context(("x",), QT))
        with pytest.raises(ParseError, match=f"degree {MAX_T_DEGREE + 1} in t, .* \\(MAX_T_DEGREE\\)"):
            parse_poly(f"(t*x)^{MAX_T_DEGREE + 1}", Context(("x",), QT))
        # magnitude 1 does not grow, and powers inside the caps expand
        assert parse_poly("(-x)^100001", XY) == -parse_poly("x^100001", XY)
        assert parse_poly("(2*x)^100", XY) == parse_poly(f"{2 ** 100}*x^100", XY)
        t_top = parse_poly(f"t^{MAX_T_DEGREE}", Context(("x",), QT))
        assert t_top.constant_value().num[-1] == 1

    def test_a_power_is_held_to_the_sizes_it_makes(self):
        # two coprime denominators of about 1,000 bits: the e-th power's
        # largest coefficient has a denominator of about e * 1,000 bits, so
        # the cube is made and the fifth power is refused at its product
        p1, p2 = 3**630, 5**430
        cube = parse_poly(f"(x/{p1} + y/{p2})^3", XY)
        assert max(c.den[0] for _, c in cube.items()) == p1**3
        with pytest.raises(ParseError) as exc:
            parse_poly(f"(x/{p1} + y/{p2})^5", XY)
        bits = (p1**5).bit_length()
        assert str(exc.value).startswith(f"power ^5 of a 2-term polynomial makes a coefficient of {bits} bits")

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
                "power ^20000 makes a coefficient of 4097 bits, over the cap of "
                f"{MAX_COEFF_BITS} bits (MAX_COEFF_BITS) (at position 4)",
            ),
            (
                "2^20000*x",
                QQ,
                "power ^20000 makes a coefficient of 4097 bits, over the cap of "
                f"{MAX_COEFF_BITS} bits (MAX_COEFF_BITS) (at position 2)",
            ),
            (
                "2^4000*2^4000*x",
                QQ,
                "product of two constants makes a coefficient of 8001 bits, over the cap of "
                f"{MAX_COEFF_BITS} bits (MAX_COEFF_BITS) (at position 7)",
            ),
            (
                "x*t^1001",
                QT,
                "power t^1001 makes a coefficient of degree 1001 in t, over the cap of "
                f"{MAX_T_DEGREE} (MAX_T_DEGREE) (at position 4)",
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
    factors and of each squaring and product of a power to one count per
    file, before it makes them, against reduction.MAX_WORK; a product, a
    power's among them, stops as soon as it holds more than
    reduction.MAX_TERMS terms."""

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
        # (x + y)^3 is charged its square and its product, 2 * 2 + 2 * 3 = 10
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
        # 101 by 101 distinct jets make 10,201 terms from as many term pairs;
        # the product stops at the row that takes it past 10,000
        xs = " + ".join(f"x^({k})" for k in range(101))
        ys = xs.replace("x", "y")
        src = f"({xs})*({ys})"
        with pytest.raises(ParseError) as exc:
            P(src)
        assert str(exc.value) == (
            f"product of a 101-term and a 101-term polynomial passes the cap of "
            f"{MAX_TERMS} terms (MAX_TERMS) (at position {len(xs) + 3})"
        )
        assert _reading(reference_parse_poly, src, XY) == str(exc.value)
        # under a cap of 5 terms, (x + y + 1)^2 and the product it expands
        # to are both refused, and (x + y)*(x + y + 1) passes
        monkeypatch.setattr(diffalg.reduction, "MAX_TERMS", 5)
        for src, message in (
            ("(x + y + 1)^2", "power ^2 of a 3-term polynomial passes the cap of 5 terms (MAX_TERMS) (at position 12)"),
            (
                "(x + y + 1)*(x + y + 1)",
                "product of a 3-term and a 3-term polynomial passes the cap of 5 terms (MAX_TERMS) (at position 12)",
            ),
        ):
            assert _reading(parse_poly, src, XY) == message == _reading(reference_parse_poly, src, XY)
        assert P("(x + y)*(x + y + 1)").term_count() == 5

    def test_a_refused_product_holds_at_most_one_row_past_the_term_cap(self, monkeypatch):
        # s*s*s for s a sum of 100 variables: s*s has 5,050 terms, and the
        # product by s stops at the first row that passes 10,000, after
        # which no term pair is made; the parent built all 171,700 terms
        ctx = Context(tuple(f"x{i}" for i in range(100)), QQ)
        s = "(" + " + ".join(ctx.names) + ")"
        sizes = []
        add = diffalg.reduction._add_product

        def count(acc, a, b):
            add(acc, a, b)
            sizes.append((len(acc), len(b)))
            return acc

        monkeypatch.setattr(diffalg.reduction, "_add_product", count)
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_poly(f"{s}*{s}*{s}", ctx)
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == (
            f"product of a 5050-term and a 100-term polynomial passes the cap of {MAX_TERMS} terms "
            f"(MAX_TERMS) (at position {2 * len(s) + 2})"
        )
        (held, row), = {(n, k) for n, k in sizes if n > MAX_TERMS}
        assert held <= MAX_TERMS + row and sizes[-1] == (held, row)
        assert _reading(reference_parse_poly, f"{s}*{s}*{s}", ctx) == str(exc.value)


class TestReaderSizes:
    """Every coefficient a product makes, of polynomials or of two
    constants, is held to reduction.MAX_COEFF_BITS bits and, over Q(t), to
    reduction.MAX_T_DEGREE in t; both readers refuse it at the same token
    with the same message."""

    @staticmethod
    def _both(src, ctx=XY):
        got = _reading(parse_poly, src, ctx)
        assert got == _reading(reference_parse_poly, src, ctx)
        return got

    def test_written_out_factors_meet_the_cap_their_power_meets(self, monkeypatch):
        # under a cap of 40 bits, (2^20*x + 1) times itself makes 2^40, of
        # 41 bits: sixty factors written out are refused at the second, as
        # the power is at its first squaring
        monkeypatch.setattr(diffalg.reduction, "MAX_COEFF_BITS", 40)
        one = "(2^20*x + 1)"
        tail = "makes a coefficient of 41 bits, over the cap of 40 bits (MAX_COEFF_BITS)"
        assert self._both("*".join([one] * 60)) == (
            f"product of a 2-term and a 2-term polynomial {tail} (at position {len(one) + 1})"
        )
        assert self._both(f"{one}^60") == f"power ^60 of a 2-term polynomial {tail} (at position {len(one) + 1})"
        assert self._both(f"{one}*{one}".replace("20", "19")) == [
            (k, v) for k, v in P("(2^38*x^2 + 2^20*x + 1)").items()
        ]

    @pytest.mark.parametrize(
        "src, bits, at",
        [
            ("2^30*2^30*x", 61, 5),  # two powers of numbers, at the second
            ("x/(2^30)/(2^30)", 61, 9),  # a division by a constant
            ("1000000*1000000*1000000*x", 60, 16),  # three numbers, at the third
            ("x/1000000/1000000/1000000", 60, 18),  # three divisors
            ("1000000000000*2^30*x", 70, 20),  # the term's numbers times its other constants, at its end
            ("(2^30*x + 1)*2^30 + y", 61, 18),  # the term's constant times its polynomial, at its end
            ("(2^30*x + 1)*(2^30)", 61, 19),
        ],
    )
    def test_constants_in_one_term_meet_the_bit_cap(self, monkeypatch, src, bits, at):
        monkeypatch.setattr(diffalg.reduction, "MAX_COEFF_BITS", 40)
        got = self._both(src)
        assert got.endswith(f"makes a coefficient of {bits} bits, over the cap of 40 bits (MAX_COEFF_BITS) (at position {at})")
        monkeypatch.setattr(diffalg.reduction, "MAX_COEFF_BITS", bits)
        assert not isinstance(self._both(src), str)

    @pytest.mark.parametrize(
        "src, what, at",
        [
            ("t*t*t*t*t*t*x", "product of two constants", 10),
            ("x/t/t/t/t/t/t", "product of two constants", 12),
            ("(t + 1)^6*x", "power ^6", 8),
            ("(t*x + 1)^6", "power ^6 of a 2-term polynomial", 10),
            ("(t^3*x + 1)*(t^3*y + 1)", "product of a 2-term and a 2-term polynomial", 12),
            ("t^6*x", "power t^6", 2),
        ],
    )
    def test_a_chain_of_t_meets_the_degree_cap(self, monkeypatch, src, what, at):
        ctx = Context(("x", "y"), QT)
        monkeypatch.setattr(diffalg.reduction, "MAX_T_DEGREE", 5)
        assert self._both(src, ctx) == (
            f"{what} makes a coefficient of degree 6 in t, over the cap of 5 (MAX_T_DEGREE) (at position {at})"
        )
        monkeypatch.setattr(diffalg.reduction, "MAX_T_DEGREE", 6)
        assert not isinstance(self._both(src, ctx), str)

    def test_a_long_chain_stops_at_the_product_that_passes(self):
        # 1,000 factors 2^4000 before *x, 7,001 characters: each factor was
        # multiplied in, in time that grew with the square of the chain, to
        # one coefficient of 4,000,001 bits; the second factor is refused
        src = "2^4000*" * 1000 + "x"
        start = time.perf_counter()
        assert self._both(src) == (
            f"product of two constants makes a coefficient of 8001 bits, over the cap of "
            f"{MAX_COEFF_BITS} bits (MAX_COEFF_BITS) (at position 7)"
        )
        # 1,000 integer literals of 600 digits: the third is refused
        lit = "9" * 600
        src = "*".join([lit] * 1000) + "*x"
        assert self._both(src) == (
            f"product of two constants makes a coefficient of {((10**600 - 1) ** 3).bit_length()} bits, "
            f"over the cap of {MAX_COEFF_BITS} bits (MAX_COEFF_BITS) (at position {2 * 601})"
        )
        assert time.perf_counter() - start < 0.5


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
        # the one checked product is the reader's only multiplication: the
        # flat system makes none of polynomials, and two of constants, the
        # squaring and the product of 2^3
        calls = []
        times = diffalg.sysfile._times
        monkeypatch.setattr(diffalg.sysfile, "_times", lambda a, b, *rest: calls.append(type(a)) or times(a, b, *rest))
        sf = parse_system(
            "field: Q\nvars: x1, x2, x3\nranking: elim x1 > x2 > x3\n"
            "eq u1 = -3*x1^2 + 1/2*x2'''\n"
            "eq u2 = 5*x3'^2*x1 - 5/2*x2^(4) - x1'*x3 + 7\n"
            "point p: x1 = 2^3, x2 = -1/4, x3 = 0\n"
        )
        assert calls == [RatFunc, RatFunc]
        assert sf.equation("u1") == parse_poly("x2''' / 2 - 3*x1*x1", sf.context)
        parse_poly("(x1 + x2)*(x1 - x2)", sf.context)  # parenthesised factors multiply
        assert calls == [RatFunc, RatFunc, DiffPoly]

    def test_flat_system_of_forty_scans_each_expression_once(self, monkeypatch):
        n = 40
        names = [f"x{i}" for i in range(1, n + 1)]
        lines = ["field: Q", f"vars: {', '.join(names)}", f"ranking: elim {' > '.join(names)}"]
        lines += [f"eq u{i} = {i}/2*x{i}'^2 - 3*x{i % n + 1}'' + x{i}^(4) - {i} - 3*x1'" for i in range(1, n + 1)]
        lines.append("point p: " + ", ".join(f"x{i} = -{i}/3" for i in range(1, n + 1)))
        products, scans, monomials, coefficients = [], [], [], []
        times, scan = diffalg.sysfile._times, diffalg.sysfile._scan
        mono_init, coeff_init = Monomial.__init__, RatFunc.__init__
        monkeypatch.setattr(diffalg.sysfile, "_times", lambda *args: products.append(1) or times(*args))
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
        # a power such as (x + y)^20000 is made until the work count stops
        # it: a budget of 50,000 term pairs keeps each such draw near 0.1 s
        with patch.object(diffalg.reduction, "MAX_WORK", 50_000):
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
