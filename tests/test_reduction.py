"""Ritt division: the certificate identity m*b = sum Q_i(A_i) + r, with the
multiplier audited as a product of separants and initials."""

from collections import Counter
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, reject, settings

import diffalg.decompose
import diffalg.diffpoly
import diffalg.fields
import diffalg.reduction
from diffalg import (
    Context,
    DerVar,
    DiffOperator,
    DiffPoly,
    JbcVerdict,
    Monomial,
    NotAutoreducedError,
    QQ,
    QT,
    Ranking,
    RatFunc,
    ReductionCertificate,
    analyze,
    is_autoreduced,
    is_reduced,
    jbc_check,
    ritt_reduce_seq,
    verify_certificate,
)
from diffalg.reduction import PreparedSeq, StepLimitExceeded, TermLimitExceeded
from diffalg.sysfile import ParseError, parse_poly

from reference_engines import forward_certificate
from strategies import contexts, diffpolys, rankings

XY = Context(("x", "y"), QQ)
ELIM_XY = Ranking.elimination(2, [0, 1])


def P(src, ctx=XY):
    return parse_poly(src, ctx)


def divide(b, seq, ranking=ELIM_XY):
    return ritt_reduce_seq(b, PreparedSeq(seq, ranking))


class TestDiffOperator:
    def test_apply_is_derivation_combination(self):
        op = DiffOperator.of(P("x"), 1) + DiffOperator.of(P("2"), 0)
        g = P("y^2")
        assert op.apply(g) == P("x*2*y*y' + 2*y^2")

    def test_zero_operator(self):
        assert DiffOperator.zero(XY).apply(P("x' + y")).is_zero()

    @given(st.data())
    @settings(max_examples=50)
    def test_apply_linear_in_argument(self, data):
        ctx = data.draw(contexts(max_vars=2))
        a = data.draw(diffpolys(ctx, max_terms=2))
        b = data.draw(diffpolys(ctx, max_terms=2))
        k = data.draw(st.integers(min_value=0, max_value=2))
        c = data.draw(diffpolys(ctx, max_terms=2))
        op = DiffOperator.of(c, k)
        assert op.apply(a + b) == op.apply(a) + op.apply(b)

    def test_text(self):
        op = DiffOperator.of(P("-x"), 2) + DiffOperator.of(P("1"), 0)
        assert "d^2" in op.to_text()


class TestWorkedDivisions:
    def test_algebraic_step_over_qt(self):
        ctx = Context(("x", "y"), QT)
        f = P("x' + y'''", ctx)
        g = P("x^2 + y''*x' + t", ctx)
        cert = divide(f, [g])
        assert cert.multiplier == P("y''", ctx)
        assert cert.remainder == P("y''*y''' - x^2 - t", ctx)
        assert verify_certificate(cert, f, [g], ELIM_XY)

    def test_derivative_step_uses_separant(self):
        # dividing x'' by x'^2 + y forces one prolongation
        f = P("x''")
        g = P("x'^2 + y")
        cert = divide(f, [g])
        # 2x' * x'' = d(x'^2 + y) - y', so remainder is -y' ... times nothing else
        assert cert.multiplier == P("2*x'")
        assert cert.remainder == P("-y'")
        assert verify_certificate(cert, f, [g], ELIM_XY)

    def test_reduced_input_is_untouched(self):
        f = P("y^2")
        g = P("x' + y")
        cert = divide(f, [g])
        assert cert.remainder == f
        assert cert.multiplier == DiffPoly.one(XY)
        assert cert.steps == 0

    def test_sequence_division_flagship(self):
        seq = [P("y'^2 + 4*y^3"), P("2*y*x' - y'")]
        f = P("x'' + y")
        cert = divide(f, seq)
        assert cert.remainder.is_zero()
        assert verify_certificate(cert, f, seq, ELIM_XY)

    def test_polynomial_coefficients_over_qt_need_no_gcd(self, monkeypatch):
        # Pinned: with coefficients polynomial in t every denominator is 1,
        # so reducing, reading the certificate and verifying it run no
        # polynomial gcd (217 ran before constant denominators skipped it).
        ctx = Context(("x", "y"), QT)
        b = P("(t^2 + 1)*x''^2*y + t*x'*y' + y^3", ctx)
        a = P("(t + 1)*x'^2 + t*x + y", ctx)
        calls = []
        real_pgcd = diffalg.fields._pgcd

        def pgcd(u, v):
            calls.append(1)
            return real_pgcd(u, v)

        monkeypatch.setattr(diffalg.fields, "_pgcd", pgcd)
        cert = divide(b, [a])
        assert cert.steps == 5
        assert verify_certificate(cert, b, [a], ELIM_XY)
        assert len(calls) == 0


class TestCertificates:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_division_verifies(self, data):
        ctx = data.draw(contexts(max_vars=3))
        rk = data.draw(rankings(ctx))
        divisor = data.draw(
            diffpolys(ctx, max_order=2, max_degree=2, max_terms=3).filter(
                lambda p: not p.is_constant()
            )
        )
        b = data.draw(diffpolys(ctx, max_order=3, max_degree=3, max_terms=3))
        try:
            with patch.object(diffalg.reduction, "MAX_WORK", 50_000):
                cert = divide(b, [divisor], rk)
        except StepLimitExceeded:
            return  # blow-ups are possible; the budget is the contract
        assert verify_certificate(cert, b, [divisor], rk)
        assert is_reduced(cert.remainder, analyze(divisor, rk))

    def test_identity_holds_term_by_term(self):
        seq = [P("y'^2 + 4*y^3"), P("2*y*x' - y'")]
        b = P("x''*y' + x^2")
        cert = divide(b, seq)
        lhs = cert.multiplier * b
        rhs = cert.remainder
        for q, a in zip(cert.quotients, seq):
            rhs = rhs + q.apply(a)
        assert lhs == rhs

    def test_tampered_certificate_rejected(self):
        g = P("x'^2 + y")
        f = P("x''")
        cert = divide(f, [g])
        from diffalg import ReductionCertificate

        bad = ReductionCertificate(
            multiplier=cert.multiplier,
            factors=cert.factors,
            quotients=cert.quotients,
            remainder=cert.remainder + DiffPoly.one(XY),
        )
        assert not verify_certificate(bad, f, [g], ELIM_XY)

    def test_mixed_contexts_are_refused(self):
        # the identity is summed in maps keyed by monomials, which name
        # variables by index, so a dividend or divisor of another ring is
        # refused, not compared
        g, f = P("x'^2 + y"), P("x''")
        cert = divide(f, [g])
        other = Context(("x", "z"), QQ)
        with pytest.raises(ValueError, match="mixed ring contexts"):
            verify_certificate(cert, P("x''", other), [g], ELIM_XY)
        with pytest.raises(ValueError, match="mixed ring contexts"):
            verify_certificate(cert, f, [P("x'^2 + z", other)], ELIM_XY)

    def test_foreign_multiplier_factor_rejected(self):
        g = P("y*x'' + x")  # separant and initial are both y
        f = P("x^(3)")
        cert = divide(f, [g])
        assert cert.factors == (P("y"), P("y"))
        from diffalg import ReductionCertificate

        # same product, but the factor list claims things that are neither
        # the separant nor the initial
        bad = ReductionCertificate(
            multiplier=cert.multiplier,
            factors=(P("y^2"), P("1")),
            quotients=cert.quotients,
            remainder=cert.remainder,
        )
        assert not verify_certificate(bad, f, [g], ELIM_XY)


class TestGuards:
    def test_step_cap_is_enforced(self):
        # the budget bounds a division's running count of term pairs: its
        # first step scales the 1-term dividend by the separant 2*x' and
        # subtracts a 1-term cofactor times the 3 terms of d^2(x'^2 + y), 4
        # pairs, and its four steps make 14
        b, seq = P("x^(3)"), [P("x'^2 + y")]
        for budget, step, reach in ((3, 1, 4), (13, 4, 14)):
            with patch.object(diffalg.reduction, "MAX_WORK", budget):
                with pytest.raises(StepLimitExceeded) as err:
                    divide(b, seq)
            assert type(err.value) is StepLimitExceeded
            assert str(err.value) == (
                f"reduction stopped at step {step}: its work would reach {reach}, "
                f"over the budget MAX_WORK = {budget}"
            )
        with patch.object(diffalg.reduction, "MAX_WORK", 14):
            cert = divide(b, seq)
        assert (cert.steps, cert.pairs) == (4, 14)


@st.composite
def qt_polys(draw, ctx, **kw):
    """Over Q(t) some coefficients carry t, so the field derivation acts."""
    p = draw(diffpolys(ctx, **kw))
    if ctx.field != QT:
        return p
    return p + DiffPoly.const(ctx, ctx.field.t()) * draw(diffpolys(ctx, **kw))


def caps():
    """(MAX_TERMS, MAX_COEFF_BITS, MAX_T_DEGREE, MAX_WORK): each size cap
    at its value, or small enough to stop a few divisions part way; a
    budget that no division drawn here has reached, or one small enough to
    stop a division at its first step or part way."""
    return st.tuples(
        st.sampled_from((10_000, 3, 6)),
        st.sampled_from((4096, 3)),
        st.sampled_from((1000, 1)),
        st.sampled_from((50_000, 4, 40)),
    )


class TestCertificateOnRead:
    @staticmethod
    def _check_against_forward(b, seq, rk, caps):
        terms, bits, degree, work = caps
        outcomes = []
        with patch.multiple(
            diffalg.reduction, MAX_TERMS=terms, MAX_COEFF_BITS=bits, MAX_T_DEGREE=degree, MAX_WORK=work
        ):
            for engine in (lambda: divide(b, seq, rk), lambda: forward_certificate(b, seq, rk)):
                try:
                    outcomes.append(engine())
                except StepLimitExceeded as exc:
                    outcomes.append(exc)
        cert, ref = outcomes
        if isinstance(cert, StepLimitExceeded) or isinstance(ref, StepLimitExceeded):
            # the same cap at the same step: the messages name both
            assert type(cert) is type(ref)
            assert str(cert) == str(ref)
            assert getattr(cert, "pairs", None) == getattr(ref, "pairs", None)
            return
        # reading the remainder and the step count builds nothing
        cert.remainder, cert.steps
        assert cert._log is not None
        assert cert.steps == ref.steps
        assert cert.pairs == ref.pairs <= work
        assert cert.remainder == ref.remainder
        assert cert.factors == ref.factors
        assert cert.multiplier == ref.multiplier
        assert cert.quotients == ref.quotients
        assert cert == ref
        assert verify_certificate(cert, b, seq, rk)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_forward_assembly(self, data):
        ctx = data.draw(contexts(max_vars=2, fields=(QQ, QT)))
        rk = data.draw(rankings(ctx))
        divisor = data.draw(
            qt_polys(ctx, max_order=2, max_degree=2, max_terms=2).filter(
                lambda p: not p.is_constant()
            )
        )
        b = data.draw(qt_polys(ctx, max_order=3, max_degree=2, max_terms=3))
        self._check_against_forward(b, [divisor], rk, data.draw(caps()))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_forward_assembly_on_pairs(self, data):
        # autoreduced by construction under an elimination ranking: a1 in the
        # lower variable only, a2 reduced by a1 and still in the upper one
        ctx = Context(("x", "y"), data.draw(st.sampled_from((QQ, QT))))
        hi, lo = data.draw(st.permutations([0, 1]))
        rk = Ranking.elimination(2, [hi, lo])
        one_var = Context(("x",), ctx.field)
        drawn = data.draw(
            qt_polys(one_var, max_order=2, max_degree=2, max_terms=2).filter(
                lambda p: not p.is_constant()
            )
        )
        # the drawn polynomial, its variable renamed to the lower one of ctx
        a1 = DiffPoly.from_terms(
            ctx,
            ((Monomial.make((DerVar(lo, v.order), e) for v, e in m.factors), c) for m, c in drawn.items()),
        )
        raw = data.draw(qt_polys(ctx, max_order=2, max_degree=2, max_terms=3))
        try:
            with patch.object(diffalg.reduction, "MAX_WORK", 200):
                a2 = divide(raw, [a1], rk).remainder
        except StepLimitExceeded:
            reject()
        assume(a2.term_count() <= 4 and any(v.var == hi for v in a2.dervars()))
        assert is_autoreduced([a1, a2], rk)
        b = data.draw(qt_polys(ctx, max_order=2, max_degree=2, max_terms=3))
        self._check_against_forward(b, [a1, a2], rk, data.draw(caps()))

    @staticmethod
    def _count_builds(monkeypatch) -> Counter:
        """Count DiffPoly products and DiffOperator constructions."""
        built = Counter()
        mul, init = DiffPoly.__mul__, DiffOperator.__init__
        monkeypatch.setattr(DiffPoly, "__mul__", lambda a, b: built.update(["products"]) or mul(a, b))
        monkeypatch.setattr(
            DiffOperator, "__init__", lambda op, *args: built.update(["operators"]) or init(op, *args)
        )
        return built

    def test_remainder_and_steps_do_not_build(self, monkeypatch):
        seq = [P("y'^2 + 4*y^3"), P("2*y*x' - y'")]
        built = self._count_builds(monkeypatch)
        cert = divide(P("x''*y' + x^2"), seq)
        assert cert.steps == 5 and not cert.remainder.is_zero()
        assert built == {}
        # the 4 products of the factors and the 4 of the cofactors by them
        cert.quotients
        cert.multiplier
        assert built["products"] == 8
        built.clear()
        cert.quotients
        cert.multiplier
        assert built == {}

    def test_multiplier_alone_builds_no_quotient(self, monkeypatch):
        # jbc-check's text prints multipliers and no quotient: the
        # multiplier is the product of the 5 factors, 4 products, with no
        # operator built; the quotients then reuse those products
        seq = [P("y'^2 + 4*y^3"), P("2*y*x' - y'")]
        built = self._count_builds(monkeypatch)
        cert = divide(P("x''*y' + x^2"), seq)
        assert cert.multiplier == P("8*y^2*y'")
        assert built == {"products": 4}
        cert.quotients
        assert built["products"] == 8 and built["operators"] > 0

    def test_reused_prepared_sequence_matches_a_fresh_one(self):
        # a reduction leaves the shared PreparedSeq (and the derivative
        # chains its divisors keep) fit for the next one
        prep = PreparedSeq([P("y'^2 + 4*y^3"), P("2*y*x' - y'")], ELIM_XY)
        for src in ("x''*y' + x^2", "x'' + y", "y''", "x''*y' + x^2"):
            fresh = PreparedSeq([P("y'^2 + 4*y^3"), P("2*y*x' - y'")], ELIM_XY)
            assert ritt_reduce_seq(P(src), prep) == ritt_reduce_seq(P(src), fresh)


class TestPreparedSeq:
    def test_analyzes_each_divisor(self):
        prep = PreparedSeq([P("y'^2 + 4*y^3"), P("2*y*x' - y'")], ELIM_XY)
        assert prep.sequence == (P("y'^2 + 4*y^3"), P("2*y*x' - y'"))
        assert prep.ranked == tuple(analyze(p, ELIM_XY) for p in prep.sequence)

    @pytest.mark.parametrize(
        "seq, error",
        [
            ([], ValueError),
            (["3"], NotAutoreducedError),
            (["x'", "2"], NotAutoreducedError),
            (["x'", "x'' + y"], NotAutoreducedError),
            (["x'", "x' + y"], NotAutoreducedError),
        ],
    )
    def test_refuses_what_reduction_refuses(self, seq, error):
        with pytest.raises(error):
            PreparedSeq([P(s) for s in seq], ELIM_XY)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_accepts_exactly_the_autoreduced_sequences(self, data):
        ctx = data.draw(contexts(max_vars=2))
        rk = data.draw(rankings(ctx))
        seq = data.draw(st.lists(diffpolys(ctx, max_order=2, max_degree=2, max_terms=2), max_size=3))
        try:
            PreparedSeq(seq, rk)
        except ValueError:
            assert not seq or not is_autoreduced(seq, rk)
        else:
            assert seq and is_autoreduced(seq, rk)

    def test_divisor_order_does_not_matter(self):
        # pairwise reduced divisors are autoreduced in any order, and the
        # division comes out the same
        b = P("x'*y^3 + x^2")
        for seq in ([P("x + y"), P("y^2")], [P("y^2"), P("x + y")]):
            assert is_autoreduced(seq, ELIM_XY)
            cert = divide(b, seq)
            assert cert.remainder.is_zero()
            assert cert.multiplier == P("2*y")
            assert verify_certificate(cert, b, seq, ELIM_XY)


class TestTermCap:
    def test_cap_is_a_named_step_limit(self, monkeypatch):
        monkeypatch.setattr(diffalg.reduction, "MAX_TERMS", 3)
        with pytest.raises(TermLimitExceeded) as err:
            divide(P("x''*y + x'*y^2 + x"), [P("x'^2 + y*x' + y")])
        assert isinstance(err.value, StepLimitExceeded)
        assert str(err.value) == "reduction stopped at step 1: the step passes the cap of 3 terms (MAX_TERMS)"
        assert err.value.pairs == 10

    def test_coefficient_cap_stops_a_division(self, monkeypatch):
        # the second step scales -2*x''^2 - 3*y'' by the separant 2*x' and
        # subtracts -2*x'' times x'^2 + 3*y derived once, which leaves
        # -6*x'*y'' + 6*x''*y': a coefficient past a 2-bit cap, made after
        # the first two steps' 8 term pairs
        monkeypatch.setattr(diffalg.reduction, "MAX_COEFF_BITS", 2)
        with pytest.raises(TermLimitExceeded) as err:
            divide(P("x^(3)"), [P("x'^2 + 3*y")])
        assert str(err.value) == (
            "reduction stopped at step 2: the step makes a coefficient of 3 bits, "
            "over the cap of 2 bits (MAX_COEFF_BITS)"
        )
        assert err.value.pairs == 8

    def test_degree_cap_stops_a_division_over_q_t(self, monkeypatch):
        # each step scales the working map by the initial t^10 + 1, so its
        # coefficients gain 10 in t-degree a step while their integers stay
        # small: MAX_T_DEGREE, not MAX_COEFF_BITS, stops the division
        ctx = Context(("y", "x"), QT)
        rk = Ranking.elimination(2, [0, 1])
        a = parse_poly("(t^10 + 1)*y^2 + x", ctx)
        b = parse_poly("y^40 + x*x' + x''*x'''", ctx)
        assert divide(b, [a], rk).steps == 20
        monkeypatch.setattr(diffalg.reduction, "MAX_T_DEGREE", 50)
        for engine in (divide, forward_certificate):
            with pytest.raises(TermLimitExceeded) as err:
                engine(b, [a], rk)
            assert str(err.value) == (
                "reduction stopped at step 6: the step makes a coefficient of degree 60 in t, "
                "over the cap of 50 (MAX_T_DEGREE)"
            )
            assert err.value.pairs == 30

    def test_a_subtraction_stops_at_the_row_that_passes_the_term_cap(self, monkeypatch):
        # the cofactor y^(10) + ... + y^(14) of x' by the 6-term divisor: each
        # row cancels one term of the map and adds five, 5 -> 9 -> 13 -> ...
        # -> 25 terms; under a cap of 10 the second row passes it, and the
        # last three rows' 18 term pairs are never made
        work = Counter()
        merge = diffalg.diffpoly._merge_factors
        a = P("x' + y + y' + y'' + y''' + y^(4)")
        b = P(" + ".join(f"x'*y^({10 + i})" for i in range(5)))
        prep = PreparedSeq([a], ELIM_XY)
        monkeypatch.setattr(diffalg.reduction, "MAX_TERMS", 30)
        assert ritt_reduce_seq(b, prep).remainder.term_count() == 25
        monkeypatch.setattr(diffalg.reduction, "MAX_TERMS", 10)
        monkeypatch.setattr(
            diffalg.diffpoly, "_merge_factors", lambda a, b: work.update(["monomials"]) or merge(a, b)
        )
        with pytest.raises(TermLimitExceeded) as err:
            ritt_reduce_seq(b, prep)
        assert str(err.value) == "reduction stopped at step 1: the step passes the cap of 10 terms (MAX_TERMS)"
        assert err.value.pairs == 30  # charged before the step's products
        assert work == {"monomials": 12}

    def test_the_reader_and_the_reducer_word_each_cap_alike(self, monkeypatch):
        # one rule per cap: the reader names its product, the reducer its
        # step, and the rest of the refusal is the same text
        qt = Context(("y", "x"), QT)
        rk = Ranking.elimination(2, [0, 1])
        cases = [
            (
                "MAX_TERMS", 3, "passes the cap of 3 terms (MAX_TERMS)",
                lambda: parse_poly("(x + y)*(x' + y')", XY),
                lambda: divide(P("x''*y + x'*y^2 + x"), [P("x'^2 + y*x' + y")]),
            ),
            (
                "MAX_COEFF_BITS", 2, "makes a coefficient of 3 bits, over the cap of 2 bits (MAX_COEFF_BITS)",
                lambda: parse_poly("2*3*x", XY),
                lambda: divide(P("x^(3)"), [P("x'^2 + 3*y")]),
            ),
            (
                "MAX_T_DEGREE", 5, "makes a coefficient of degree 6 in t, over the cap of 5 (MAX_T_DEGREE)",
                lambda: parse_poly("(t^3*x + 1)*(t^3*y + 1)", qt),
                lambda: divide(parse_poly("y^6 + x", qt), [parse_poly("(t^2 + 1)*y^2 + x'", qt)], rk),
            ),
        ]
        for cap, value, wording, read, reduce in cases:
            with monkeypatch.context() as m:
                m.setattr(diffalg.reduction, cap, value)
                with pytest.raises(ParseError) as parsed:
                    read()
                with pytest.raises(TermLimitExceeded) as divided:
                    reduce()
            assert str(parsed.value).split(" (at position")[0].endswith(f" {wording}")
            assert str(divided.value).endswith(f": the step {wording}")

    def test_pair_cap_is_checked_before_any_product(self, monkeypatch):
        # the first step would multiply the 2-term initial y^2 + y by the
        # 3-term dividend, and a 3-term cofactor by the 3-term divisor, 15
        # term pairs of MAX_WORK: refused before either product of the step
        # makes a term pair
        work = Counter()
        merge, mul = diffalg.diffpoly._merge_factors, RatFunc.__mul__
        monkeypatch.setattr(
            diffalg.diffpoly, "_merge_factors", lambda a, b: work.update(["monomials"]) or merge(a, b)
        )
        monkeypatch.setattr(RatFunc, "__mul__", lambda a, b: work.update(["coefficients"]) or mul(a, b))
        b, a = P("x'*y^2 + x'*y + x'"), P("x'*y^2 + x'*y + 1")
        prep = PreparedSeq([a], ELIM_XY)
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 14)
        with pytest.raises(StepLimitExceeded, match="step 1: its work would reach 15, over the budget MAX_WORK = 14$"):
            ritt_reduce_seq(b, prep)
        assert work == {}
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 15)
        cert = ritt_reduce_seq(b, prep)
        assert (cert.steps, cert.pairs) == (1, 15)
        # the two products, 6 and 9 term pairs, and nothing else
        assert work == {"monomials": 15, "coefficients": 15}

    def test_huge_product_of_a_square_draw_is_refused(self, monkeypatch):
        # draw 192 of scripts/square_draw.py --seed 1 --max-order 2: its
        # splitting tree once spent 33 s building one 72,445-term product
        # before MAX_TERMS refused it; now the step that would
        # make it is refused first, and the tree stops out of work
        messages = []
        divide_in_tree = diffalg.decompose.ritt_reduce_seq

        def recorded(*args):
            try:
                return divide_in_tree(*args)
            except StepLimitExceeded as exc:
                messages.append(str(exc))
                raise

        monkeypatch.setattr(diffalg.decompose, "ritt_reduce_seq", recorded)
        us = [P("3*x*y'' + 2*x'' - 2"), P("x''*y' + 3*x*x' - y")]
        assert jbc_check(us, ELIM_XY).verdict is JbcVerdict.INCONCLUSIVE
        assert messages == [
            "reduction stopped at step 1: its work would reach 3038524, "
            "over the budget MAX_WORK = 1000000"
        ]
        assert diffalg.decompose.split_decompose(us, ELIM_XY).out_of_work

    def test_swelling_coefficients_of_a_square_draw_stop_at_the_coefficient_cap(self):
        # draw 290 of the same script: a division in its tree keeps five
        # terms while their coefficients grow by some 20 bits a step, and it
        # once made only 24,000 term pairs in 40 s; MAX_COEFF_BITS drops its
        # nodes long before the budget is spent
        us = [P("-3*x'*x'' + y'' - 2*x'' + 1"), P("y'^2 - 2*x*y - 2*y")]
        dec = diffalg.decompose.split_decompose(us, ELIM_XY)
        assert not dec.complete and not dec.out_of_work
