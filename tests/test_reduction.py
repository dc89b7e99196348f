"""Ritt division: the certificate identity m*b = sum Q_i(A_i) + r, with the
multiplier audited as a product of separants and initials."""

from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, reject, settings

import diffalg.fields
import diffalg.reduction
from diffalg import (
    Context,
    DerVar,
    DiffOperator,
    DiffPoly,
    Monomial,
    NotAutoreducedError,
    QQ,
    QT,
    Ranking,
    ReductionCertificate,
    analyze,
    is_autoreduced,
    is_reduced,
    ritt_reduce_seq,
    verify_certificate,
)
from diffalg.reduction import PreparedSeq, StepLimitExceeded, TermLimitExceeded, _offense
from diffalg.sysfile import parse_poly

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
            with patch.object(diffalg.reduction, "MAX_REDUCTION_STEPS", 300):
                cert = divide(b, [divisor], rk)
        except StepLimitExceeded:
            return  # blow-ups are possible; the cap is the contract
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
        with patch.object(diffalg.reduction, "MAX_REDUCTION_STEPS", 1):
            with pytest.raises(StepLimitExceeded, match="than the cap MAX_REDUCTION_STEPS = 1$"):
                divide(P("x^(3)"), [P("x'^2 + y")])


def _forward_certificate(b, seq, ranking):
    """Reference: the division with the multiplier and every quotient
    rescaled eagerly at each step, as the certificate used to be built."""
    ctx = b.context
    ranked = [analyze(a, ranking) for a in seq]
    by_var = {rp.leader.var: (i, rp) for i, rp in enumerate(ranked)}
    c = b
    multiplier = DiffPoly.one(ctx)
    factors = []
    quotients = [DiffOperator.zero(ctx) for _ in ranked]
    while True:
        off = _offense(c, by_var, ranking)
        if off is None:
            break
        v, i, kind = off
        rp = ranked[i]
        if kind == "d":
            j = v.order - rp.leader.order
            prolonged = rp.poly.derive(j)
            mult = rp.separant
            d = c.degree_in(v)
            lead = c.coeff_of_power(v, d)
            cofactor = lead * DiffPoly.from_terms(ctx, [(Monomial.of(v, d - 1), ctx.field.one)])
            c = mult * c - cofactor * prolonged
        else:
            j = 0
            mult = rp.initial
            d = c.degree_in(v)
            lead = c.coeff_of_power(v, d)
            cofactor = lead * DiffPoly.from_terms(ctx, [(Monomial.of(v, d - rp.degree), ctx.field.one)])
            c = mult * c - cofactor * rp.poly
        multiplier = mult * multiplier
        factors.append(mult)
        quotients = [
            sum((DiffOperator.of(mult * coeff, k) for coeff, k in q.terms()), DiffOperator.zero(ctx))
            for q in quotients
        ]
        quotients[i] = quotients[i] + DiffOperator.of(cofactor, j)
    return ReductionCertificate(
        multiplier=multiplier, factors=tuple(factors), quotients=tuple(quotients), remainder=c
    )


@st.composite
def qt_polys(draw, ctx, **kw):
    """Over Q(t) some coefficients carry t, so the field derivation acts."""
    p = draw(diffpolys(ctx, **kw))
    if ctx.field != QT:
        return p
    return p + DiffPoly.const(ctx, ctx.field.t()) * draw(diffpolys(ctx, **kw))


class TestCertificateOnRead:
    @staticmethod
    def _check_against_forward(b, seq, rk, step_cap):
        try:
            with patch.object(diffalg.reduction, "MAX_REDUCTION_STEPS", step_cap):
                cert = divide(b, seq, rk)
        except StepLimitExceeded:
            return
        # reading the remainder and the step count builds nothing
        cert.remainder, cert.steps
        assert cert._log is not None
        ref = _forward_certificate(b, seq, rk)
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
        self._check_against_forward(b, [divisor], rk, step_cap=60)

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
            with patch.object(diffalg.reduction, "MAX_REDUCTION_STEPS", 6):
                a2 = divide(raw, [a1], rk).remainder
        except StepLimitExceeded:
            reject()
        assume(a2.term_count() <= 4 and any(v.var == hi for v in a2.dervars()))
        assert is_autoreduced([a1, a2], rk)
        b = data.draw(qt_polys(ctx, max_order=2, max_degree=2, max_terms=3))
        self._check_against_forward(b, [a1, a2], rk, step_cap=20)

    def test_remainder_and_steps_do_not_build(self, monkeypatch):
        built = []
        real = ReductionCertificate._assemble
        monkeypatch.setattr(
            ReductionCertificate, "_assemble", lambda self: built.append(1) or real(self)
        )
        seq = [P("y'^2 + 4*y^3"), P("2*y*x' - y'")]
        cert = divide(P("x''*y' + x^2"), seq)
        assert cert.steps > 0 and not cert.remainder.is_zero()
        assert built == []
        cert.quotients
        cert.multiplier
        assert built == [1]

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
        monkeypatch.setattr(diffalg.reduction, "MAX_REDUCTION_TERMS", 3)
        with pytest.raises(TermLimitExceeded, match="MAX_REDUCTION_TERMS = 3") as err:
            divide(P("x''*y + x'*y^2 + x"), [P("x'^2 + y*x' + y")])
        assert isinstance(err.value, StepLimitExceeded)
