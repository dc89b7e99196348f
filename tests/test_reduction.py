"""Ritt division: the certificate identity m*b = sum Q_i(A_i) + r, with the
multiplier audited as a product of separants and initials."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from diffalg import (
    Context,
    DiffOperator,
    DiffPoly,
    NotAutoreducedError,
    QQ,
    QT,
    Ranking,
    analyze,
    is_reduced,
    ritt_reduce_one,
    ritt_reduce_seq,
    verify_certificate,
)
from diffalg.reduction import StepLimitExceeded
from diffalg.sysfile import parse_poly

from conftest import contexts, diffpolys, rankings

XY = Context(("x", "y"), QQ)
ELIM_XY = Ranking.elimination(2, [0, 1])


def P(src, ctx=XY):
    return parse_poly(src, ctx)


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

    def test_scale_then_apply(self):
        op = DiffOperator.of(P("y"), 1)
        s = P("x")
        g = P("x'")
        assert op.scale(s).apply(g) == s * op.apply(g)

    def test_text(self):
        op = DiffOperator.of(P("-x"), 2) + DiffOperator.of(P("1"), 0)
        assert "d^2" in op.to_text()


class TestWorkedDivisions:
    def test_algebraic_step_over_qt(self):
        ctx = Context(("x", "y"), QT)
        f = P("x' + y'''", ctx)
        g = P("x^2 + y''*x' + t", ctx)
        cert = ritt_reduce_one(f, g, ELIM_XY)
        assert cert.multiplier == P("y''", ctx)
        assert cert.remainder == P("y''*y''' - x^2 - t", ctx)
        assert verify_certificate(cert, f, [g], ELIM_XY)

    def test_derivative_step_uses_separant(self):
        # dividing x'' by x'^2 + y forces one prolongation
        f = P("x''")
        g = P("x'^2 + y")
        cert = ritt_reduce_one(f, g, ELIM_XY)
        # 2x' * x'' = d(x'^2 + y) - y', so remainder is -y' ... times nothing else
        assert cert.multiplier == P("2*x'")
        assert cert.remainder == P("-y'")
        assert verify_certificate(cert, f, [g], ELIM_XY)

    def test_reduced_input_is_untouched(self):
        f = P("y^2")
        g = P("x' + y")
        cert = ritt_reduce_one(f, g, ELIM_XY)
        assert cert.remainder == f
        assert cert.multiplier == DiffPoly.one(XY)
        assert cert.steps == 0

    def test_sequence_division_flagship(self):
        seq = [P("y'^2 + 4*y^3"), P("2*y*x' - y'")]
        f = P("x'' + y")
        cert = ritt_reduce_seq(f, seq, ELIM_XY)
        assert cert.remainder.is_zero()
        assert verify_certificate(cert, f, seq, ELIM_XY)


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
            cert = ritt_reduce_one(b, divisor, rk, step_cap=300)
        except StepLimitExceeded:
            return  # blow-ups are possible; the cap is the contract
        assert verify_certificate(cert, b, [divisor], rk)
        assert is_reduced(cert.remainder, analyze(divisor, rk))

    def test_identity_holds_term_by_term(self):
        seq = [P("y'^2 + 4*y^3"), P("2*y*x' - y'")]
        b = P("x''*y' + x^2")
        cert = ritt_reduce_seq(b, seq, ELIM_XY)
        lhs = cert.multiplier * b
        rhs = cert.remainder
        for q, a in zip(cert.quotients, seq):
            rhs = rhs + q.apply(a)
        assert lhs == rhs

    def test_tampered_certificate_rejected(self):
        g = P("x'^2 + y")
        f = P("x''")
        cert = ritt_reduce_one(f, g, ELIM_XY)
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
        cert = ritt_reduce_one(f, g, ELIM_XY)
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
    def test_divisors_must_be_autoreduced(self):
        with pytest.raises(NotAutoreducedError):
            ritt_reduce_seq(P("y"), [P("x'"), P("x'' + y")], ELIM_XY)

    def test_empty_divisors_rejected(self):
        with pytest.raises(ValueError):
            ritt_reduce_seq(P("y"), [], ELIM_XY)

    def test_step_cap_is_enforced(self):
        with pytest.raises(StepLimitExceeded):
            ritt_reduce_one(P("x^(3)"), P("x'^2 + y"), ELIM_XY, step_cap=1)
