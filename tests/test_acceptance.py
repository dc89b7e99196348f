"""End-to-end acceptance gate.

Eight checks, one test each.  Every check prints a single PASS/FAIL line
(visible under ``pytest -s``; under plain ``pytest -v`` the per-test verdict
line plays the same role) and enforces a wall-clock budget on top of its
assertions.  Everything asserted here is exact: polynomial equality over Q or
Q(t), certificates re-expanded term by term, membership witnesses re-checked
by plain arithmetic.  The randomized suites in check 7 use fixed seeds so a
failure reproduces byte-for-byte.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

import diffalg.reduction
from diffalg import (
    CharSetComponent,
    ConcretePoint,
    Context,
    Convention,
    DerVar,
    DiffOperator,
    DiffPoly,
    JbcVerdict,
    Monomial,
    OrderMatrix,
    PreparedSeq,
    QQ,
    QT,
    Ranking,
    StepLimitExceeded,
    TruncationBounds,
    analyze,
    component_dimension,
    extended_context,
    is_reduced,
    jacobi_assign,
    jbc_check,
    linearize_at,
    linearize_sym,
    linearized_order_matrix,
    order_matrix,
    parse_poly,
    radical_member,
    ritt_bound,
    ritt_reduce_seq,
    split_decompose,
    truncated_member,
    verify_certificate,
    verify_witness,
)

from reference_engines import jacobi_brute, jacobi_number

XY = Context(("x", "y"), QQ)
XY_T = Context(("x", "y"), QT)
ELIM_XY = Ranking.elimination(2, [0, 1])  # x above y


def P(src, ctx=XY):
    return parse_poly(src, ctx)


@contextmanager
def _check(num: int, label: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"check {num} ({label}): FAIL [{time.monotonic() - t0:.2f}s]")
        raise
    dt = time.monotonic() - t0
    verdict = "PASS" if dt <= budget_s else "FAIL"
    print(f"check {num} ({label}): {verdict} [{dt:.2f}s, budget {budget_s:.0f}s]")
    assert dt <= budget_s, f"check {num} blew its {budget_s:.0f}s budget: {dt:.2f}s"


def _le(a, b) -> bool:
    """a <= b where either side may be None, an absent order (-inf)."""
    if a is None:
        return True
    if b is None:
        return False
    return a <= b


def _rand_poly(rng: random.Random, ctx: Context, max_order=3, max_degree=3, max_terms=3) -> DiffPoly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        factors = {}
        for _ in range(rng.randint(0, 2)):
            v = DerVar(rng.randrange(ctx.n), rng.randint(0, max_order))
            factors[v] = min(factors.get(v, 0) + rng.randint(1, max_degree), max_degree)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if c:
            terms.append((Monomial.make(factors.items()), ctx.field.from_fraction(c)))
    return DiffPoly.from_terms(ctx, terms)


def _rand_contexts(rng: random.Random, max_vars=3) -> Context:
    return Context(("x", "y", "z")[: rng.randint(1, max_vars)], QQ)


def _origin(ctx: Context) -> ConcretePoint:
    return ConcretePoint(ctx, {j: ctx.field.zero for j in range(ctx.n)})


# ---------------------------------------------------------------- check 1

def test_check_1_division_certificate_over_qt():
    with _check(1, "division certificate over Q(t)", 1.0):
        f = P("x' + y'''", XY_T)
        g = P("x^2 + y''*x' + t", XY_T)

        cert = ritt_reduce_seq(f, PreparedSeq([g], ELIM_XY))
        assert verify_certificate(cert, f, (g,), ELIM_XY)
        assert is_reduced(cert.remainder, analyze(g, ELIM_XY))
        assert cert.multiplier == P("y''", XY_T)
        assert cert.remainder == P("y''*y''' - x^2 - t", XY_T)

        # A hand-checkable certificate for the same pair: with
        #   s = -x'^2,   Q = x''  -  x' * d/dt,   r as below,
        # the identity  s*f = Q(g) + r  must close under direct expansion.
        s = P("-x'^2", XY_T)
        q_op = DiffOperator.of(P("x''", XY_T)) + DiffOperator.of(P("-x'", XY_T), 1)
        r = P("-x^2*x'' - t*x'' - x'^3 + 2*x*x'^2 + x'", XY_T)
        assert s * f == q_op.apply(g) + r


# ---------------------------------------------------------------- check 2

def test_check_2_two_component_split_of_coupled_pair():
    with _check(2, "two-component split of a coupled pair", 5.0):
        us = (P("x'' + y"), P("x'^2 + y"))
        dec = split_decompose(us, ELIM_XY)
        assert dec.complete
        assert len(dec.components) == 2
        assert all(c.finite_dimensional for c in dec.components)

        comps = sorted(dec.components, key=component_dimension)
        assert [component_dimension(c) for c in comps] == [1, 2]

        # Same zero sets as the classical pair of characteristic sequences,
        # shown by mutual membership in both directions.
        classic_small = CharSetComponent(ELIM_XY, (P("y"), P("x'")))
        classic_big = CharSetComponent(
            ELIM_XY, (P("y'^2 + 4*y^3"), P("2*y*x' - y'")), (P("y"),)
        )
        for ours, classic in ((comps[0], classic_small), (comps[1], classic_big)):
            for p in ours.sequence:
                assert classic.membership(p)
            for q in classic.sequence:
                assert ours.membership(q)

        assert jacobi_number(us).value == 2
        rep = jbc_check(us, ELIM_XY)
        assert rep.verdict is JbcVerdict.HOLDS


# ---------------------------------------------------------------- check 3

def test_check_3_truncated_membership_of_derivative_powers():
    with _check(3, "truncated membership of derivative powers", 30.0):
        ctx = Context(("x",), QQ)
        gens = (P("x^2", ctx),)

        f1 = P("x'^3", ctx)
        w1 = truncated_member(f1, gens, TruncationBounds(2, 3, 6, 1))
        assert w1.is_member()
        assert verify_witness(f1, gens, w1)

        f2 = P("x''^5", ctx)
        w2 = truncated_member(f2, gens, TruncationBounds(3, 6, 12, 1))
        assert w2.is_member()
        assert verify_witness(f2, gens, w2)


# ---------------------------------------------------------------- check 4

def test_check_4_radical_membership_on_the_cusp():
    with _check(4, "radical membership on the cusp system", 10.0):
        gens = (P("y^2 - x^3"), P("x'"))
        f = P("y'")
        w = radical_member(f, gens, TruncationBounds())
        assert w.is_member()
        assert w.power == 3
        assert verify_witness(f, gens, w)


# ---------------------------------------------------------------- check 5

def test_check_5_algebraic_syzygy_and_span_exclusion():
    with _check(5, "algebraic syzygy and span exclusion", 1.0):
        stu = Context(("s", "t", "u"), QQ)
        g1 = P("s^2 + t*u", stu)
        g2 = P("t^2 + u*s", stu)
        g3 = P("u^2 + s*t", stu)
        lhs = P("2*s^4", stu)

        combo = P("2*s^2 - t*u", stu) * g1 + P("u^2", stu) * g2 - P("s*u", stu) * g3
        assert lhs == combo

        w = truncated_member(lhs, (g1, g2, g3), TruncationBounds(0, 6, 4, 1))
        assert w.is_member()
        assert verify_witness(lhs, (g1, g2, g3), w)

        # Exact linear algebra on the degree <= 1 slice of the span: empty,
        # so the generator s itself is unreachable and the search says so.
        miss = truncated_member(P("s", stu), (g1, g2, g3), TruncationBounds(0, 6, 1, 1))
        assert not miss.is_member()
        assert "no combination exists" in miss.diagnostic


# ---------------------------------------------------------------- check 6

def test_check_6_linearization_at_points():
    with _check(6, "linearization at points and its order drop", 1.0):
        cx = Context(("x",), QQ)
        assert linearize_at(P("x^2", cx), _origin(cx)).is_zero()

        us = (P("y^2 - x^3"), P("x'"))
        origin = _origin(XY)
        ext = extended_context(XY)
        assert linearize_at(us[0], origin).is_zero()
        assert linearize_at(us[1], origin).poly == parse_poly("dx'", ext)

        tangents = [linearize_at(u, origin) for u in us]
        strong = jacobi_assign(linearized_order_matrix(tangents, Convention.MINUS_INFINITY))
        assert strong.value is None
        assert jacobi_number(us).value == 1


# ---------------------------------------------------------------- check 7

CASES = 1000


def _prop_leibniz(cases: int) -> None:
    rng = random.Random(101)
    for _ in range(cases):
        ctx = _rand_contexts(rng)
        a = _rand_poly(rng, ctx)
        b = _rand_poly(rng, ctx)
        assert (a * b).derive() == a.derive() * b + a * b.derive(), (a.to_text(), b.to_text())


def _prop_order_increment(cases: int) -> None:
    rng = random.Random(102)
    for _ in range(cases):
        ctx = _rand_contexts(rng)
        p = _rand_poly(rng, ctx)
        dp = p.derive()
        for j in range(ctx.n):
            o = p.order_of(j)
            want = None if o is None else o + 1
            assert dp.order_of(j) == want, p.to_text()


def _prop_reduction_certificates(cases: int) -> None:
    rng = random.Random(103)
    done = 0
    attempts = 0
    while done < cases:
        attempts += 1
        assert attempts <= 4 * cases, f"too many skips: {done} verified in {attempts} draws"
        ctx = _rand_contexts(rng)
        rk = Ranking.elimination(ctx.n)
        divisor = _rand_poly(rng, ctx)
        dividend = _rand_poly(rng, ctx)
        if divisor.is_constant():
            continue
        try:
            with patch.object(diffalg.reduction, "MAX_WORK", 50_000):
                cert = ritt_reduce_seq(dividend, PreparedSeq([divisor], rk))
        except StepLimitExceeded:
            continue
        assert verify_certificate(cert, dividend, (divisor,), rk)
        assert is_reduced(cert.remainder, analyze(divisor, rk))
        done += 1


def _prop_linearize_compat(cases: int) -> None:
    rng = random.Random(104)
    for _ in range(cases):
        ctx = _rand_contexts(rng, max_vars=2)
        pt = ConcretePoint(
            ctx, {j: ctx.field.from_fraction(Fraction(rng.randint(-3, 3))) for j in range(ctx.n)}
        )
        a = _rand_poly(rng, ctx)
        b = _rand_poly(rng, ctx)
        la = linearize_at(a, pt, require_zero=False).poly
        lb = linearize_at(b, pt, require_zero=False).poly
        assert linearize_at(a + b, pt, require_zero=False).poly == la + lb
        c = ctx.field.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        assert linearize_at(a.scale(c), pt, require_zero=False).poly == la.scale(c)
        assert linearize_at(a.derive(), pt, require_zero=False).poly == la.derive()
        assert linearize_sym(a.derive()).poly == linearize_sym(a).poly.derive()


def _prop_tangent_order_bound(cases: int) -> None:
    rng = random.Random(105)
    for _ in range(cases):
        ctx = _rand_contexts(rng)
        pt = ConcretePoint(
            ctx, {j: ctx.field.from_fraction(Fraction(rng.randint(-3, 3))) for j in range(ctx.n)}
        )
        u = _rand_poly(rng, ctx)
        lu = linearize_at(u, pt, require_zero=False)
        for j, got in enumerate(lu.tangent_orders()):
            assert _le(got, u.order_of(j)), u.to_text()


def _prop_linearized_jacobi_bound(cases: int) -> None:
    rng = random.Random(106)
    for _ in range(cases):
        ctx = _rand_contexts(rng)
        origin = _origin(ctx)
        us = []
        for _ in range(ctx.n):
            p = _rand_poly(rng, ctx)
            us.append(p - DiffPoly.const(ctx, p.eval_at(origin)))
        us = tuple(us)
        lin = jacobi_assign(linearized_order_matrix([linearize_at(u, origin) for u in us]))
        assert _le(lin.value, jacobi_number(us).value), [u.to_text() for u in us]


def _prop_assign_matches_brute(cases: int) -> None:
    rng = random.Random(107)
    for _ in range(cases):
        n = rng.randint(1, 7)
        minusinf = rng.random() < 0.5
        rows = tuple(
            tuple(
                None if (minusinf and rng.random() < 0.25) else rng.randint(0, 6)
                for _ in range(n)
            )
            for _ in range(n)
        )
        m = OrderMatrix(rows, Convention.MINUS_INFINITY if minusinf else Convention.MAX_PLUS)
        a = jacobi_assign(m)
        b = jacobi_brute(m)
        assert a.value == b.value and a.witness == b.witness, rows


def _prop_ritt_bound_dominates(cases: int) -> None:
    rng = random.Random(108)
    for _ in range(cases):
        ctx = _rand_contexts(rng)
        us = tuple(_rand_poly(rng, ctx) for _ in range(ctx.n))
        m = order_matrix(us)
        assert _le(jacobi_assign(m).value, ritt_bound(m)), [u.to_text() for u in us]


def test_check_7_randomized_property_suites():
    with _check(7, f"eight property suites, {CASES} exact cases each", 60.0):
        _prop_leibniz(CASES)
        _prop_order_increment(CASES)
        _prop_reduction_certificates(CASES)
        _prop_linearize_compat(CASES)
        _prop_tangent_order_bound(CASES)
        _prop_linearized_jacobi_bound(CASES)
        _prop_assign_matches_brute(CASES)
        _prop_ritt_bound_dominates(CASES)


# ---------------------------------------------------------------- check 8

def _assert_equality_case(us, rk, expect: int) -> None:
    rep = jbc_check(us, rk)
    assert rep.verdict is JbcVerdict.HOLDS
    assert rep.weak.value == expect
    assert any(
        r.verified and r.dimension == expect and r.equality for r in rep.records
    ), rep.to_text()


def test_check_8_equality_case_on_characteristic_sequences():
    with _check(8, "dimension meets the bound on characteristic sequences", 10.0):
        _assert_equality_case((P("y'^2 + 4*y^3"), P("2*y*x' - y'")), ELIM_XY, 2)
        _assert_equality_case((P("y"), P("x'")), ELIM_XY, 1)

        # Monic linear systems u_i = x_i^(r_i) + lower-order tail: each is a
        # characteristic sequence with unit separants and initials, and the
        # dimension must land exactly on the assignment bound sum(r_i).
        rng = random.Random(2026)
        for _ in range(20):
            n = rng.randint(2, 4)
            ctx = Context(tuple("xyzw")[:n], QQ)
            orders = [rng.randint(1, 3) for _ in range(n)]
            low = min(orders)
            us = []
            for i in range(n):
                p = DiffPoly.var(ctx, i, orders[i])
                for _ in range(rng.randint(0, 2)):
                    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    if c:
                        tail = DiffPoly.var(ctx, rng.randrange(n), rng.randrange(low))
                        p = p + tail.scale(ctx.field.from_fraction(c))
                us.append(p)
            _assert_equality_case(tuple(us), Ranking.orderly(n), sum(orders))
