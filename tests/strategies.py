"""Shared hypothesis strategies for differential polynomials, and the
flagship system files."""

from fractions import Fraction

import hypothesis.strategies as st

from diffalg import Context, DerVar, DiffPoly, Monomial, QQ, QT, Ranking, RatFunc

NAMES = ("x", "y", "z")

# The flagship pair, and the second of the two component blocks that
# `diffalg decompose` prints for it (dimension 2).
FLAGSHIP = """\
field: Q
vars: x, y
ranking: elim x > y
eq u1 = x'' + y
eq u2 = x'^2 + y
point p0: x = 0, y = 0
"""

FLAGSHIP_COMPONENT_2 = """\
ranking: elim x > y
charset: y^3 + 1/4*y'^2; x'*y - 1/2*y'
ineqs: y; y'
prime: no
"""


@st.composite
def small_rationals(draw, max_num=9, max_den=4):
    """Small Fractions: values as they come in, before the field boundary."""
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.integers(min_value=1, max_value=max_den))
    return Fraction(num, den)


def small_fractions(max_num=9, max_den=4):
    """Small elements of Q, built from Fractions at the field boundary."""
    return small_rationals(max_num, max_den).map(QQ.from_fraction)


@st.composite
def t_fractions(draw):
    """Elements of Q(t) with a pole: (a + b*t)/(c + t) for small rationals
    a, b and a small integer c, so that eliminating on them divides by
    coefficients that depend on t.  Zero when a = b = 0, constant only
    when a = b*c."""
    a, b = draw(small_rationals()), draw(small_rationals())
    c = draw(st.integers(min_value=-3, max_value=3))
    return RatFunc.make((a, b), (c, 1))


@st.composite
def contexts(draw, max_vars=3, fields=(QQ,)):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    field = draw(st.sampled_from(fields))
    return Context(NAMES[:n], field)


@st.composite
def dervars(draw, ctx, max_order=3):
    var = draw(st.integers(min_value=0, max_value=ctx.n - 1))
    order = draw(st.integers(min_value=0, max_value=max_order))
    return DerVar(var, order)


@st.composite
def monomials(draw, ctx, max_order=3, max_degree=3, max_factors=2):
    k = draw(st.integers(min_value=0, max_value=max_factors))
    factors = {}
    budget = max_degree
    for _ in range(k):
        if budget <= 0:
            break
        v = draw(dervars(ctx, max_order))
        e = draw(st.integers(min_value=1, max_value=budget))
        factors[v] = min(factors.get(v, 0) + e, max_degree)
        budget -= e
    return Monomial.make(factors.items())


@st.composite
def diffpolys(draw, ctx=None, max_order=3, max_degree=3, max_terms=4, coeffs=small_fractions()):
    """Small sparse polynomials; zero comes up naturally when all drawn
    coefficients cancel, and is also injected explicitly now and then.
    Coefficients are drawn from coeffs: small elements of Q unless another
    strategy is given (t_fractions() for a Q(t) context)."""
    if ctx is None:
        ctx = draw(contexts())
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        return DiffPoly.zero(ctx)
    terms = draw(
        st.lists(
            st.tuples(monomials(ctx, max_order, max_degree), coeffs),
            min_size=1,
            max_size=max_terms,
        )
    )
    return DiffPoly.from_terms(ctx, terms)


@st.composite
def rankings(draw, ctx):
    order = draw(st.permutations(list(range(ctx.n))))
    if draw(st.booleans()):
        return Ranking.elimination(ctx.n, order)
    return Ranking.orderly(ctx.n, order)


@st.composite
def splitting_nodes(draw, ctx, ranking, max_size=5):
    """Nodes of a splitting tree: sets of monic nonconstant equations, in
    half of them none a single term (so that the monomial rule does not
    take them).  Some equations are drawn as c*p + r for an equation p
    already drawn and a small r, so that two of them often share a leader
    and its degree, a tie in rank key (as x'' and y - 1/4*x'' under
    elim x > y); some as h * v^d for the greatest jet v of order 2 under
    the ranking and a two-term h below it, the power rule's shape."""
    least = draw(st.sampled_from((1, 2)))  # the fewest terms of an equation
    eqs = draw(
        st.lists(
            diffpolys(ctx, max_order=2, max_degree=2, max_terms=3).filter(
                lambda p: not p.is_constant() and p.term_count() >= least
            ),
            min_size=1,
            max_size=max_size,
        )
    )
    small = diffpolys(ctx, max_order=1, max_degree=1, max_terms=2)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            c = draw(small_fractions().filter(bool))
            q = draw(st.sampled_from(eqs)).scale(c) + draw(small)
        else:
            v = DiffPoly.var(ctx, max(range(ctx.n), key=lambda i: ranking.key(DerVar(i, 2))), 2)
            h = draw(small.filter(lambda h: h.term_count() == 2))
            q = h * v ** draw(st.integers(min_value=1, max_value=2))
        if not q.is_constant() and q.term_count() >= least:
            eqs.append(q)
    return frozenset(p.monic() for p in eqs)
