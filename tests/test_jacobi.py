"""Assignment maxima of order matrices, two independent solvers, and the
column-sum bound."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import diffalg.jacobi
from diffalg import (
    Context,
    Convention,
    OrderMatrix,
    QQ,
    jacobi_assign,
    order_matrix,
    ritt_bound,
)
from diffalg.jacobi import _warm_start
from diffalg.sysfile import parse_poly

from reference_engines import BRUTE_LIMIT, jacobi_brute, jacobi_number

XY = Context(("x", "y"), QQ)


def P(src, ctx=XY):
    return parse_poly(src, ctx)


def M(rows, convention=Convention.MAX_PLUS):
    return OrderMatrix(entries=tuple(tuple(r) for r in rows), convention=convention)


@st.composite
def maxplus_matrices(draw, max_n=5, max_order=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [
        [draw(st.integers(min_value=0, max_value=max_order)) for _ in range(n)]
        for _ in range(n)
    ]
    return M(rows)


@st.composite
def minusinf_matrices(draw, max_n=4, max_order=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.one_of(st.none(), st.integers(min_value=0, max_value=max_order))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return M(rows, Convention.MINUS_INFINITY)


def planted(n, seed, density=0.3):
    """An n x n order matrix whose entries on a random permutation sigma are
    3 or 4 and whose others are at most 2, so sigma is the unique optimum.
    Returns the matrix, its value and sigma."""
    rng = random.Random(seed)
    sigma = list(range(n))
    rng.shuffle(sigma)
    rows = [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    for j in range(n):
        rows[sigma[j]][j] = rng.randint(3, 4)
    return M(rows), sum(rows[sigma[j]][j] for j in range(n)), tuple(sigma)


class TestOrderMatrix:
    def test_from_system(self):
        m = order_matrix([P("x'' + y"), P("x'^2 + y")])
        assert m.entries == ((2, 0), (1, 0))

    def test_minus_infinity_records_absence(self):
        m = order_matrix([P("x''"), P("x'*y")], Convention.MINUS_INFINITY)
        assert m.entries[0][1] is None
        assert m.entries[1][0] == 1

    def test_maxplus_reads_none_as_zero(self):
        rows = [[2, None], [None, 1]]
        m = OrderMatrix.from_orders(rows, Convention.MAX_PLUS)
        assert m.entries == ((2, 0), (0, 1))
        assert OrderMatrix.from_orders(rows, Convention.MINUS_INFINITY).entries == ((2, None), (None, 1))
        with pytest.raises(ValueError, match="MaxPlus entries"):
            M(rows)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            order_matrix([P("x + y")])

    def test_rejects_ragged_or_negative(self):
        with pytest.raises(ValueError):
            M([[1, 2], [3]])
        with pytest.raises(ValueError):
            M([[-1]])


class TestSolvers:
    def test_flagship_value(self):
        r = jacobi_number([P("x'' + y"), P("x'^2 + y")])
        assert r.value == 2
        assert r.witness == (0, 1)  # x from eq 1, y from eq 2

    def test_brute_examples(self):
        assert jacobi_brute(M([[2, 0], [1, 0]])).value == 2
        assert jacobi_brute(M([[0, 1], [1, 1]])).value == 2
        assert jacobi_brute(M([[3]])).value == 3

    def test_infeasible_is_minus_infinity(self):
        m = M([[None, None], [1, None]], Convention.MINUS_INFINITY)
        r = jacobi_assign(m)
        assert r.value is None
        assert r.witness is None
        assert jacobi_brute(m).value is None

    def test_partial_infeasibility_is_fine(self):
        m = M([[None, 2], [1, None]], Convention.MINUS_INFINITY)
        assert jacobi_assign(m).value == 3

    @given(maxplus_matrices())
    @settings(max_examples=200, deadline=None)
    def test_assign_matches_brute(self, m):
        a = jacobi_assign(m)
        b = jacobi_brute(m)
        assert a.value == b.value
        assert a.witness == b.witness  # both lexicographically smallest

    @given(minusinf_matrices())
    @settings(max_examples=150, deadline=None)
    def test_assign_matches_brute_with_gaps(self, m):
        a = jacobi_assign(m)
        b = jacobi_brute(m)
        assert a.value == b.value
        assert a.witness == b.witness

    @given(
        st.one_of(
            maxplus_matrices(max_n=7, max_order=1),
            minusinf_matrices(max_n=7, max_order=1),
            minusinf_matrices(max_n=7, max_order=0),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_assign_matches_brute_on_ties(self, m):
        a = jacobi_assign(m)
        b = jacobi_brute(m)
        assert a.value == b.value
        assert a.witness == b.witness

    def test_orders_beyond_double_precision(self):
        # B and B + 3 round to the same double: the optimum is exact only in integers
        B = 2**60
        m = M([[B, B + 3], [B + 3, B]])
        a = jacobi_assign(m)
        assert a.value == 2 * B + 6
        assert a.witness == (1, 0)
        assert jacobi_brute(m) == a

    @pytest.mark.parametrize("n", range(BRUTE_LIMIT + 1, 41))
    def test_planted_optimum_above_brute_limit(self, n):
        for density in (0.3, 1.0):
            m, value, sigma = planted(n, seed=n, density=density)
            r = jacobi_assign(m)
            assert r.value == value
            assert r.witness == sigma

    def test_all_ties_give_identity_at_n40(self):
        r = jacobi_assign(M([[1] * 40 for _ in range(40)]))
        assert r.value == 40
        assert r.witness == tuple(range(40))

    def test_forbidden_column_is_infeasible_at_n40(self):
        rng = random.Random(40)
        rows = [[None if rng.random() < 0.2 else rng.randint(0, 5) for _ in range(40)] for _ in range(40)]
        for row in rows:
            row[17] = None
        r = jacobi_assign(M(rows, Convention.MINUS_INFINITY))
        assert r.value is None
        assert r.witness is None

    def test_witness_is_lex_smallest_among_ties(self):
        # every assignment scores 2: the witness must be the identity
        r = jacobi_assign(M([[1, 1], [1, 1]]))
        assert r.witness == (0, 1)

    def test_witness_scores_the_value(self):
        m = M([[3, 1, 0], [2, 2, 0], [0, 1, 4]])
        r = jacobi_assign(m)
        assert r.value == sum(m.entries[r.witness[j]][j] for j in range(3))

    def test_brute_size_guard(self):
        n = BRUTE_LIMIT + 1
        big = M([[0] * n for _ in range(n)])
        with pytest.raises(ValueError, match="assign"):
            jacobi_brute(big)


@st.composite
def cost_matrices(draw, max_n=6):
    """Square integer cost matrices with forbidden (None) pairs, the values
    drawn from a small range so that ties are common."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


class TestWarmStart:
    @given(cost_matrices())
    @settings(max_examples=300, deadline=None)
    def test_potentials_are_feasible_and_matched_edges_tight(self, cost):
        n = len(cost)
        start = _warm_start(cost)
        if start is None:
            columns = [[row[c] for row in cost] for c in range(n)]
            assert any(all(x is None for x in line) for line in cost + columns)
            return
        u, v, row_of = start
        for r in range(n):
            for c in range(n):
                if cost[r][c] is not None:
                    assert cost[r][c] - u[r] - v[c] >= 0
        matched = [(r, c) for c, r in enumerate(row_of) if r is not None]
        assert len({r for r, _ in matched}) == len(matched)
        assert matched, "the first column's arg-min row is always matched"
        for r, c in matched:
            assert cost[r][c] - u[r] - v[c] == 0

    def test_rows_matched_on_the_all_ties_matrix_at_n40(self, monkeypatch):
        # Every column's minimum lies in row 0 (column 0, where all rows
        # tie) or row 39 (the smallest tie-break weight), so column
        # reduction matches two rows and the other 38 are augmented.
        matchings = []

        def warm_start(cost):
            start = _warm_start(cost)
            matchings.append(list(start[2]))  # the solve goes on to change it in place
            return start

        monkeypatch.setattr(diffalg.jacobi, "_warm_start", warm_start)
        jacobi_assign(M([[1] * 40 for _ in range(40)]))
        (row_of,) = matchings
        assert [(c, r) for c, r in enumerate(row_of) if r is not None] == [(0, 0), (1, 39)]


class TestRittBound:
    def test_bound_is_column_max_sum(self):
        assert ritt_bound(M([[2, 0], [1, 3]])) == 2 + 3

    @given(maxplus_matrices())
    @settings(max_examples=200, deadline=None)
    def test_jacobi_never_exceeds_bound(self, m):
        assert jacobi_assign(m).value <= ritt_bound(m)

    def test_only_defined_for_maxplus(self):
        m = M([[None]], Convention.MINUS_INFINITY)
        with pytest.raises(ValueError):
            ritt_bound(m)
