"""Order matrices and Jacobi numbers.

For a square system u_1..u_n in variables x_1..x_n, the order matrix holds
a[i][j] = order of u_i in x_j, and the Jacobi number is the maximum over
permutations sigma of sum_i a[sigma(i)][i] -- a maximum-weight assignment of
equations to variables scored by orders.  Two conventions differ on absent
variables: MaxPlus scores them 0, MinusInfinity makes them forbidden edges.

Absent entries are a genuine sentinel (never a large negative stand-in), a
forbidden pair for the assignment solve, which runs once on exact integers
(see jacobi_assign); the value is re-summed from the exact entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .diffpoly import Convention, DiffPoly, NEG_INF, _NegInf

BRUTE_LIMIT = 9


@dataclass(frozen=True)
class OrderMatrix:
    """Square matrix of orders, rows indexed by equations and columns by
    variables, tagged with the convention that produced it."""

    entries: tuple  # tuple[tuple[int | NEG_INF, ...], ...]
    convention: Convention

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValueError("empty order matrix")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("order matrix must be square")
            for e in row:
                if isinstance(e, _NegInf):
                    if self.convention is Convention.MAX_PLUS:
                        raise ValueError("MaxPlus entries must be nonnegative integers")
                elif isinstance(e, int):
                    if e < 0:
                        raise ValueError("orders are nonnegative")
                else:
                    raise ValueError(f"bad order entry {e!r}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_text(self) -> str:
        cells = [[("-inf" if isinstance(e, _NegInf) else str(e)) for e in row] for row in self.entries]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)


def order_matrix(us: Sequence[DiffPoly], convention: Convention = Convention.MAX_PLUS) -> OrderMatrix:
    """Order matrix of a square system: entry (i, j) is the order of the
    i-th equation in the j-th variable of the shared context."""
    if not us:
        raise ValueError("empty system")
    ctx = us[0].context
    for u in us:
        if u.context != ctx:
            raise ValueError("mixed ring contexts")
    if len(us) != len(ctx.names):
        raise ValueError(
            f"need a square system: {len(us)} equations over {len(ctx.names)} variables"
        )
    rows = tuple(
        tuple(u.order_of(j, convention) for j in range(ctx.n)) for u in us
    )
    return OrderMatrix(entries=rows, convention=convention)


@dataclass(frozen=True)
class JacobiResult:
    """Value of the assignment maximum and one witness permutation sigma
    (variable index -> equation index); no witness when the value is -inf."""

    value: object  # int | NEG_INF
    witness: Optional[tuple] = None

    def __post_init__(self):
        if isinstance(self.value, _NegInf):
            if self.witness is not None:
                raise ValueError("no witness exists for value -inf")
        elif self.witness is None:
            raise ValueError("finite value requires a witness")


def _score(m: OrderMatrix, sigma: Sequence[int]):
    total = 0
    for i, row in enumerate(sigma):
        e = m.entries[row][i]
        if isinstance(e, _NegInf):
            return NEG_INF
        total += e
    return total


def jacobi_brute(m: OrderMatrix) -> JacobiResult:
    """Exact maximum by enumerating all permutations (n <= 9); ties go to
    the lexicographically smallest witness."""
    n = m.n
    if n > BRUTE_LIMIT:
        raise ValueError(f"n={n} exceeds brute-force limit {BRUTE_LIMIT}; use jacobi_assign")
    best = NEG_INF
    best_sigma = None
    for sigma in itertools.permutations(range(n)):
        s = _score(m, sigma)
        if isinstance(s, _NegInf):
            continue
        if best_sigma is None or s > best:
            best = s
            best_sigma = sigma
    if best_sigma is None:
        return JacobiResult(NEG_INF, None)
    return JacobiResult(best, best_sigma)


def _min_cost_matching(cost: Sequence[Sequence[Optional[int]]]) -> Optional[list]:
    """Kuhn-Munkres by shortest augmenting paths with integer potentials.
    cost[r][c] is an int, or None for a forbidden pair.  Returns the row
    matched to each column at minimum total cost, or None when no perfect
    matching exists."""
    n = len(cost)
    u, v = [0] * n, [0] * n
    row_of: list = [None] * (n + 1)  # column n is a virtual root holding the row being inserted
    for r in range(n):
        row_of[n], col = r, n
        dist: list = [None] * n  # reduced length of the shortest path from r to each column
        prev, done = [n] * n, [False] * n
        while row_of[col] is not None:
            row, ui = cost[row_of[col]], u[row_of[col]]
            for c in range(n):
                if not done[c] and row[c] is not None:
                    w = row[c] - ui - v[c]
                    if dist[c] is None or w < dist[c]:
                        dist[c], prev[c] = w, col
            reached = [c for c in range(n) if not done[c] and dist[c] is not None]
            if not reached:
                return None  # Hall's condition fails on the rows reached so far
            col = min(reached, key=dist.__getitem__)
            step = dist[col]
            u[r] += step
            for c in range(n):
                if done[c]:
                    u[row_of[c]] += step
                    v[c] -= step
                elif dist[c] is not None:
                    dist[c] -= step
            done[col] = True
        while col != n:
            back = prev[col]
            row_of[col] = row_of[back]
            col = back
    return row_of[:n]


def jacobi_assign(m: OrderMatrix) -> JacobiResult:
    """Same contract as jacobi_brute, by one exact assignment solve.  Variable
    i takes equation j at cost -a[j][i]*B^n + j*B^(n-1-i) with B = n + 1.  The
    tie-break terms of a permutation sigma spell the base-B number
    sigma(0)...sigma(n-1) < B^n, so the minimum cost first maximises the order
    sum and then picks the lexicographically smallest sigma among the maxima."""
    n, a = m.n, m.entries
    scale, tie = (n + 1) ** n, [(n + 1) ** (n - 1 - i) for i in range(n)]
    cost = [[None if isinstance(a[j][i], _NegInf) else j * tie[i] - a[j][i] * scale for j in range(n)]
            for i in range(n)]
    row_of = _min_cost_matching(cost)
    if row_of is None:
        return JacobiResult(NEG_INF, None)
    sigma = tuple(sorted(range(n), key=row_of.__getitem__))  # the inverse of row_of
    return JacobiResult(_score(m, sigma), sigma)


def ritt_bound(m: OrderMatrix) -> int:
    """Sum over variables of the highest order any equation reaches in that
    variable.  Only meaningful under MaxPlus."""
    if m.convention is not Convention.MAX_PLUS:
        raise ValueError("ritt_bound is defined for MaxPlus order matrices")
    return sum(max(m.entries[i][j] for i in range(m.n)) for j in range(m.n))


def jacobi_number(us: Sequence[DiffPoly], convention: Convention = Convention.MAX_PLUS) -> JacobiResult:
    """Jacobi number of a square system, solver-backed."""
    return jacobi_assign(order_matrix(us, convention))
