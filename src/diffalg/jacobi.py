"""Order matrices and Jacobi numbers.

For a square system u_1..u_n in variables x_1..x_n, the order matrix holds
a[i][j] = order of u_i in x_j, and the Jacobi number is the maximum over
permutations sigma of sum_i a[sigma(i)][i] -- a maximum-weight assignment of
equations to variables scored by orders.  Two conventions differ on absent
variables: MaxPlus scores them 0, MinusInfinity makes them forbidden edges.

An absent order is None from DiffPoly.orders to the assignment solve,
and only OrderMatrix.from_orders applies a convention to it.  Under
MinusInfinity None is a forbidden pair for the solve, which runs once on
exact integers (see jacobi_assign); the value is re-summed from the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .diffpoly import DiffPoly


class Convention(Enum):
    """Order of a variable that does not occur.

    MAX_PLUS: the max over occurring derivative orders, with the max of the
    empty set defined as 0.  MINUS_INFINITY: absent (None, written -inf), a
    pair the assignment may not use.
    """

    MAX_PLUS = "maxplus"
    MINUS_INFINITY = "minusinf"


def order_text(value: Optional[int]) -> str:
    """An order or a Jacobi value as printed: None is -inf."""
    return "-inf" if value is None else str(value)


@dataclass(frozen=True)
class OrderMatrix:
    """Square matrix of orders, rows indexed by equations and columns by
    variables, tagged with the convention that produced it.  An entry is an
    int, or None for an absent variable under MinusInfinity."""

    entries: tuple  # tuple[tuple[Optional[int], ...], ...]
    convention: Convention

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValueError("empty order matrix")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("order matrix must be square")
            for e in row:
                if e is None:
                    if self.convention is Convention.MAX_PLUS:
                        raise ValueError("MaxPlus entries must be nonnegative integers")
                elif isinstance(e, int):
                    if e < 0:
                        raise ValueError("orders are nonnegative")
                else:
                    raise ValueError(f"bad order entry {e!r}")

    @classmethod
    def from_orders(cls, rows: Iterable[Iterable[Optional[int]]], convention: Convention) -> "OrderMatrix":
        """The matrix of rows of orders, None where a variable is absent;
        the one place the convention applies: MaxPlus reads None as 0."""
        if convention is Convention.MAX_PLUS:
            rows = ((0 if e is None else e for e in row) for row in rows)
        return cls(tuple(map(tuple, rows)), convention)

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_text(self) -> str:
        cells = [[order_text(e) for e in row] for row in self.entries]
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
    return OrderMatrix.from_orders((u.orders() for u in us), convention)


@dataclass(frozen=True)
class JacobiResult:
    """Value of the assignment maximum and one witness permutation sigma
    (variable index -> equation index); the value is None (-inf), with no
    witness, when every permutation meets an absent entry."""

    value: Optional[int]
    witness: Optional[tuple] = None

    def __post_init__(self):
        if (self.value is None) != (self.witness is None):
            raise ValueError("a witness exists exactly when the value is finite")


def _score(m: OrderMatrix, sigma: Sequence[int]) -> Optional[int]:
    total = 0
    for i, row in enumerate(sigma):
        e = m.entries[row][i]
        if e is None:
            return None
        total += e
    return total


def _warm_start(cost: Sequence[Sequence[Optional[int]]]) -> Optional[tuple]:
    """Column reduction, the start of Jonker and Volgenant's shortest
    augmenting path method ("A shortest augmenting path algorithm for dense
    and sparse linear assignment problems", Computing 38, 1987): potentials
    u, v and a partial matching row_of (column -> row, None where free).

    v[c] is the minimum of column c, and each column's arg-min row (the
    first, in row order) is matched to it while that row is free.  A free
    row r gets u[r] = its least reduced cost cost[r][c] - v[c].  Every
    reduced cost is >= 0 and a matched edge's is 0, so a matched row's
    least reduced cost is 0: the potentials are feasible and every matched
    edge is tight.  None when some column or row has no allowed entry."""
    n = len(cost)
    v: list = [None] * n
    arg: list = [None] * n
    for r, row in enumerate(cost):
        for c, x in enumerate(row):
            if x is not None and (v[c] is None or x < v[c]):
                v[c], arg[c] = x, r
    if None in arg:
        return None  # a column with no allowed entry
    row_of: list = [None] * n
    matched = set()
    for c, r in enumerate(arg):
        if r not in matched:
            matched.add(r)
            row_of[c] = r
    u = [0] * n
    for r in range(n):
        if r not in matched:
            reduced = [x - vc for x, vc in zip(cost[r], v) if x is not None]
            if not reduced:
                return None  # a row with no allowed entry
            u[r] = min(reduced)
    return u, v, row_of


def _min_cost_matching(cost: Sequence[Sequence[Optional[int]]]) -> Optional[list]:
    """Kuhn-Munkres by shortest augmenting paths with integer potentials,
    started warm.  cost[r][c] is an int, or None for a forbidden pair.
    Returns the row matched to each column at minimum total cost, or None
    when no perfect matching exists.

    _warm_start matches some rows along tight edges under feasible
    potentials; each row it leaves free is then inserted by a shortest
    augmenting path, which keeps the potentials feasible and the matched
    edges tight, so the final matching has minimum cost.  Under
    jacobi_assign's costs the witness cannot depend on where the solve
    starts: the tie-break terms give every permutation a distinct total
    cost, so the optimum is unique and any exact solver returns it."""
    start = _warm_start(cost)
    if start is None:
        return None
    u, v, row_of = start
    n = len(cost)
    free = sorted(set(range(n)).difference(row_of))
    row_of.append(None)  # column n is a virtual root holding the row being inserted
    for r in free:
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
    """The maximum order sum over permutations, with the lexicographically
    smallest witness among the maxima, by one exact assignment solve.
    Variable i takes equation j at cost -a[j][i]*B^n + j*B^(n-1-i) with
    B = n + 1.  The tie-break terms of a permutation sigma spell the base-B
    number sigma(0)...sigma(n-1) < B^n, so the minimum cost first maximises
    the order sum and then picks the lexicographically smallest sigma among
    the maxima."""
    n, a = m.n, m.entries
    scale, tie = (n + 1) ** n, [(n + 1) ** (n - 1 - i) for i in range(n)]
    cost = [[None if a[j][i] is None else j * tie[i] - a[j][i] * scale for j in range(n)]
            for i in range(n)]
    row_of = _min_cost_matching(cost)
    if row_of is None:
        return JacobiResult(None, None)
    sigma = tuple(sorted(range(n), key=row_of.__getitem__))  # the inverse of row_of
    return JacobiResult(_score(m, sigma), sigma)


def ritt_bound(m: OrderMatrix) -> int:
    """Sum over variables of the highest order any equation reaches in that
    variable.  Only meaningful under MaxPlus."""
    if m.convention is not Convention.MAX_PLUS:
        raise ValueError("ritt_bound is defined for MaxPlus order matrices")
    return sum(max(m.entries[i][j] for i in range(m.n)) for j in range(m.n))

