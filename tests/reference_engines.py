"""Independent reference engines that the tests and scripts/random_audit.py
check the library against; none of them is on a path the library takes.

* jacobi_brute enumerates every permutation, the reference for
  jacobi_assign's assignment solve;
* jacobi_number is the order matrix of a system followed by jacobi_assign;
* first_order_expansion evaluates u at (point + eps*y) by dual numbers,
  with no partial derivative, the reference for linearize_at's one pass;
* verify_component re-checks a component against its system by one
  membership test per input and per inequation.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from diffalg import (
    CharSetComponent,
    ConcretePoint,
    Convention,
    DiffPoly,
    JacobiResult,
    LinearizedPoly,
    Monomial,
    OrderMatrix,
    extended_context,
    jacobi_assign,
    order_matrix,
)
from diffalg.diffpoly import _accumulate
from diffalg.jacobi import _score
from diffalg.linearize import tangent_dervar

BRUTE_LIMIT = 9


def jacobi_brute(m: OrderMatrix) -> JacobiResult:
    """Exact maximum by enumerating all permutations (n <= 9); ties go to
    the lexicographically smallest witness."""
    n = m.n
    if n > BRUTE_LIMIT:
        raise ValueError(f"n={n} exceeds brute-force limit {BRUTE_LIMIT}; use jacobi_assign")
    best, best_sigma = None, None
    for sigma in itertools.permutations(range(n)):
        s = _score(m, sigma)
        if s is not None and (best is None or s > best):
            best, best_sigma = s, sigma
    return JacobiResult(best, best_sigma)


def jacobi_number(us: Sequence[DiffPoly], convention: Convention = Convention.MAX_PLUS) -> JacobiResult:
    """Jacobi number of a square system, solver-backed."""
    return jacobi_assign(order_matrix(us, convention))


class _Dual:
    """Coefficient pair (value, linear part) for evaluation modulo eps^2;
    the linear part maps tangent jets to field elements."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a
        self.b = b  # dict[DerVar, RatFunc], no zero values

    def mul(self, other: "_Dual") -> "_Dual":
        b: dict = {}
        for k, v in self.b.items():
            _accumulate(b, k, other.a * v)
        for k, v in other.b.items():
            _accumulate(b, k, self.a * v)
        return _Dual(self.field, self.a * other.a, b)

    def add(self, other: "_Dual") -> "_Dual":
        b = dict(self.b)
        for k, v in other.b.items():
            _accumulate(b, k, v)
        return _Dual(self.field, self.a + other.a, b)

    def scale(self, c) -> "_Dual":
        if not c:
            return _Dual(self.field, self.field.zero, {})
        return _Dual(self.field, c * self.a, {k: c * v for k, v in self.b.items()})


def first_order_expansion(u: DiffPoly, pt: ConcretePoint):
    """Evaluate u at (point + eps*y) modulo eps^2 by dual-number arithmetic.

    Returns (value at the point, the eps coefficient as a LinearizedPoly).
    This recomputes the tangent without using partial derivatives, so it
    serves as an independent check of linearize_at.
    """
    ctx = u.context
    if not isinstance(pt, ConcretePoint) or pt.context != ctx:
        raise ValueError("first_order_expansion needs a concrete point of the same context")
    fld = ctx.field
    ext = extended_context(ctx)
    total = _Dual(fld, fld.zero, {})
    for m, c in u.items():
        term = _Dual(fld, fld.one, {})
        for v, e in m.factors:
            base = _Dual(fld, pt.value(v), {tangent_dervar(ctx.n, v): fld.one})
            for _ in range(e):
                term = term.mul(base)
        total = total.add(term.scale(c))
    lin = DiffPoly.from_terms(ext, ((Monomial.of(yv), cv) for yv, cv in total.b.items()))
    return total.a, LinearizedPoly(poly=lin, base_n=ctx.n)


def verify_component(c: CharSetComponent, us: Sequence[DiffPoly]) -> bool:
    """Every input reduces to zero modulo the sequence and every inequation
    reduces to nonzero (the latter holds by construction; re-checked)."""
    return all(c.membership(u).member for u in us) and not any(
        c.membership(q).member for q in c.inequations
    )
