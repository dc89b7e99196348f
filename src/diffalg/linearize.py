"""Linearization of differential polynomials.

The tangent of u at a point is the first-order term of u(point + eps*y):
sum over jet variables v of (du/dv at the point) * y_v, where the y_v are
fresh tangent variables.  Tangent variables live in an extended ring context
with twice the variables (index offset n), so ordinary polynomial machinery
applies to linearized objects unchanged, including the derivation: deriving
and linearizing commute.

`linearize_sym` keeps the coefficients as polynomials in the original jets.
`linearize_at` is the one place where u and its partials are evaluated at a
point: a concrete point gives field-element coefficients; a component,
standing for its generic point, gives only the support pattern (coefficient
1 on y_v iff du/dv has nonzero remainder modulo the component), which is
exactly what order counting needs.  The linearized order matrix is read off
those tangents, and its Jacobi number is `jacobi_assign` of that matrix.
`first_order_expansion` recomputes concrete tangents by dual numbers,
without partials, as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import CharSetComponent
from .diffpoly import (
    ConcretePoint,
    Context,
    DerVar,
    DiffPoly,
    Monomial,
    _accumulate,
)
from .jacobi import Convention, OrderMatrix

TANGENT_PREFIX = "d"


class PointNotOnZeroSetError(ValueError):
    """The point is required to be a zero of the polynomial and is not."""


def extended_context(ctx: Context) -> Context:
    """The 2n-variable context: original names, then one tangent name per
    variable (prefixed), over the same field."""
    tangent = tuple(TANGENT_PREFIX + nm for nm in ctx.names)
    clash = set(tangent) & set(ctx.names)
    if clash:
        raise ValueError(f"tangent names collide with variables: {sorted(clash)}")
    return Context(names=ctx.names + tangent, field=ctx.field)


def tangent_dervar(n: int, v: DerVar) -> DerVar:
    """The tangent jet matching an original jet, in the extended context."""
    return DerVar(v.var + n, v.order)


@dataclass(frozen=True)
class LinearizedPoly:
    """A polynomial in the extended context, homogeneous of degree one in the
    tangent block (or zero).  `heuristic` marks support decided modulo a
    component that is not verified prime."""

    poly: DiffPoly
    base_n: int
    heuristic: bool = False

    def __post_init__(self):
        n = self.base_n
        for m in self.poly.monomials():
            tdeg = sum(e for v, e in m.factors if v.var >= n)
            if tdeg != 1:
                raise ValueError("linearized polynomial must be linear in tangent variables")

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def tangent_orders(self) -> tuple:
        """Order in the tangent variable of each original variable, None
        where that tangent variable does not occur; one pass over the
        terms."""
        return self.poly.orders()[self.base_n :]

    def to_text(self) -> str:
        return self.poly.to_text()

    def __repr__(self) -> str:
        return f"LinearizedPoly({self.to_text()})"


def linearize_sym(u: DiffPoly) -> LinearizedPoly:
    """Symbolic tangent: sum over jets v present in u of du/dv * y_v."""
    n = u.context.n
    terms = []
    for v in u.dervars():
        yv = Monomial.of(tangent_dervar(n, v))
        terms.extend((m * yv, c) for m, c in u.partial(v).items())
    return LinearizedPoly(poly=DiffPoly.from_terms(extended_context(u.context), terms), base_n=n)


def linearize_at(u: DiffPoly, pt, require_zero: bool = True) -> LinearizedPoly:
    """Tangent at a ConcretePoint, or at the generic point of a
    CharSetComponent.

    Concrete points give field-element coefficients.  A component gives
    the support pattern: coefficient 1 on y_v exactly when du/dv does not
    vanish on the component (an indicator, not residue-field arithmetic),
    and `heuristic` when any of these answers, or the zero test of u, was
    read modulo a component not verified prime.  The point must be a zero
    of u unless require_zero is dropped (useful for identities that hold
    off the zero set).
    """
    ctx = u.context
    fld = ctx.field
    ext = extended_context(ctx)
    # at(p) -> (coefficient of p at the point, heuristic)
    if isinstance(pt, ConcretePoint):
        if pt.context != ctx:
            raise ValueError("point context mismatch")

        def at(p: DiffPoly):
            return p.eval_at(pt), False

        off_zero_set = "point is not a zero: value {}"
    elif isinstance(pt, CharSetComponent):

        def at(p: DiffPoly):
            v = pt.membership(p)
            return (fld.zero if v.member else fld.one), v.heuristic

        off_zero_set = "polynomial has nonzero remainder at the generic point"
    else:
        raise TypeError(f"not a differential point: {type(pt).__name__}")
    heuristic = False
    if require_zero:
        value, heuristic = at(u)
        if value:
            try:
                shown = fld.text(value)
            except ValueError:  # past Python's limit on integer-string conversion
                shown = f"of {fld.bits(value)} bits"
            raise PointNotOnZeroSetError(off_zero_set.format(shown))
    terms = []
    for v in u.dervars():
        c, h = at(u.partial(v))
        heuristic = heuristic or h
        if c:
            terms.append((Monomial.of(tangent_dervar(ctx.n, v)), c))
    return LinearizedPoly(poly=DiffPoly.from_terms(ext, terms), base_n=ctx.n, heuristic=heuristic)


def linearized_order_matrix(tangents, convention: Convention = Convention.MAX_PLUS) -> OrderMatrix:
    """Order matrix of a linearized system: entry (i, j) is the order of
    tangent i in the tangent variable of x_j."""
    if not tangents:
        raise ValueError("empty system")
    ext = tangents[0].poly.context
    for t in tangents:
        if t.poly.context != ext:
            raise ValueError("mixed ring contexts")
    n = tangents[0].base_n
    if len(tangents) != n:
        raise ValueError(f"need a square system: {len(tangents)} equations over {n} variables")
    return OrderMatrix.from_orders((t.tangent_orders() for t in tangents), convention)


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
    lin = DiffPoly.from_terms(
        ext, ((Monomial.of(yv), cv) for yv, cv in total.b.items())
    )
    return total.a, LinearizedPoly(poly=lin, base_n=ctx.n)
