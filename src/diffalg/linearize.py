"""Linearization of differential polynomials.

The tangent of u at a point is the first-order term of u(point + eps*y):
sum over jet variables v of (du/dv at the point) * y_v, where the y_v are
fresh tangent variables.  Tangent variables live in an extended ring context
with twice the variables (index offset n), so ordinary polynomial machinery
applies to linearized objects unchanged, including the derivation: deriving
and linearizing commute.

`linearize_sym` keeps the coefficients as polynomials in the original jets.
`linearize_at` is the one place where u and its partials are evaluated at a
point.  At a concrete point it walks u's terms once, reading each factor's
value once, and sums u's value and every field-element coefficient du/dv
in that pass, with no partial polynomial built.  A component, standing for
its generic point, gives only the support pattern (coefficient 1 on y_v iff
du/dv has nonzero remainder modulo the component), which is exactly what
order counting needs.  The linearized order matrix is read off those
tangents, and its Jacobi number is `jacobi_assign` of that matrix.
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
    variable (prefixed), over the same field.  Built on first use and kept
    on ctx, as its name index is, so the tangents of one system share one
    context; a context whose names clash is never kept, so it raises on
    every call."""
    ext = getattr(ctx, "_extended", None)
    if ext is None:
        tangent = tuple(TANGENT_PREFIX + nm for nm in ctx.names)
        clash = set(tangent) & set(ctx.names)
        if clash:
            raise ValueError(f"tangent names collide with variables: {sorted(clash)}")
        ext = Context(names=ctx.names + tangent, field=ctx.field)
        object.__setattr__(ctx, "_extended", ext)  # not a field: never compared or hashed
    return ext


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


def _tangent_at(u: DiffPoly, pt: ConcretePoint) -> tuple:
    """(u at pt, {jet v: du/dv at pt}, no zero values) from one pass over
    u's terms, reading each factor's value at pt once.

    A term c * prod v^e with no factor vanishing at pt adds its value to
    u's, and e * c * v^(e-1) * (the other factors) to each factor's
    coefficient, from prefix and suffix products with no field division.
    A term with exactly one vanishing factor, of exponent 1, adds c * (the
    other factors) to that factor's coefficient; any other term adds
    nothing."""
    fld = u.context.field
    value = fld.zero
    coeffs: dict = {}
    for m, c in u.items():
        fs = m.factors
        vals = [pt.value(v) for v, _ in fs]
        zeros = [k for k, x in enumerate(vals) if not x]
        if zeros:
            if len(zeros) == 1 and fs[zeros[0]][1] == 1:
                k = zeros[0]
                for j, x in enumerate(vals):
                    if j != k:
                        c = c * x ** fs[j][1]
                _accumulate(coeffs, fs[k][0], c)
            continue
        powers = [x**e for x, (_, e) in zip(vals, fs)]
        prefix = [c]  # prefix[j]: c times the powers of the factors before j
        for p in powers:
            prefix.append(prefix[-1] * p)
        value = value + prefix[-1]
        suffix = None  # the powers of the factors after j; None while empty
        for j in range(len(fs) - 1, -1, -1):
            v, e = fs[j]
            d = prefix[j] if suffix is None else prefix[j] * suffix
            if e > 1:
                d = d * fld.from_fraction(e) * vals[j] ** (e - 1)
            _accumulate(coeffs, v, d)
            if j:
                suffix = powers[j] if suffix is None else powers[j] * suffix
    return value, coeffs


def linearize_at(u: DiffPoly, pt, require_zero: bool = True) -> LinearizedPoly:
    """Tangent at a ConcretePoint, or at the generic point of a
    CharSetComponent.

    Concrete points give field-element coefficients, from one pass over u's
    terms (_tangent_at).  A component gives the support pattern: u is
    tested first, then each partial du/dv, and the coefficient of y_v is 1
    exactly when du/dv does not vanish on the component (an indicator, not
    residue-field arithmetic); `heuristic` is set when any of these
    answers, or the zero test of u, was read modulo a component not
    verified prime.  The point must be a zero of u unless require_zero is
    dropped (useful for identities that hold off the zero set).
    """
    ctx = u.context
    fld = ctx.field
    ext = extended_context(ctx)
    heuristic = False
    if isinstance(pt, ConcretePoint):
        if pt.context != ctx:
            raise ValueError("point context mismatch")
        value, coeffs = _tangent_at(u, pt)
        if require_zero and value:
            try:
                shown = fld.text(value)
            except ValueError:  # past Python's limit on integer-string conversion
                shown = f"of {fld.bits(value)} bits"
            raise PointNotOnZeroSetError(f"point is not a zero: value {shown}")
    elif isinstance(pt, CharSetComponent):
        if require_zero:
            verdict = pt.membership(u)
            if not verdict.member:
                raise PointNotOnZeroSetError("polynomial has nonzero remainder at the generic point")
            heuristic = verdict.heuristic
        coeffs = {}
        for v in u.dervars():
            verdict = pt.membership(u.partial(v))
            heuristic = heuristic or verdict.heuristic
            if not verdict.member:
                coeffs[v] = fld.one
    else:
        raise TypeError(f"not a differential point: {type(pt).__name__}")
    n = ctx.n
    terms = {Monomial.of(tangent_dervar(n, v)): coeffs[v] for v in sorted(coeffs)}
    return LinearizedPoly(poly=DiffPoly(ext, terms), base_n=n, heuristic=heuristic)


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
