"""Differential polynomials: sparse exact arithmetic over Q or Q(t).

A differential polynomial lives in K{x_1,...,x_n}: a commutative polynomial
ring in the jet variables x_i^(j) (DerVar(i, j)) with the derivation
mapping x_i^(j) to x_i^(j+1) and acting on coefficients by the field
derivation.  Representation is a map from monomials to nonzero field
elements; monomial keys store their factors sorted by (var index, der
order), so equality and hashing are structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .fields import QQ, QT, RF_ZERO, Field, RatFunc

# Cap on the derivative orders derive() creates; prevents runaway
# prolongation loops from allocating unbounded jet towers.
DEFAULT_ORDER_CAP = 64


class OrderCapExceeded(Exception):
    """derive() would create a jet variable above DEFAULT_ORDER_CAP."""


class DerVar(NamedTuple):
    """The jet variable x_{var}^{(order)}; var is a 0-based index."""

    var: int
    order: int

    def derived(self) -> "DerVar":
        return DerVar(self.var, self.order + 1)


class Monomial:
    """A power product of jet variables; factors sorted by (var, order),
    hashed once, and the sort key kept once it is first read."""

    __slots__ = ("factors", "_hash", "_key")

    def __init__(self, factors: tuple):
        self.factors = factors  # tuple[tuple[DerVar, int], ...], exponents >= 1
        self._hash = hash(factors)
        self._key = None  # (degree, factors), once sort_key has computed it

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Monomial) and self._hash == other._hash and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial(factors={self.factors!r})"

    @staticmethod
    def make(items: Iterable) -> "Monomial":
        """The monomial of (jet variable, exponent) pairs in any order:
        exponents of a repeated variable add up and zero exponents drop.
        Derivatives, partials, the expression reader's terms of several
        jets and the oracle's multipliers build their monomials here;
        factors already sorted, distinct and positive are kept as given."""
        fs = sorted(items)
        distinct = dict(fs)
        if len(distinct) == len(fs) and min(distinct.values(), default=1) > 0:
            return Monomial(tuple(fs))
        out: list = []
        for v, e in fs:
            if out and out[-1][0] == v:
                e += out.pop()[1]
            if e:
                out.append((v, e))
        for v, e in out:
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
        return Monomial(tuple(out))

    @staticmethod
    def of(v: DerVar, e: int = 1) -> "Monomial":
        return MON_ONE if e == 0 else Monomial(((v, e),))

    def degree(self) -> int:
        return self.sort_key()[0]

    def weight(self) -> int:
        """Total derivative weight: sum of order * exponent."""
        return sum(v.order * e for v, e in self.factors)

    def degree_in(self, v: DerVar) -> int:
        for w, e in self.factors:
            if w == v:
                return e
        return 0

    def dervars(self) -> tuple:
        return tuple(v for v, _ in self.factors)

    def max_order(self) -> int:
        return max((v.order for v, _ in self.factors), default=0)

    def __mul__(self, other: "Monomial") -> "Monomial":
        """The product: the two sorted factor tuples merged in one pass by
        _merge_factors, with no dict and no sort."""
        if not self.factors:
            return other
        if not other.factors:
            return self
        return Monomial(_merge_factors(self.factors, other.factors))

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative monomial power")
        if k == 0:
            return MON_ONE
        return Monomial(tuple((v, e * k) for v, e in self.factors))

    def without(self, v: DerVar) -> "Monomial":
        return Monomial(tuple((w, e) for w, e in self.factors if w != v))

    def sort_key(self):
        """(degree, factors), computed on first use and kept: monomials are
        built far more often than they are sorted."""
        key = self._key
        if key is None:
            key = self._key = (sum(e for _, e in self.factors), self.factors)
        return key

    def text(self, names) -> str:
        if not self.factors:
            return "1"
        return "*".join(
            _dervar_text(v, names) + (f"^{e}" if e > 1 else "") for v, e in self.factors
        )


MON_ONE = Monomial(())


def _merge_factors(a: tuple, b: tuple) -> tuple:
    """The sorted factors of the product of two monomials, from their sorted
    factor tuples: one linear merge that adds the exponents of a shared jet.
    When every jet of one factor ranks below every jet of the other, the
    two tuples are simply joined.  Every monomial product is made here:
    Monomial.__mul__, the term pairs of _add_product, and the oracle's
    candidate keys."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        fa, fb = a[i], b[j]
        if fa[0] < fb[0]:
            out.append(fa)
            i += 1
        elif fb[0] < fa[0]:
            out.append(fb)
            j += 1
        else:
            out.append((fa[0], fa[1] + fb[1]))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _dervar_text(v: DerVar, names) -> str:
    base = names[v.var]
    if v.order == 0:
        return base
    if v.order <= 3:
        return base + "'" * v.order
    return f"{base}^({v.order})"


@dataclass(frozen=True)
class Context:
    """Ring context: named variables and the coefficient field, with a
    name -> index map for var_index."""

    names: tuple
    field: Field

    def __post_init__(self):
        # name -> index for var_index; not a field, so never compared or hashed
        index = dict(zip(self.names, range(len(self.names))))
        object.__setattr__(self, "_index", index)
        if len(index) != len(self.names):
            raise ValueError("duplicate variable names")
        if not self.names:
            raise ValueError("a differential ring needs at least one variable")
        for nm in self.names:
            if not nm.isidentifier():
                raise ValueError(f"bad variable name {nm!r}")
        if self.field is QT and "t" in index:
            raise ValueError("variable name 't' collides with the field parameter of Q(t)")

    @property
    def n(self) -> int:
        return len(self.names)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def check_dervar(self, v: DerVar):
        if not (0 <= v.var < self.n) or v.order < 0:
            raise ValueError(f"jet variable {v} outside context")


def _check_same_context(a: "DiffPoly", b: "DiffPoly"):
    if a.context is not b.context and a.context != b.context:
        raise ValueError("mixed ring contexts")


def _accumulate(acc: dict, m, c) -> None:
    """Add c*m into acc, a sparse map from keys (monomials, jets, powers of
    the derivation, candidates) to nonzero coefficients, dropping a
    coefficient that cancels.  The package's sparse sums merge here, apart
    from two hot loops that inline it: the oracle's echelon, whose row loop
    adds a multiple of a row's tail to the vector in place (its candidates
    are monomial shifts, whose terms never meet; a combination of
    candidates is expanded here, and only for a Member), and _add_product's
    term pairs."""
    cur = acc.get(m)
    c = c if cur is None else cur + c
    if c:
        acc[m] = c
    elif cur is not None:
        del acc[m]


def _add_product(acc: dict, a: dict, b: dict) -> dict:
    """Add the product of the term maps a and b into acc, one term pair at a
    time (a's terms outer, b's inner), and return acc.  Every term-pair
    product is made here, with no polynomial built: DiffPoly.__mul__'s, and
    reduction._checked_product's for the reader and a division step."""
    merge = _merge_factors
    for m1, c1 in a.items():
        f1 = m1.factors
        for m2, c2 in b.items():
            # _accumulate, inlined
            m = Monomial(merge(f1, m2.factors))
            cur = acc.get(m)
            c = c1 * c2 if cur is None else cur + c1 * c2
            if c:
                acc[m] = c
            elif cur is not None:
                del acc[m]
    return acc


def _degree_profile(terms) -> dict:
    """Each jet variable of the monomials in terms mapped to its highest
    exponent, in one pass."""
    deg: dict = {}
    for m in terms:
        for v, e in m.factors:
            if e > deg.get(v, 0):
                deg[v] = e
    return deg


class DiffPoly:
    """A differential polynomial; immutable by convention."""

    __slots__ = ("context", "_terms", "_hash", "_text", "_prime", "_degrees")

    def __init__(self, context: Context, terms: dict):
        """Trusted: terms maps monomials of the context to nonzero field
        elements; from_terms checks and merges arbitrary input."""
        self.context = context
        self._terms = terms
        self._hash = None
        self._prime = None  # the first derivative, once computed
        self._degrees = None  # jet variable -> highest exponent, once computed
        # _text stays unset until to_text first renders the polynomial

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "DiffPoly":
        return DiffPoly(ctx, {})

    @staticmethod
    def const(ctx: Context, c) -> "DiffPoly":
        c = ctx.field.check(c)
        return DiffPoly(ctx, {MON_ONE: c} if c else {})

    @staticmethod
    def one(ctx: Context) -> "DiffPoly":
        return DiffPoly.const(ctx, ctx.field.one)

    @staticmethod
    def var(ctx: Context, var: int, order: int = 0) -> "DiffPoly":
        v = DerVar(var, order)
        ctx.check_dervar(v)
        return DiffPoly(ctx, {Monomial.of(v): ctx.field.one})

    @staticmethod
    def from_terms(ctx: Context, items: Iterable) -> "DiffPoly":
        acc: dict[Monomial, RatFunc] = {}
        fld = ctx.field
        for m, c in items:
            fld.check(c)
            for v in m.dervars():
                ctx.check_dervar(v)
            _accumulate(acc, m, c)
        return DiffPoly(ctx, acc)

    # -- basic views -----------------------------------------------------------

    def items(self):
        return self._terms.items()

    def monomials(self):
        return self._terms.keys()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and MON_ONE in self._terms)

    def constant_value(self) -> RatFunc:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._terms.get(MON_ONE, self.context.field.zero)

    def term_count(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Max monomial degree; 0 for the zero polynomial."""
        return max((m.degree() for m in self._terms), default=0)

    def degrees(self) -> dict:
        """The jet-degree profile: each jet variable present mapped to its
        highest exponent, from one pass over the terms on first use and
        kept.  Shared, so callers must not change it."""
        deg = self._degrees
        if deg is None:
            deg = self._degrees = _degree_profile(self._terms)
        return deg

    def degree_in(self, v: DerVar) -> int:
        return self.degrees().get(v, 0)

    def dervars(self) -> tuple:
        """All jet variables present, sorted by (var, order)."""
        return tuple(sorted(self.degrees()))

    def max_order(self) -> int:
        return max((m.max_order() for m in self._terms), default=0)

    # -- equality --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffPoly)
            and self.context == other.context
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.context, frozenset(self._terms.items())))
        return self._hash

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        _check_same_context(self, other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            _accumulate(acc, m, c)
        return DiffPoly(self.context, acc)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly(self.context, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        _check_same_context(self, other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            _accumulate(acc, m, -c)
        return DiffPoly(self.context, acc)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        _check_same_context(self, other)
        if not self._terms or not other._terms:
            return DiffPoly.zero(self.context)
        return DiffPoly(self.context, _add_product({}, self._terms, other._terms))

    def __pow__(self, k: int) -> "DiffPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        if k == 0:
            return DiffPoly.one(self.context)
        # the running product starts at the power of the lowest set bit
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def scale(self, c: RatFunc) -> "DiffPoly":
        c = self.context.field.check(c)
        if not c:
            return DiffPoly.zero(self.context)
        return DiffPoly(self.context, {m: cc * c for m, cc in self._terms.items()})

    # -- differential structure -----------------------------------------------

    def derive(self, times: int = 1) -> "DiffPoly":
        """Apply the ring derivation `times` times (Leibniz on monomials,
        field derivation on coefficients).  Each polynomial keeps its first
        derivative, so a chain of derivatives is built once."""
        if times < 0:
            raise ValueError("negative derivation count")
        p = self
        for _ in range(times):
            if p._prime is None:
                p._prime = p._derive_once()
            p = p._prime
        return p

    def _derive_once(self) -> "DiffPoly":
        """The first derivative; raises OrderCapExceeded at the first jet
        whose derivative passes DEFAULT_ORDER_CAP."""
        derive_coeff = None if self.context.field is QQ else RatFunc.derive
        acc: dict[Monomial, RatFunc] = {}
        for m, c in self._terms.items():
            if derive_coeff is not None:
                dc = derive_coeff(c)
                if dc:
                    _accumulate(acc, m, dc)
            fs = m.factors
            for k, (v, e) in enumerate(fs):
                if v.order >= DEFAULT_ORDER_CAP:
                    raise OrderCapExceeded(
                        f"derivation would create order {v.order + 1} > cap {DEFAULT_ORDER_CAP} (DEFAULT_ORDER_CAP)"
                    )
                # e * v^(e-1) * v', where v' can only meet the factor after v
                w, rest = v.derived(), fs[k + 1 :]
                dv = ((w, rest[0][1] + 1),) + rest[1:] if rest and rest[0][0] == w else ((w, 1),) + rest
                newm = Monomial.make(fs[:k] + (((v, e - 1),) if e > 1 else ()) + dv)
                _accumulate(acc, newm, c if e == 1 else c * RatFunc.from_int(e))
        return DiffPoly(self.context, acc)

    def partial(self, v: DerVar) -> "DiffPoly":
        """Formal partial derivative with respect to one jet variable."""
        self.context.check_dervar(v)
        acc: dict[Monomial, RatFunc] = {}
        for m, c in self._terms.items():
            fs = m.factors
            for k, (w, e) in enumerate(fs):
                if w == v:
                    # m -> m / v is one-to-one, so no two terms meet
                    newm = Monomial.make(fs[:k] + (((v, e - 1),) if e > 1 else ()) + fs[k + 1 :])
                    acc[newm] = c if e == 1 else c * RatFunc.from_int(e)
                    break
        return DiffPoly(self.context, acc)

    def orders(self) -> tuple:
        """Highest derivative order of each variable of the context, None
        where the variable does not occur (so everywhere for the zero
        polynomial); one pass over the terms."""
        best = [-1] * self.context.n
        for m in self._terms:
            for v, _ in m.factors:
                if v.order > best[v.var]:
                    best[v.var] = v.order
        return tuple(None if o < 0 else o for o in best)

    def order_of(self, var: int) -> Optional[int]:
        """Highest derivative order at which variable `var` occurs, or None
        when it does not occur (so also for the zero polynomial)."""
        if not (0 <= var < self.context.n):
            raise ValueError(f"variable index {var} outside context")
        return self.orders()[var]

    # -- decomposition in one jet variable --------------------------------------

    def coeff_of_power(self, v: DerVar, k: int) -> "DiffPoly":
        acc = {}
        for m, c in self._terms.items():
            if m.degree_in(v) == k:
                acc[m.without(v)] = c
        return DiffPoly(self.context, acc)

    # -- evaluation ---------------------------------------------------------------

    def eval_at(self, point: "ConcretePoint") -> RatFunc:
        """The value at a concrete point; a term with a jet that vanishes
        there adds nothing."""
        if point.context != self.context:
            raise ValueError("point context mismatch")
        total = self.context.field.zero
        for m, c in self._terms.items():
            val = c
            for v, e in m.factors:
                pv = point.value(v)
                if not pv:
                    break
                val = val * pv**e
            else:
                total = total + val
        return total

    # -- normalization ------------------------------------------------------------

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=Monomial.sort_key)

    def monic(self) -> "DiffPoly":
        """Divide by the leading coefficient (canonical monomial order)."""
        if not self._terms:
            return self
        lead = self._terms[self.leading_monomial()]
        one = self.context.field.one
        if lead == one:
            return self
        return DiffPoly(self.context, {m: c / lead for m, c in self._terms.items()})

    # -- text ------------------------------------------------------------------

    def to_text(self) -> str:
        try:
            return self._text
        except AttributeError:
            self._text = self._render()
            return self._text

    def _render(self) -> str:
        if not self._terms:
            return "0"
        names = self.context.names
        parts = []
        for m in sorted(self._terms, key=Monomial.sort_key, reverse=True):
            sign, body = self._terms[m].term_text(m.text(names) if m.factors else None)
            if not parts:
                parts.append(body if sign >= 0 else "-" + body)
            else:
                parts.append((" + " if sign >= 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"DiffPoly({self.to_text()})"


# ---------------------------------------------------------------------------
# differential points
# ---------------------------------------------------------------------------


class ConcretePoint:
    """A concrete differential point: a value for each variable; values of
    jets are obtained by the field derivation (so over Q every point is a
    constant solution)."""

    __slots__ = ("context", "_values", "_derivatives")

    def __init__(self, context: Context, values: dict):
        if set(values) != set(range(context.n)):
            raise ValueError("point must assign a value to every variable")
        self.context = context
        self._values = {k: context.field.check(v) for k, v in values.items()}
        # var -> [value, its first derivative, ...] over Q(t), computed as
        # far as a query has needed, or until a derivative is zero
        self._derivatives: dict[int, list] = {}

    @staticmethod
    def from_names(ctx: Context, named: dict) -> "ConcretePoint":
        return ConcretePoint(ctx, {ctx.var_index(k): v for k, v in named.items()})

    def value(self, v: DerVar) -> RatFunc:
        """The value of the jet v: over Q zero at every positive order;
        over Q(t) the v.order-th derivative in t, computed one order at a
        time and zero past the first derivative that is.  A nonzero
        derivative past DEFAULT_ORDER_CAP raises OrderCapExceeded."""
        self.context.check_dervar(v)
        if v.order == 0:
            return self._values[v.var]
        if self.context.field is QQ:
            return RF_ZERO
        chain = self._derivatives.get(v.var)
        if chain is None:
            chain = self._derivatives[v.var] = [self._values[v.var]]
        while len(chain) <= v.order:
            last = chain[-1]
            if not last:
                return last
            if len(chain) > DEFAULT_ORDER_CAP:
                raise OrderCapExceeded(
                    f"point value of order {v.order} > cap {DEFAULT_ORDER_CAP} (DEFAULT_ORDER_CAP): "
                    f"its derivatives do not vanish by order {DEFAULT_ORDER_CAP}"
                )
            chain.append(last.derive())
        return chain[v.order]

    def __repr__(self) -> str:
        fld = self.context.field
        vals = ", ".join(
            f"{self.context.names[i]}={fld.text(self._values[i])}" for i in range(self.context.n)
        )
        return f"ConcretePoint({vals})"
