"""Exact coefficient fields for differential polynomial arithmetic.

Two fields are supported: the rationals Q with the zero derivation, and
rational functions Q(t) with d/dt.  Elements are always kept in canonical
form, so equality is structural and values are hashable.  An element of Q
is a Fraction in lowest terms.  An element of Q(t) is a numerator and a
denominator polynomial with integer coefficients: the two are coprime in
Q[t], their coefficients taken together have no common integer factor, and
the denominator's leading coefficient is positive.

Fractions meet Q(t) only at its boundary: make() and from_fraction() clear
denominators on the way in, and rational_view() and text() give the form
with a monic denominator on the way out.

No floating point anywhere.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Union


class FieldTag(Enum):
    RATIONALS = "Q"
    RATIONAL_FUNCTIONS_T = "Q(t)"


# ---------------------------------------------------------------------------
# dense univariate polynomials over Z, coefficient tuples low -> high,
# normalized with no trailing zeros; () is the zero polynomial
# ---------------------------------------------------------------------------

Poly = tuple  # tuple[int, ...]

_P_ONE: Poly = (1,)


def _ptrim(cs: list) -> Poly:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pcombine(a: Poly, x: int, b: Poly, y: int) -> Poly:
    """x*a + y*b."""
    out = [c * x for c in a]
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for i, c in enumerate(b):
        out[i] += c * y
    return _ptrim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    """The product; the top coefficient is a product of two nonzero
    integers, so nothing needs trimming."""
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(x * c for x in a)
    # one row per coefficient of the shorter factor; the first row and each
    # row's top entry are written, not added to a zero
    out = [b[0] * x for x in a]
    top = a[-1]
    for j in range(1, len(b)):
        bj = b[j]
        out.append(bj * top)
        if bj:
            for i in range(len(a) - 1):
                out[i + j] += a[i] * bj
    return tuple(out)


def _pprimitive(a: Poly) -> Poly:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple(c // g for c in a)


def _pprem(a: Poly, b: Poly) -> Poly:
    """The pseudo-remainder of a by b: the remainder of lc(b)^k * a, for
    the k that keeps every step in Z[t]."""
    r = list(a)
    lb, nb = b[-1], len(b)
    while len(r) >= nb:
        lr, d = r[-1], len(r) - nb
        for i in range(len(r)):
            r[i] *= lb
        for i, c in enumerate(b):
            r[d + i] -= lr * c
        r.pop()  # the top coefficient cancels
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _pgcd(a: Poly, b: Poly) -> Poly:
    """The primitive gcd of two nonzero polynomials, with a positive
    leading coefficient, by the primitive polynomial remainder sequence."""
    a, b = _pprimitive(a), _pprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pprem(a, b)
        a, b = b, (_pprimitive(r) if r else ())
    return a


def _pexquo(a: Poly, b: Poly) -> Poly:
    """a / b for a primitive b that divides a in Q[t]; by Gauss's lemma the
    quotient has integer coefficients, so each step divides exactly."""
    r = list(a)
    lb, nb = b[-1], len(b)
    q = [0] * (len(a) - nb + 1)
    for d in range(len(q) - 1, -1, -1):
        c = r[d + nb - 1] // lb
        q[d] = c
        if c:
            for i, bc in enumerate(b):
                r[d + i] -= c * bc
    return tuple(q)


def _pderive(a: Poly) -> Poly:
    return tuple(i * c for i, c in enumerate(a) if i)


def _ptext(a) -> str:
    """Render a polynomial in t with Fraction coefficients, terms high
    degree first."""
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        if i == 0:
            body = _fraction_text(abs(c))
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            body = tpow if abs(c) == 1 else f"{_fraction_text(abs(c))}*{tpow}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def _view_text(num, den) -> str:
    """Render a rational function from its rational view."""
    if len(den) == 1:
        return _ptext(num)
    return f"({_ptext(num)})/({_ptext(den)})"


def _fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# rational functions in t
# ---------------------------------------------------------------------------


def _canonical(num: Poly, den: Poly) -> "RatFunc":
    """num/den for num and den already coprime in Q[t]: the joint integer
    content divided out and the denominator's leading coefficient made
    positive."""
    if not num:
        return RF_ZERO
    g = gcd(*den, *num)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num = tuple(c // g for c in num)
        den = tuple(c // g for c in den)
    return RatFunc(num, den)


def _reduced(num: Poly, den: Poly) -> "RatFunc":
    """num/den for any integer polynomials, den nonzero, in canonical form.
    A constant numerator or denominator is coprime to the other, so the
    polynomial gcd runs only when both depend on t."""
    if not num:
        return RF_ZERO
    if len(num) > 1 and len(den) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pexquo(num, g)
            den = _pexquo(den, g)
    return _canonical(num, den)


def _over_constant(num: Poly, d: int) -> "RatFunc":
    """num/d for a positive integer d: one gcd over the coefficients."""
    if not num:
        return RF_ZERO
    if d != 1:
        g = gcd(d, *num)
        if g != 1:
            return RatFunc(tuple(c // g for c in num), (d // g,))
    return RatFunc(num, (d,))


class RatFunc:
    """A rational function in t over Q, kept canonical; immutable by
    convention.

    num and den are integer coefficient tuples, low degree first: coprime in
    Q[t], with no common integer factor among all their coefficients, and
    den[-1] > 0.  The zero element is ((), (1,)).  Construct through make(),
    from_fraction() or t_power(); the constructor trusts its arguments.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @staticmethod
    def make(num, den) -> "RatFunc":
        """num/den from coefficient sequences (low degree first) of ints,
        Fractions, or anything Fraction() reads."""
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        scale = lcm(*(c.denominator for c in num + den))
        num = _ptrim([c.numerator * (scale // c.denominator) for c in num])
        den = _ptrim([c.numerator * (scale // c.denominator) for c in den])
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        return _reduced(num, den)

    @staticmethod
    def from_fraction(q) -> "RatFunc":
        q = Fraction(q)
        if not q:
            return RF_ZERO
        return RatFunc((q.numerator,), (q.denominator,))

    @staticmethod
    def t_power(k: int = 1) -> "RatFunc":
        return RatFunc((0,) * k + (1,), _P_ONE)

    def rational_view(self) -> tuple:
        """(numerator, denominator) as tuples of Fractions, low degree
        first, with the denominator monic: the form text() writes."""
        lead = self.den[-1]
        if lead == 1:
            return tuple(map(Fraction, self.num)), tuple(map(Fraction, self.den))
        return (
            tuple(Fraction(c, lead) for c in self.num),
            tuple(Fraction(c, lead) for c in self.den),
        )

    def __bool__(self) -> bool:
        return bool(self.num)

    # With both denominators integer constants, a sum or a product is one
    # integer polynomial operation and one gcd over the coefficients.

    def __add__(self, other: "RatFunc") -> "RatFunc":
        a, b = self.den, other.den
        if len(a) == 1 and len(b) == 1:
            da, db = a[0], b[0]
            if da == db:
                return _over_constant(_padd(self.num, other.num), da)
            g = gcd(da, db)
            return _over_constant(_pcombine(self.num, db // g, other.num, da // g), da // g * db)
        if a == b:
            return _reduced(_padd(self.num, other.num), a)
        return _reduced(_padd(_pmul(self.num, b), _pmul(other.num, a)), _pmul(a, b))

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(_pneg(self.num), self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        a, b = self.den, other.den
        if len(a) == 1 and len(b) == 1:
            return _over_constant(_pmul(self.num, other.num), a[0] * b[0])
        return _reduced(_pmul(self.num, other.num), _pmul(a, b))

    def __pow__(self, e: int) -> "RatFunc":
        if e < 0:
            raise ValueError("negative power of a rational function")
        out = RF_ONE
        for _ in range(e):
            out = out * self
        return out

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        on, od = other.num, other.den
        if len(on) == 1 and len(od) == 1:
            # by a constant: numerator and denominator stay coprime
            return _canonical(_pmul(self.num, od), _pmul(self.den, on))
        return _reduced(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def derive(self) -> "RatFunc":
        """d/dt by the quotient rule."""
        n, d = self.num, self.den
        if len(d) == 1:
            return _over_constant(_pderive(n), d[0])
        return _reduced(_padd(_pmul(_pderive(n), d), _pneg(_pmul(n, _pderive(d)))), _pmul(d, d))

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def text(self) -> str:
        return _view_text(*self.rational_view())

    def __repr__(self) -> str:
        return f"RatFunc({self.text()})"


RF_ZERO = RatFunc((), _P_ONE)
RF_ONE = RatFunc(_P_ONE, _P_ONE)
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)

FieldElement = Union[Fraction, RatFunc]


# ---------------------------------------------------------------------------
# the two fields
# ---------------------------------------------------------------------------


class Field:
    """Arithmetic, derivation, and formatting for one coefficient field.

    Use the module singletons QQ and QT; identity comparison is fine but
    equality is by tag.
    """

    __slots__ = ("tag", "zero", "one")

    def __init__(self, tag: FieldTag):
        self.tag = tag
        self.zero, self.one = (_Q_ZERO, _Q_ONE) if tag is FieldTag.RATIONALS else (RF_ZERO, RF_ONE)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.tag is other.tag

    def __hash__(self) -> int:
        return hash(self.tag)

    def __repr__(self) -> str:
        return f"Field({self.tag.value})"

    # -- element construction ------------------------------------------------

    def from_fraction(self, q) -> FieldElement:
        q = Fraction(q)
        return q if self.tag is FieldTag.RATIONALS else RatFunc.from_fraction(q)

    def t(self) -> FieldElement:
        if self.tag is not FieldTag.RATIONAL_FUNCTIONS_T:
            raise ValueError("t is only an element of Q(t)")
        return RatFunc.t_power(1)

    def check(self, a: FieldElement) -> FieldElement:
        want = Fraction if self.tag is FieldTag.RATIONALS else RatFunc
        if not isinstance(a, want):
            raise TypeError(f"expected {want.__name__} element of {self.tag.value}, got {type(a).__name__}")
        return a

    # -- derivation -----------------------------------------------------------

    def derive(self, a) -> FieldElement:
        """The field derivation: zero on Q, d/dt on Q(t)."""
        self.check(a)
        if self.tag is FieldTag.RATIONALS:
            return _Q_ZERO
        return a.derive()

    # -- size -----------------------------------------------------------------

    def bits(self, a) -> int:
        """The most bits in an integer that stores a: its numerator or
        denominator over Q, a coefficient of its numerator or denominator
        polynomial over Q(t)."""
        if self.tag is FieldTag.RATIONALS:
            return max(a.numerator.bit_length(), a.denominator.bit_length())
        return max(abs(c) for c in a.num + a.den).bit_length()

    # -- text -----------------------------------------------------------------

    def text(self, a) -> str:
        self.check(a)
        if self.tag is FieldTag.RATIONALS:
            return _fraction_text(a)
        return a.text()


QQ = Field(FieldTag.RATIONALS)
QT = Field(FieldTag.RATIONAL_FUNCTIONS_T)
