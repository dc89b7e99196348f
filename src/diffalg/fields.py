"""Exact coefficient fields for differential polynomial arithmetic.

Two fields are supported: the rationals Q with the zero derivation, and
rational functions Q(t) with d/dt.  Elements are always kept in canonical
form -- Fractions in lowest terms with positive denominator, rational
functions with coprime numerator/denominator and monic denominator -- so
equality is structural and values are hashable.

No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union


class FieldTag(Enum):
    RATIONALS = "Q"
    RATIONAL_FUNCTIONS_T = "Q(t)"


# ---------------------------------------------------------------------------
# dense univariate polynomials over Fraction, coefficient tuples low -> high,
# normalized with no trailing zeros; () is the zero polynomial
# ---------------------------------------------------------------------------

Poly = tuple  # tuple[Fraction, ...]

_P_ZERO: Poly = ()
_P_ONE: Poly = (Fraction(1),)


def _ptrim(cs) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return _P_ZERO
    if len(a) < len(b):
        a, b = b, a
    # one row per coefficient of the shorter factor; the first row and each
    # row's top entry are written, not added to a zero.  The top coefficient
    # is a product of two nonzero ones, so nothing needs trimming.
    out = [b[0] * x for x in a]
    top = a[-1]
    for j in range(1, len(b)):
        bj = b[j]
        out.append(bj * top)
        if bj:
            for i in range(len(a) - 1):
                out[i + j] += a[i] * bj
    return tuple(out)


def _pscale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return _P_ZERO
    return tuple(x * c for x in a)


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv = 1 / b[-1]
    while len(r) >= len(b):
        c = r[-1] * inv
        d = len(r) - len(b)
        q[d] = c
        for i, bc in enumerate(b):
            r[d + i] -= c * bc
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return _ptrim(q), _ptrim(r)


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return _P_ZERO
    return _pscale(a, 1 / a[-1])


def _pderive(a: Poly) -> Poly:
    return _ptrim(Fraction(i) * c for i, c in enumerate(a) if i > 0)


def _ptext(a: Poly) -> str:
    """Render a polynomial in t, terms high degree first."""
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


def _fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# rational functions in t
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatFunc:
    """A rational function in t over Q, kept canonical.

    Invariants: gcd(num, den) = 1, den monic and nonzero; the zero element
    is ((), (1,)).
    """

    num: Poly
    den: Poly

    @staticmethod
    def make(num, den) -> "RatFunc":
        num = _ptrim(c if type(c) is Fraction else Fraction(c) for c in num)
        den = _ptrim(c if type(c) is Fraction else Fraction(c) for c in den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return RF_ZERO
        # a constant numerator or denominator is coprime to the other
        if len(num) > 1 and len(den) > 1:
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = _pscale(num, 1 / lead)
            den = _pscale(den, 1 / lead)
        return RatFunc(num, den)

    @staticmethod
    def from_fraction(q) -> "RatFunc":
        q = Fraction(q)
        if not q:
            return RF_ZERO
        return RatFunc((q,), _P_ONE)

    @staticmethod
    def t_power(k: int = 1) -> "RatFunc":
        return RatFunc(_ptrim([Fraction(0)] * k + [Fraction(1)]), _P_ONE)

    def __bool__(self) -> bool:
        return bool(self.num)

    # A denominator is monic, so one of length 1 is exactly 1: sums and
    # products of polynomials in t are canonical as they stand.

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if len(self.den) == 1 and len(other.den) == 1:
            return RatFunc(_padd(self.num, other.num), _P_ONE)
        return RatFunc.make(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(_pneg(self.num), self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if len(self.den) == 1 and len(other.den) == 1:
            return RatFunc(_pmul(self.num, other.num), _P_ONE)
        return RatFunc.make(_pmul(self.num, other.num), _pmul(self.den, other.den))

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
        return RatFunc.make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def derive(self) -> "RatFunc":
        """d/dt by the quotient rule."""
        n, d = self.num, self.den
        if len(d) == 1:
            return RatFunc(_pderive(n), _P_ONE)
        return RatFunc.make(
            _padd(_pmul(_pderive(n), d), _pneg(_pmul(n, _pderive(d)))),
            _pmul(d, d),
        )

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == _P_ONE

    def text(self) -> str:
        if self.den == _P_ONE:
            return _ptext(self.num)
        return f"({_ptext(self.num)})/({_ptext(self.den)})"

    def __repr__(self) -> str:
        return f"RatFunc({self.text()})"


RF_ZERO = RatFunc(_P_ZERO, _P_ONE)
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

    # -- text -----------------------------------------------------------------

    def text(self, a) -> str:
        self.check(a)
        if self.tag is FieldTag.RATIONALS:
            return _fraction_text(a)
        return a.text()


QQ = Field(FieldTag.RATIONALS)
QT = Field(FieldTag.RATIONAL_FUNCTIONS_T)
