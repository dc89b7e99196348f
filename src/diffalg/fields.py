"""Exact coefficient fields for differential polynomial arithmetic.

Two fields are supported: the rationals Q with the zero derivation, and
rational functions Q(t) with d/dt.  Both hold the same elements, RatFunc
values, kept in canonical form so equality is structural and values are
hashable: a numerator and a denominator polynomial with integer
coefficients, coprime in Q[t], with no common integer factor among all their
coefficients, and the denominator's leading coefficient positive.  An
element of Q is a RatFunc that does not depend on t: an integer numerator
over a positive integer denominator, in lowest terms.

Fractions appear only where values come in: make() and from_fraction()
clear denominators.  text() writes the stored integers over the
denominator's leading coefficient, each coefficient in lowest terms.

No floating point anywhere.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from math import gcd, lcm


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


def _pcombine(a: Poly, x: int, b: Poly, y: int) -> Poly:
    """x*a + y*b."""
    if len(a) == 1 and len(b) == 1:
        c = a[0] * x + b[0] * y
        return (c,) if c else ()
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
        if c == 1:
            return a
        return (a[0] * c,) if len(a) == 1 else tuple(x * c for x in a)
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


def _ppow(a: Poly, e: int) -> Poly:
    """a^e for e >= 1, by squaring."""
    if e == 1:
        return a
    h = _ppow(_pmul(a, a), e >> 1)
    return _pmul(h, a) if e & 1 else h


def _too_long(c: int) -> ValueError:
    """The refusal of c > 0 when it has more digits than Python converts to
    text (sys.get_int_max_str_digits()): it names c by its first and last
    digits and its length."""
    n = (c.bit_length() - 1) * 3 // 10  # 3/10 < log10(2): below c's digit count
    while c >= 10**n:
        n += 1
    head, tail = c // 10 ** (n - 6), c % 10**6
    return ValueError(
        f"coefficient {head}...{tail:06d} has {n} digits, more than the "
        f"{sys.get_int_max_str_digits()} that can be written as text"
    )


def _qtext(c: int, d: int) -> str:
    """c/d in lowest terms, for c >= 0 and d > 0."""
    g = gcd(c, d)
    if g != 1:
        c, d = c // g, d // g
    try:
        return str(c) if d == 1 else f"{c}/{d}"
    except ValueError:  # one of c, d has too many digits for text: the larger
        raise _too_long(max(c, d)) from None


def _ptext(a: Poly, lead: int) -> str:
    """Render the polynomial a/lead in t, terms high degree first."""
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        if i == 0:
            body = _qtext(abs(c), lead)
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            body = tpow if abs(c) == lead else f"{_qtext(abs(c), lead)}*{tpow}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# rational functions in t
# ---------------------------------------------------------------------------


def _canonical(num: Poly, den: Poly) -> "RatFunc":
    """num/den for num and den already coprime in Q[t]: the joint integer
    content divided out and the denominator's leading coefficient made
    positive."""
    if not num:
        return RF_ZERO
    if den == _P_ONE:
        return RatFunc(num, _P_ONE)
    g = gcd(*den, *num)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num = (num[0] // g,) if len(num) == 1 else tuple(c // g for c in num)
        den = _const(den[0] // g) if len(den) == 1 else tuple(c // g for c in den)
    return RatFunc(num, den)


def _const(d: int) -> Poly:
    """The constant polynomial d, sharing one tuple for 1."""
    return _P_ONE if d == 1 else (d,)


def _reduced(num: Poly, den: Poly) -> "RatFunc":
    """num/den for any integer polynomials, den nonzero, in canonical form.
    A constant numerator or denominator is coprime to the other, so the
    polynomial gcd runs only when both depend on t."""
    if len(num) > 1 and len(den) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pexquo(num, g)
            den = _pexquo(den, g)
    return _canonical(num, den)


class RatFunc:
    """A rational function in t over Q, kept canonical; immutable by
    convention.

    num and den are integer coefficient tuples, low degree first: coprime in
    Q[t], with no common integer factor among all their coefficients, and
    den[-1] > 0.  The zero element is ((), (1,)).  Construct through make(),
    from_fraction(), from_int() or t_power(); the constructor trusts its
    arguments.
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
        return RatFunc((q.numerator,), _const(q.denominator))

    @staticmethod
    def from_int(n: int) -> "RatFunc":
        return RatFunc((n,), _P_ONE) if n else RF_ZERO

    @staticmethod
    def t_power(k: int = 1) -> "RatFunc":
        return RatFunc((0,) * k + (1,), _P_ONE)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return _sum(self, other, 1)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return _sum(self, other, -1)

    def __neg__(self) -> "RatFunc":
        return RatFunc(_pneg(self.num), self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(a) == 1 and len(c) == 1 and len(b) == 1 and len(d) == 1:
            # two nonzero elements of Q: one gcd, with a positive denominator
            n, m = a[0] * c[0], b[0] * d[0]
            g = gcd(n, m)
            if g != 1:
                n, m = n // g, m // g
            return RatFunc((n,), _const(m))
        return _reduced(_pmul(a, c), _pmul(b, d))

    def __pow__(self, e: int) -> "RatFunc":
        """self^e by squaring, with no gcd: powers of a coprime, jointly
        primitive pair with lc(den) > 0 are again one."""
        if e < 0:
            raise ValueError("negative power of a rational function")
        if e == 0:
            return RF_ONE
        if e == 1 or not self.num:
            return self
        return RatFunc(_ppow(self.num, e), _ppow(self.den, e))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        a, b, on, od = self.num, self.den, other.num, other.den
        if len(on) == 1 and len(od) == 1:
            if len(a) == 1 and len(b) == 1:
                # a nonzero element of Q by another: one gcd, as in __mul__
                n, m = a[0] * od[0], b[0] * on[0]
                if m < 0:
                    n, m = -n, -m
                g = gcd(n, m)
                if g != 1:
                    n, m = n // g, m // g
                return RatFunc((n,), _const(m))
            # by a constant: numerator and denominator stay coprime
            return _canonical(_pmul(a, od), _pmul(b, on))
        return _reduced(_pmul(a, od), _pmul(b, on))

    def derive(self) -> "RatFunc":
        """d/dt by the quotient rule."""
        n, d = self.num, self.den
        if len(d) == 1:
            return _canonical(_pderive(n), d)
        return _reduced(_pcombine(_pmul(_pderive(n), d), 1, _pmul(n, _pderive(d)), -1), _pmul(d, d))

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def text(self) -> str:
        """The numerator, and unless it is constant the denominator, each
        divided by the denominator's leading coefficient."""
        num, den = self.num, self.den
        if len(den) == 1:
            return _ptext(num, den[0])
        return f"({_ptext(num, den[-1])})/({_ptext(den, den[-1])})"

    def term_text(self, mono) -> tuple:
        """(sign, body) for the term self*mono, mono the monomial's text or
        None for the constant term; sign is +1/-1 and body has no sign.  A
        coefficient a*t^k is written inline, any other in parentheses."""
        num, den = self.num, self.den
        if len(den) > 1 or any(num[:-1]):
            body = f"({self.text()})"
            return 1, body if mono is None else f"{body}*{mono}"
        # one term c/d*t^k, with c and d coprime
        k, c, d = len(num) - 1, num[-1], den[0]
        tpart = None if k == 0 else "t" if k == 1 else f"t^{k}"
        ctext = None if abs(c) == d and (tpart or mono) else _qtext(abs(c), d)
        return (1 if c >= 0 else -1), "*".join(x for x in (ctext, tpart, mono) if x)

    def __repr__(self) -> str:
        return f"RatFunc({self.text()})"


def _sum(x: RatFunc, y: RatFunc, sign: int) -> RatFunc:
    """x + sign*y; with both denominators integer constants, one integer
    polynomial operation and one gcd over the coefficients."""
    a, b = x.den, y.den
    if a == b:
        return _reduced(_pcombine(x.num, 1, y.num, sign), a)
    if len(a) == 1 and len(b) == 1:
        da, db = a[0], b[0]
        xn, yn = x.num, y.num
        if len(xn) == 1 and len(yn) == 1:
            # two nonzero elements of Q with different denominators, so a
            # nonzero sum: one gcd, as in __mul__
            n, m = xn[0] * db + sign * yn[0] * da, da * db
            g = gcd(n, m)
            return RatFunc((n // g,), _const(m // g))
        g = gcd(da, db)
        return _canonical(_pcombine(xn, db // g, yn, sign * (da // g)), (da // g * db,))
    return _reduced(_pcombine(_pmul(x.num, b), 1, _pmul(y.num, a), sign), _pmul(a, b))


RF_ZERO = RatFunc((), _P_ONE)
RF_ONE = RatFunc(_P_ONE, _P_ONE)


# ---------------------------------------------------------------------------
# the two fields
# ---------------------------------------------------------------------------


class Field(Enum):
    """One of the two coefficient fields, labelled by its value: its
    derivation and the parameter t.  The elements and their arithmetic are
    RatFunc's.  Compare fields by identity (``field is QQ``)."""

    QQ = "Q"
    QT = "Q(t)"

    # -- element construction ------------------------------------------------

    def from_fraction(self, q) -> RatFunc:
        return RatFunc.from_fraction(q)

    def t(self) -> RatFunc:
        if self is not QT:
            raise ValueError("t is only an element of Q(t)")
        return RatFunc.t_power(1)

    def check(self, a: RatFunc) -> RatFunc:
        """a itself when it is an element of this field: a RatFunc, and over
        Q one that does not depend on t."""
        if not isinstance(a, RatFunc):
            raise TypeError(f"expected a RatFunc element of {self.value}, got {type(a).__name__}")
        if self is QQ and not a.is_constant():
            raise TypeError("expected an element of Q, got a rational function that depends on t")
        return a

    # -- derivation -----------------------------------------------------------

    def derive(self, a: RatFunc) -> RatFunc:
        """The field derivation: zero on Q, d/dt on Q(t)."""
        self.check(a)
        if self is QQ:
            return RF_ZERO
        return a.derive()

    # -- size and text ----------------------------------------------------------

    @staticmethod
    def bits(a: RatFunc) -> int:
        """The most bits in an integer that stores a: a coefficient of its
        numerator or denominator polynomial.  An element of Q is read with
        no tuple built."""
        num, den = a.num, a.den
        if len(num) == 1 and len(den) == 1:
            return max(abs(num[0]), den[0]).bit_length()
        return max(map(abs, num + den)).bit_length()

    def text(self, a: RatFunc) -> str:
        return self.check(a).text()


# set outside the class body, where the Enum would make them members
Field.zero = RF_ZERO
Field.one = RF_ONE

QQ = Field.QQ
QT = Field.QT
