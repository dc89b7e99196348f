"""Q(t) the plain way, as a reference for the integer kernel of
diffalg.fields.

A polynomial in t is a tuple of Fractions, low degree first, with no
trailing zeros; () is zero.  A rational function is a (numerator,
denominator) pair of them with the gcd divided out and the denominator
monic: the form view() reads off a RatFunc.  Every operation runs the
Euclidean gcd over Q, with no shortcut, and text() renders through
Fractions.
"""

from fractions import Fraction

ONE = (Fraction(1),)


def view(a) -> tuple:
    """(numerator, denominator) of a RatFunc as tuples of Fractions, low
    degree first, with the denominator monic."""
    lead = a.den[-1]
    return tuple(Fraction(c, lead) for c in a.num), tuple(Fraction(c, lead) for c in a.den)


def fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def ptext(a) -> str:
    """A polynomial in t with Fraction coefficients, terms high degree
    first."""
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        if i == 0:
            body = fraction_text(abs(c))
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            body = tpow if abs(c) == 1 else f"{fraction_text(abs(c))}*{tpow}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def ptrim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pneg(a) -> tuple:
    return tuple(-c for c in a)


def pmul(a, b) -> tuple:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def pscale(a, c) -> tuple:
    return ptrim(x * c for x in a)


def pdivmod(a, b) -> tuple:
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
        r = list(ptrim(r))
    return ptrim(q), ptrim(r)


def pgcd(a, b) -> tuple:
    """Monic gcd by the Euclidean algorithm."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pscale(a, 1 / a[-1]) if a else ()


def pderive(a) -> tuple:
    return ptrim(i * c for i, c in enumerate(a) if i)


def make(num, den) -> tuple:
    """num/den from coefficient sequences of ints or Fractions."""
    num = ptrim(Fraction(c) for c in num)
    den = ptrim(Fraction(c) for c in den)
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return (), ONE
    g = pgcd(num, den)
    num, den = pdivmod(num, g)[0], pdivmod(den, g)[0]
    return pscale(num, 1 / den[-1]), pscale(den, 1 / den[-1])


def add(a, b) -> tuple:
    return make(padd(pmul(a[0], b[1]), pmul(b[0], a[1])), pmul(a[1], b[1]))


def mul(a, b) -> tuple:
    return make(pmul(a[0], b[0]), pmul(a[1], b[1]))


def div(a, b) -> tuple:
    return make(pmul(a[0], b[1]), pmul(a[1], b[0]))


def derive(a) -> tuple:
    n, d = a
    return make(padd(pmul(pderive(n), d), pneg(pmul(n, pderive(d)))), pmul(d, d))


def text(a) -> str:
    n, d = a
    return ptext(n) if d == ONE else f"({ptext(n)})/({ptext(d)})"
