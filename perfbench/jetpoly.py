"""A small differential-polynomial arithmetic of the benchmark's own.

The generators build every planted query with this module, never with
``diffalg``, so the answers they expect do not depend on the code under
test.  It covers exactly what the generators need: sums, products and the
total derivation of polynomials in jet variables, with coefficients in
Q[t] (over Q every coefficient is a constant), and text in the syntax that
``diffalg`` system files accept.

A jet is ``(var, order)``; a monomial is a sorted tuple of ``(jet, exp)``;
a coefficient is a tuple of Fractions indexed by the power of t, with no
trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction


def _ctrim(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _cadd(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return _ctrim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _cmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ctrim(out)


def _cderive(a: tuple) -> tuple:
    return _ctrim(i * a[i] for i in range(1, len(a)))


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


class JetPoly:
    """Sparse polynomial: monomial -> coefficient (in Q[t])."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def const(c) -> "JetPoly":
        c = c if isinstance(c, tuple) else (Fraction(c),)
        return JetPoly({(): _ctrim(c)})

    @staticmethod
    def jet(var: int, order: int = 0, exp: int = 1) -> "JetPoly":
        return JetPoly({(((var, order), exp),): (Fraction(1),)})

    @staticmethod
    def t_poly(coeffs) -> "JetPoly":
        """The field element sum coeffs[k] * t^k as a constant polynomial."""
        return JetPoly({(): _ctrim(Fraction(c) for c in coeffs)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "JetPoly") -> "JetPoly":
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = _cadd(acc.get(m, ()), c)
        return JetPoly(acc)

    def __neg__(self) -> "JetPoly":
        return JetPoly({m: tuple(-x for x in c) for m, c in self.terms.items()})

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        return self + (-other)

    def __mul__(self, other: "JetPoly") -> "JetPoly":
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                acc[m] = _cadd(acc.get(m, ()), _cmul(c1, c2))
        return JetPoly(acc)

    def __pow__(self, k: int) -> "JetPoly":
        out = JetPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def derive(self, times: int = 1) -> "JetPoly":
        """Total derivation: d/dt on coefficients, x^(k) -> x^(k+1) on jets."""
        p = self
        for _ in range(times):
            acc: dict = {}
            for m, c in p.terms.items():
                dc = _cderive(c)
                if dc:
                    acc[m] = _cadd(acc.get(m, ()), dc)
                for i, ((var, order), e) in enumerate(m):
                    rest = m[:i] + m[i + 1 :]
                    lowered = rest + ((((var, order), e - 1),) if e > 1 else ())
                    nm = _mono_mul(tuple(sorted(lowered)), (((var, order + 1), 1),))
                    acc[nm] = _cadd(acc.get(nm, ()), tuple(e * x for x in c))
            p = JetPoly(acc)
        return p

    def max_order(self) -> int:
        return max((o for m in self.terms for (_v, o), _ in m), default=0)

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def eval_constant_point(self, values) -> Fraction:
        """Value at the constant point var -> values[var] over Q: every
        derivative of order >= 1 is zero there."""
        total = Fraction(0)
        for m, c in self.terms.items():
            if len(c) > 1:
                raise ValueError("evaluation needs coefficients in Q")
            val = c[0]
            for (v, o), e in m:
                val *= 0 if o else Fraction(values[v]) ** e
            total += val
        return total

    def text(self, names) -> str:
        if not self.terms:
            return "0"
        out = []
        for m in sorted(self.terms, key=lambda m: (-sum(e for _, e in m), m)):
            sign, body = _term_text(self.terms[m], m, names)
            if not out:
                out.append(body if sign > 0 else f"-{body}")
            else:
                out.append(f" {'+' if sign > 0 else '-'} {body}")
        return "".join(out)


def jet_text(var: int, order: int, names) -> str:
    base = names[var]
    return base + "'" * order if order <= 3 else f"{base}^({order})"


def _coeff_text(c: tuple) -> str:
    parts = []
    for k in range(len(c) - 1, -1, -1):
        x = c[k]
        if not x:
            continue
        mag = abs(x)
        num = "" if (mag == 1 and k) else str(mag)
        tpow = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        body = f"{num}*{tpow}" if num and tpow else (num or tpow)
        if not parts:
            parts.append(body if x > 0 else f"-{body}")
        else:
            parts.append(f" {'+' if x > 0 else '-'} {body}")
    return "".join(parts)


def _term_text(c: tuple, m: tuple, names) -> tuple:
    mono = "*".join(
        jet_text(v, o, names) + (f"^{e}" if e > 1 else "") for (v, o), e in m
    )
    if len(c) == 1:
        sign = 1 if c[0] > 0 else -1
        mag = abs(c[0])
        if not mono:
            return sign, str(mag)
        return sign, mono if mag == 1 else f"{mag}*{mono}"
    body = f"({_coeff_text(c)})"
    return 1, body if not mono else f"{body}*{mono}"
