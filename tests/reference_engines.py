"""Independent reference engines that the tests and scripts/random_audit.py
check the library against; none of them is on a path the library takes.

* jacobi_brute enumerates every permutation, the reference for
  jacobi_assign's assignment solve;
* jacobi_number is the order matrix of a system followed by jacobi_assign;
* first_order_expansion evaluates u at (point + eps*y) by dual numbers,
  with no partial derivative, the reference for linearize_at's one pass;
* verify_component re-checks a component against its system by one
  membership test per input and per inequation;
* text_sorted_fork and text_sorted_basic_set render every equation of a
  splitting node and sort by text, the reference for the splitting tree's
  _fork and _basic_set, which render text only to break a tie;
* _ExprParser is a token-by-token recursive-descent expression parser,
  written apart from sysfile's one-scan reader, the reference for
  parse_poly: the same polynomial with its terms in the same order, or the
  same ParseError, text and position;
* forward_certificate is Ritt division by whole-polynomial arithmetic, with
  the multiplier and every quotient rescaled at each step, the reference
  for ritt_reduce_seq's working map and step log: the same certificate and
  work count, or the same cap exception at the same step;
* Echelon is the oracle's row-echelon basis keyed by Monomial objects, each
  pivot picked by Monomial.sort_key, the reference for oracle._Echelon,
  which keys every entry by the sort key itself.
"""

from __future__ import annotations

import itertools
import re
from math import gcd
from typing import Optional, Sequence

import diffalg.reduction as _reduction
from diffalg import (
    CharSetComponent,
    ConcretePoint,
    Convention,
    DiffOperator,
    DiffPoly,
    JacobiResult,
    LinearizedPoly,
    Monomial,
    OrderMatrix,
    ReductionCertificate,
    analyze,
    extended_context,
    is_reduced,
    jacobi_assign,
    order_matrix,
)
from diffalg.diffpoly import MON_ONE, Context, DerVar, OrderCapExceeded, _accumulate
from diffalg.fields import QT, RF_ONE, RatFunc
from diffalg.jacobi import _score
from diffalg.linearize import tangent_dervar
from diffalg.sysfile import MAX_NESTING, ParseError

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


# ---------------------------------------------------------------------------
# the splitting tree's choices, by text order
# ---------------------------------------------------------------------------


def text_sorted_fork(node: frozenset, rank):
    """The children of a node split on one equation, or None: the first
    equation in text order of the monomial rule's shape (a single monomial
    that is not a bare jet variable) splits into its variables; else the
    first in text order of the power rule's shape (two or more terms, each
    of the leader's degree in the leader) into its leader and its monic
    initial.  rank(p) gives p's RankedPoly."""
    ctx = next(iter(node)).context
    ordered = sorted(node, key=DiffPoly.to_text)
    for p in ordered:
        if p.term_count() != 1:
            continue
        m = p.leading_monomial()
        if not m.factors or (len(m.factors) == 1 and m.factors[0][1] == 1):
            continue
        rest = node - {p}
        return [frozenset(rest | {DiffPoly.var(ctx, v.var, v.order)}) for v, _ in m.factors]
    for p in ordered:
        if p.is_constant() or p.term_count() == 1:
            continue
        rp = rank(p)
        if all(m.degree_in(rp.leader) == rp.degree for m in p.monomials()):
            rest = node - {p}
            leader = DiffPoly.var(ctx, rp.leader.var, rp.leader.order)
            return [frozenset(rest | {leader}), frozenset(rest | {rp.initial.monic()})]
    return None


def text_sorted_basic_set(node, rank) -> tuple:
    """The greedy basic set of a node, scanned by (rank key, text): (the
    kept RankedPolys, the other equations), both in scan order."""
    chosen, rest = [], []
    for rp in sorted((rank(p) for p in node), key=lambda rp: (rp.rank_key, rp.poly.to_text())):
        if all(is_reduced(rp.poly, c) for c in chosen):
            chosen.append(rp)
        else:
            rest.append(rp.poly)
    return chosen, rest


# ---------------------------------------------------------------------------
# Ritt division, forward
# ---------------------------------------------------------------------------


def _forward_offense(c: DiffPoly, ranked: list, ranking):
    """(jet, divisor index, kind) of the highest-ranked jet of c that a
    divisor's leader forbids: kind 'd' for a proper derivative of the
    leader, 'a' for the leader itself at the leader's degree or above."""
    hits = []
    for v in c.dervars():
        for i, rp in enumerate(ranked):
            if v.var != rp.leader.var:
                continue
            if v.order > rp.leader.order:
                hits.append((ranking.key(v), v, i, "d"))
            elif v == rp.leader and c.degree_in(v) >= rp.degree:
                hits.append((ranking.key(v), v, i, "a"))
    return max(hits)[1:] if hits else None


def _forward_rows(acc: dict, a: DiffPoly, b: DiffPoly, step: int, pairs: int) -> None:
    """acc += a * b, one row (a term of a times all of b) at a time, in the
    order of a's terms, the term count read after each row: refused past
    reduction.MAX_TERMS as the library refuses a division step."""
    for m, x in a.items():
        for m2, y in b.items():
            _accumulate(acc, m * m2, x * y)
        if len(acc) > _reduction.MAX_TERMS:
            raise _reduction.TermLimitExceeded(
                f"reduction stopped at step {step}: the step passes the cap of "
                f"{_reduction.MAX_TERMS} terms (MAX_TERMS)",
                pairs,
            )


def _forward_sizes(c: DiffPoly, step: int, pairs: int) -> None:
    """Refuse the polynomial a step made when one of its coefficients has
    an integer, in its numerator or denominator, of more than
    MAX_COEFF_BITS bits, or then a degree in t above MAX_T_DEGREE."""
    coeffs = [a for _, a in c.items()]
    bits = max((abs(x).bit_length() for a in coeffs for x in a.num + a.den), default=0)
    if bits > _reduction.MAX_COEFF_BITS:
        raise _reduction.TermLimitExceeded(
            f"reduction stopped at step {step}: the step makes a coefficient of {bits} bits, "
            f"over the cap of {_reduction.MAX_COEFF_BITS} bits (MAX_COEFF_BITS)",
            pairs,
        )
    degree = max((max(len(a.num), len(a.den)) - 1 for a in coeffs), default=0)
    if degree > _reduction.MAX_T_DEGREE:
        raise _reduction.TermLimitExceeded(
            f"reduction stopped at step {step}: the step makes a coefficient of degree {degree} "
            f"in t, over the cap of {_reduction.MAX_T_DEGREE} (MAX_T_DEGREE)",
            pairs,
        )


def forward_certificate(b: DiffPoly, seq, ranking) -> ReductionCertificate:
    """Ritt division with the multiplier and every quotient rescaled eagerly
    at each step, as the certificate used to be built, each step made as
    mult * c - cofactor * d^j(divisor).  The caps of diffalg.reduction,
    read when called, are checked as the library checks them: the
    division's running count of term pairs, with a step's two products (the
    scaling only when mult is not 1), against MAX_WORK, before either
    product is made; the terms against MAX_TERMS after each row of either
    product, both made row by row in the order of the working polynomial's
    terms (the scaling, a term of mult at a time, into a new polynomial;
    the subtraction, a term of the cofactor at a time, into the scaled
    one); and, once the step is made, every coefficient against
    MAX_COEFF_BITS and MAX_T_DEGREE.  A derivative past DEFAULT_ORDER_CAP
    stops the step as a cap does.  The certificate's pairs is that count."""
    ctx = b.context
    ranked = [analyze(a, ranking) for a in seq]
    one = DiffPoly.one(ctx)
    c = b
    multiplier = one
    factors = []
    quotients = [DiffOperator.zero(ctx) for _ in ranked]
    pairs = 0
    while True:
        off = _forward_offense(c, ranked, ranking)
        if off is None:
            break
        v, i, kind = off
        rp = ranked[i]
        step = len(factors) + 1
        if kind == "d":
            j = v.order - rp.leader.order
            try:
                divisor = rp.poly.derive(j)
            except OrderCapExceeded as exc:
                raise _reduction.TermLimitExceeded(f"reduction stopped at step {step}: {exc}", pairs) from None
            mult, degree = rp.separant, 1
        else:
            j = 0
            divisor, mult, degree = rp.poly, rp.initial, rp.degree
        d = c.degree_in(v)
        cofactor = c.coeff_of_power(v, d) * DiffPoly.from_terms(
            ctx, [(Monomial.of(v, d - degree), ctx.field.one)]
        )
        if mult != one:
            pairs += mult.term_count() * c.term_count()
        pairs += cofactor.term_count() * divisor.term_count()
        if pairs > _reduction.MAX_WORK:
            raise _reduction.StepLimitExceeded(
                f"reduction stopped at step {step}: its work would reach {pairs}, "
                f"over the budget MAX_WORK = {_reduction.MAX_WORK}"
            )
        acc = dict(c._terms)
        if mult != one:
            acc = {}
            _forward_rows(acc, mult, c, step, pairs)
        _forward_rows(acc, -cofactor, divisor, step, pairs)
        c = DiffPoly(ctx, acc)
        _forward_sizes(c, step, pairs)
        multiplier = mult * multiplier
        factors.append(mult)
        quotients = [
            sum((DiffOperator.of(mult * coeff, k) for coeff, k in q.terms()), DiffOperator.zero(ctx))
            for q in quotients
        ]
        quotients[i] = quotients[i] + DiffOperator.of(cofactor, j)
    cert = ReductionCertificate(
        multiplier=multiplier, factors=tuple(factors), quotients=tuple(quotients), remainder=c
    )
    cert.pairs = pairs
    return cert


# ---------------------------------------------------------------------------
# the oracle's echelon, keyed by monomials
# ---------------------------------------------------------------------------


class Echelon:
    """Exact row-echelon basis of candidate vectors keyed by Monomial: each
    row sits under its pivot unscaled, as (tail, combination, lead), and the
    pivot of a vector is its greatest monomial under Monomial.sort_key."""

    def __init__(self):
        self.rows = {}

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, combo: dict):
        rows = self.rows
        while vec:
            pivot = max(vec, key=Monomial.sort_key)
            row = rows.get(pivot)
            if row is None:
                return pivot
            rtail, rcombo, lead = row
            c = -(vec.pop(pivot) / lead)
            for target, source in ((vec, rtail), (combo, rcombo)):
                for m, x in source.items():
                    _accumulate(target, m, c * x)
        return None

    def add(self, key, vec: dict) -> None:
        combo = {key: RF_ONE}
        pivot = self._reduce(vec, combo)
        if pivot is not None:
            lead = vec.pop(pivot)
            self.rows[pivot] = (vec, combo, lead)

    def solve(self, f: DiffPoly) -> Optional[dict]:
        combo: dict = {}
        if self._reduce(dict(f.items()), combo) is not None:
            return None
        return {k: -c for k, c in combo.items()}


# ---------------------------------------------------------------------------
# the token-by-token expression parser
# ---------------------------------------------------------------------------

# A token is its text: a number, a name, a run of primes, or one operator.
# Whitespace separates tokens and is dropped.  Digits and whitespace are
# ASCII only.
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|'+|[^ \t\n\r\f\v]")
# A character no token may hold.
_BAD_RE = re.compile(r"[^ \t\n\r\f\v0-9A-Za-z_'()*+,\-/=>^]")


def _tokenize(src: str) -> list:
    """The token texts of src, followed by "" for the end of input."""
    bad = _BAD_RE.search(src)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    toks = _TOKEN_RE.findall(src)
    toks.append("")
    return toks


def _token_pos(src: str, i: int) -> int:
    """Where token i of src starts, the end of input at len(src).  Only a
    failing parse needs a position, so positions are found here, not kept
    with the tokens."""
    for k, m in enumerate(_TOKEN_RE.finditer(src)):
        if k == i:
            return m.start()
    return len(src)


# ---------------------------------------------------------------------------
# expression parser (recursive descent)
# ---------------------------------------------------------------------------


class _ExprParser:
    """expr := term (('+'|'-') term)*
    term := factor (('*'|'/') factor)*
    factor := '-'* atom ('^' INT)?
    atom := NUMBER | NAME jets? | '(' expr ')'
    jets := PRIMES | '^' '(' INT ')'

    A term is read straight into one coefficient and one exponent map:
    numbers, t and jets never become polynomials of their own, and integer
    literals stay Python integers until the term's one coefficient is
    built.  A parenthesised factor is a DiffPoly, multiplied into the term
    left to right, or folded into the coefficient when it is constant.  An
    expression adds its terms into one dict.  Terms keep the order in which
    they first appear, as sums and products of DiffPolys give it.
    Parentheses nest at most MAX_NESTING deep.  A power is made by
    repeated squaring from the power of its exponent's lowest set bit, but
    t^e at once, with its degree in t checked.  Each product of two
    DiffPolys, a power's among them, is charged its term pairs, one count
    for the whole parse, against reduction.MAX_WORK before it is made, and
    refused once the rows made so far hold more than reduction.MAX_TERMS
    terms.  Every product, of two DiffPolys or of two constants, is then
    refused when a coefficient it made has more than
    reduction.MAX_COEFF_BITS bits or a degree in t above
    reduction.MAX_T_DEGREE.  A product of polynomials is refused at its '(',
    a power's at its exponent, one of two constants at its second factor,
    and the term's coefficient, and its product with the term's
    parenthesised polynomial, at the token after the term.
    """

    def __init__(self, src: str, ctx: Context):
        self.src = src
        self.ctx = ctx
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0  # parentheses open at the current token
        self.work = 0  # term pairs charged so far

    # -- token helpers ------------------------------------------------------

    def _error(self, message: str, i: int) -> ParseError:
        return ParseError(message, _token_pos(self.src, i))

    def _accept_op(self, *ops: str) -> Optional[str]:
        t = self.toks[self.i]
        if t in ops:
            self.i += 1
            return t
        return None

    def _expect_op(self, op: str) -> None:
        t = self.toks[self.i]
        if t != op:
            raise self._error(f"expected {op!r}, found {t or 'end of input'!r}", self.i)
        self.i += 1

    def _expect_int(self) -> int:
        t = self.toks[self.i]
        if not t.isdecimal():
            raise self._error(f"expected an integer, found {t or 'end of input'!r}", self.i)
        self.i += 1
        return self._int_value(self.i - 1)

    def _int_value(self, i: int) -> int:
        t = self.toks[i]
        try:
            return int(t)
        except ValueError:  # past Python's limit on integer-string conversion
            raise self._error(f"integer literal of {len(t)} digits is too long", i) from None

    # -- grammar --------------------------------------------------------------

    def parse(self) -> DiffPoly:
        p = self._expr()
        t = self.toks[self.i]
        if t:
            raise self._error(f"unexpected trailing {t!r}", self.i)
        return p

    def _expr(self) -> DiffPoly:
        acc: dict = {}
        negate = False
        while True:
            self._term(acc, negate)
            op = self._accept_op("+", "-")
            if op is None:
                return DiffPoly(self.ctx, acc)
            negate = op == "-"

    def _term(self, acc: dict, negate: bool) -> None:
        """Add one term, negated when asked, into acc.  Integer literals
        multiply into one integer numerator and integer divisors into one
        denominator, which become one field element with one gcd; the other
        constant factors (t, powers and constant parenthesised expressions)
        multiply into a field element of their own."""
        num = den = 1  # the product of the integer literals, and of the integer divisors
        coeff = RF_ONE  # the product of the other constant factors
        exps: dict = {}  # jet -> exponent
        poly = None  # the product of the non-constant parenthesised factors
        slash = None  # index of the '/' before a divisor
        while True:
            at = self.i  # the factor's first token, a run of '-' skipped below
            neg, f = self._factor()
            negate ^= neg
            kind = type(f)
            while self.toks[at] == "-":
                at += 1
            if slash is not None:
                if kind is not int and kind is not RatFunc:
                    raise self._error("division is only allowed by constants", slash)
                if not f:
                    raise self._error("division by zero", slash)
                if kind is int:
                    den = f if den == 1 else self._checked(den * f, "product of two constants", at)
                else:
                    coeff = RF_ONE / f if coeff is RF_ONE else self._checked(coeff / f, "product of two constants", at)
            elif kind is int:
                num = f if num == 1 else self._checked(num * f, "product of two constants", at)
            elif kind is tuple:
                v, e = f
                exps[v] = exps.get(v, 0) + e
            elif kind is RatFunc:
                if f is not RF_ONE:
                    coeff = f if coeff is RF_ONE else self._checked(coeff * f, "product of two constants", at)
            elif poly is None:
                poly = f
            else:
                poly = self._product(poly, f, at)
            t = self.toks[self.i]
            if t != "*" and t != "/":
                break
            slash = self.i if t == "/" else None
            self.i += 1
        if not num or not coeff:
            return
        g = gcd(num, den)
        num, den = (-num if negate else num) // g, den // g
        if den != 1:
            q = RatFunc((num,), (den,))
        else:
            q = RF_ONE if num == 1 else RatFunc.from_int(num)
        if coeff is not RF_ONE:
            q = coeff if q is RF_ONE else self._checked(coeff * q, "product of two constants", self.i)
        mono = Monomial.make(exps.items()) if exps else MON_ONE
        if poly is None:
            _accumulate(acc, mono, q)
            return
        if q is not RF_ONE or mono is not MON_ONE:
            poly = self._product(poly, DiffPoly(self.ctx, {mono: q}), self.i)
        for m, c in poly.items():
            _accumulate(acc, m, c)

    def _factor(self) -> tuple:
        """(negate, value) for a factor, the value an int (an integer
        literal with no ``^``), a field element (t, a power of a number, or
        a constant parenthesised expression), a jet with its exponent as a
        (DerVar, e) pair, or a non-constant DiffPoly."""
        negate = False
        while self.toks[self.i] == "-":
            negate = not negate
            self.i += 1
        t = self.toks[self.i]
        self.i += 1
        if t.isidentifier():
            v = self._jet(t)
            if v is None:  # t over Q(t), its power made at once
                e = 1
                if self._accept_op("^"):
                    e = self._expect_int()
                    if e > _reduction.MAX_T_DEGREE:
                        raise self._error(
                            f"power t^{e} makes a coefficient of degree {e} in t, over the cap of "
                            f"{_reduction.MAX_T_DEGREE} (MAX_T_DEGREE)",
                            self.i - 1,
                        )
                return negate, RatFunc.t_power(e) if e else RF_ONE
            # one term with coefficient 1 passes every power cap
            e = self._expect_int() if self._accept_op("^") else 1
            return negate, (v, e) if e else RF_ONE
        if t.isdecimal():
            n = self._int_value(self.i - 1)
            if self.toks[self.i] != "^":
                return negate, n
            return negate, self._power_suffix(RF_ONE if n == 1 else RatFunc.from_int(n))
        if t == "(":
            if self.depth == MAX_NESTING:
                raise self._error(f"parentheses nested deeper than {MAX_NESTING} (MAX_NESTING)", self.i - 1)
            self.depth += 1
            p = self._expr()
            self._expect_op(")")
            self.depth -= 1
            return negate, self._power_suffix(p.constant_value() if p.is_constant() else p)
        raise self._error(f"unexpected {t or 'end of input'!r}", self.i - 1)

    def _jet(self, name: str) -> Optional[DerVar]:
        """The jet variable of the name just read, with its primes or
        ``^(k)``; None for t over Q(t)."""
        nxt = self.toks[self.i]
        if name == "t" and self.ctx.field is QT:
            if nxt[:1] == "'":
                raise self._error("t is a field element of Q(t); it takes no primes", self.i)
            return None
        try:
            var = self.ctx.var_index(name)
        except ValueError:
            raise self._error(f"unknown variable {name!r}", self.i - 1) from None
        if nxt[:1] == "'":
            if len(nxt) > 3:
                raise self._error(f"at most three primes; write {name}^({len(nxt)}) instead", self.i)
            self.i += 1
            return DerVar(var, len(nxt))
        if nxt == "^" and self.toks[self.i + 1] == "(":
            # ``x^(4)`` is the order-4 derivative; ``x^2`` is a power, left
            # to _factor.
            self.i += 2
            order = self._expect_int()
            self._expect_op(")")
            return DerVar(var, order)
        return DerVar(var, 0)

    def _power_suffix(self, p):
        """p ^ e for an optional ``^ INT`` after p, a DiffPoly or a field
        element: the power of e's lowest set bit, then one squaring per
        further bit and one product per further set bit.  A jet's power
        never gets here, nor does ``x^(k)``: _jet reads it as a derivative
        marker."""
        if not self._accept_op("^"):
            return p
        at = self.i
        e = self._expect_int()
        if not e:
            return RF_ONE
        if type(p) is DiffPoly:
            what = f"power ^{e} of a {p.term_count()}-term polynomial"
        else:
            what = f"power ^{e}"
        bits = bin(e)[:1:-1]  # e's binary digits, the lowest first
        out = None
        for k, bit in enumerate(bits):
            if k:
                p = self._product(p, p, at, what)
            if bit == "1":
                out = p if out is None else self._product(out, p, at, what)
        return out

    def _product(self, a, b, at: int, what: str = None):
        """a * b, refused at token at.  Two DiffPolys are charged their term
        pairs first, then multiplied row by row, a's terms in order, the
        term count read after each row; two field elements are left to
        _checked."""
        if type(a) is not DiffPoly:
            return self._checked(a * b, what or "product of two constants", at)
        what = what or f"product of a {a.term_count()}-term and a {b.term_count()}-term polynomial"
        self._charge(a.term_count() * b.term_count(), what, at)
        acc: dict = {}
        for m, c in a.items():
            for m2, c2 in b.items():
                _accumulate(acc, m * m2, c * c2)
            if len(acc) > _reduction.MAX_TERMS:
                raise self._error(f"{what} passes the cap of {_reduction.MAX_TERMS} terms (MAX_TERMS)", at)
        return self._checked(DiffPoly(self.ctx, acc), what, at)

    def _checked(self, p, what: str, at: int):
        """p, a product just made (a DiffPoly, a field element or an
        integer), refused at token at when its largest integer, numerator
        or denominator, has more than MAX_COEFF_BITS bits, or then its
        highest degree in t passes MAX_T_DEGREE."""
        coeffs = [c for _, c in p.items()] if type(p) is DiffPoly else [p]
        ints = [x for c in coeffs for x in ((c, 1) if type(c) is int else c.num + c.den)]
        bits = max(abs(x) for x in ints).bit_length()
        if bits > _reduction.MAX_COEFF_BITS:
            raise self._error(
                f"{what} makes a coefficient of {bits} bits, over the cap of "
                f"{_reduction.MAX_COEFF_BITS} bits (MAX_COEFF_BITS)",
                at,
            )
        degree = max(0 if type(c) is int else max(len(c.num), len(c.den)) - 1 for c in coeffs)
        if degree > _reduction.MAX_T_DEGREE:
            raise self._error(
                f"{what} makes a coefficient of degree {degree} in t, over the cap of "
                f"{_reduction.MAX_T_DEGREE} (MAX_T_DEGREE)",
                at,
            )
        return p

    def _charge(self, pairs: int, what: str, at: int) -> None:
        self.work += pairs
        if self.work > _reduction.MAX_WORK:
            raise self._error(
                f"{what} would bring the reader's work to {self.work} term pairs, "
                f"over the budget MAX_WORK = {_reduction.MAX_WORK}",
                at,
            )


def reference_parse_poly(src: str, ctx: Context) -> DiffPoly:
    """parse_poly by the token-by-token parser."""
    return _ExprParser(src, ctx).parse()
