"""Text formats: the expression grammar, system files, and component files.

The expression grammar covers differential polynomials as humans write them:

    x'' + y, x'^2 + y, 2*y*x' - y', x^(4) - t*x, (x' + y)^2 / 3

* primes mark derivatives up to order three; beyond that write ``x^(4)``;
* ``^`` followed by a parenthesised integer right after a name is a
  derivative marker; ``^`` followed by a bare integer is a power of any
  factor, a number included (``2^3`` is 8, ``-x^2`` is ``-(x^2)``);
* division is only by (nonzero) constants, so everything stays polynomial;
* over Q(t) the name ``t`` denotes the field parameter, not a variable.

The reader (``_scan``) reads an expression in one scan of one regex and
folds the matches left to right in one loop, with an explicit stack for
parentheses.  Over Q a match is first tried as a whole plain term, such as
``-3/2*x'^2`` or ``7``, whose monomial and coefficient are looked up by
their spelling in a table; any other match is one factor with its power and
the operator before it.  Each term's monomial and coefficient are built
once.  ``parse_system`` keeps one table for the whole file, equations and
point values alike, so a jet or coefficient that repeats in the file is
built once; nothing outlives one file.  The table also keeps the file's
work count.

The reader multiplies in one way only, ``_times``: a product of two
parenthesised polynomials, each squaring and product of a power ``p^e``, a
term's constant and jets times its parenthesised polynomial, and every
product of two constants (two numbers in one term, a division by a
constant).  A product of polynomials is charged its term pairs, then made
by ``reduction._checked_product``, as a division step's are; a product of
constants meets its coefficient rule.  The budget and the size caps are read
from ``reduction`` at each use: patching ``diffalg.reduction`` governs both.

A *system file* declares the field, the variables, a ranking, named
equations, and optionally named points.  A point's values are expressions
in the system's own variables that must come out constant.  It holds no
component blocks: components come in a component file of their own.

    field: Q
    vars: x, y
    ranking: elim x > y
    eq u1 = x'' + y
    eq u2 = x'^2 + y
    point p0: x = 0, y = 0

A *component file* is a sequence of blank-line-separated blocks:

    ranking: elim x > y
    charset: y^3 + 1/4*y'^2; y*x' - 1/2*y'
    ineqs: y; y'
    prime: no

Only ``charset:`` must be there; a block with no ``ranking:`` line takes the
system's ranking.

One rule reads every ``key: value`` line of both formats (``_keyed``): the
key is read lower-cased, each key comes at most once per file or block, and
a repeat is refused as ``line N: duplicate 'KEY:' line``.  Every error in a
line names that line.

``format_components`` inverts ``parse_components``, so the components that
``decompose`` prints can be fed back in unchanged.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from . import reduction
from .decompose import CharSetComponent
from .diffpoly import MON_ONE, ConcretePoint, Context, DerVar, DiffPoly, Monomial, _accumulate
from .fields import RF_ONE, RF_ZERO, Field, QQ, QT, RatFunc
from .ranking import Ranking, RankKind


# Deepest nesting of parentheses an expression may have: the reader saves
# the enclosing expression and its open term once per level.
MAX_NESTING = 100


class ParseError(ValueError):
    """An expression (or expression fragment) failed to parse."""

    def __init__(self, message: str, pos: int = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class SysFileError(ValueError):
    """A system or component file is malformed."""


# ---------------------------------------------------------------------------
# the expression reader
# ---------------------------------------------------------------------------

# A token is a number, a name, a run of primes, or one other character;
# whitespace separates tokens.  Error messages name the token they stop at,
# and rankings are read token by token.  Digits and whitespace are ASCII
# only: the classes are spelled out, since \d and \s on a str pattern also
# match the other Unicode digits and spaces.
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|'+|[^ \t\n\r\f\v]")
# A character no token may hold.
_BAD_RE = re.compile(r"[^ \t\n\r\f\v0-9A-Za-z_'()*+,\-/=>^]")
# One match is a plain term or one factor, each with the operator before it.
# A plain term is a whole term of the commonest shape,
#     [+|-] INT [/ INT]   or   [+|-] [INT [/ INT] *] NAME [primes] [^ INT]
# with one to three primes, a nonzero divisor, integers of at most 640
# digits, and a '+', '-' or the end after it.  Its groups are sign ('+', '-'
# or ''), its integers tnum and tden, and its variable tname with tprimes
# and its exponent texp.
# Anything else fails the plain alternative and is read a factor at a time:
#   op      '+', '-', '*', '/' or ''      minus   a run of unary minus
# then one of
#   name    a name, with primes, or with a derivative marker '^(', its
#           order and its ')' shut
#   lit     an integer literal
#   close   ')'
#   open    '('
# where name, lit and close may take a power '^' with exponent exp.  The
# integers order and exp match empty, and shut matches empty, when the '^('
# or '^' before them is not followed as it must be.  Every group after op
# is optional, so the scan matches at any position; a match that stops
# short of a well-formed factor leaves groups unset, and the reader names
# the token it stopped at.
_SP = r"[ \t\n\r\f\v]*"  # a run of ASCII whitespace
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM_END = rf"(?={_SP}(?:[-+]|\Z))"
# 640 is the least limit that Python's integer-string conversion may be set
# to, so int() takes these; a longer literal is read, and named, as a factor.
_DIGITS = r"[0-9]{1,640}"
_PLAIN = (
    rf"(?P<sign>[-+]?){_SP}(?=[0-9A-Za-z_])"
    rf"(?:(?P<tnum>{_DIGITS})(?:{_SP}/{_SP}(?P<tden>(?!0+(?![0-9])){_DIGITS}))?"
    rf"(?:{_SP}\*{_SP}(?=[A-Za-z_])|{_TERM_END}))?"
    rf"(?:(?P<tname>{_NAME})(?:{_SP}(?P<tprimes>'{{1,3}}))?(?:{_SP}\^{_SP}(?P<texp>{_DIGITS}))?)?{_TERM_END}"
)
_FACTOR = (
    rf"(?P<op>[-+*/]?)(?P<minus>(?:{_SP}-)*){_SP}"
    rf"(?:(?:(?P<name>{_NAME})(?:{_SP}(?P<primes>'+)|{_SP}\^{_SP}\({_SP}(?P<order>[0-9]*){_SP}(?P<shut>\)?))?"
    rf"|(?P<lit>[0-9]+)|(?P<close>\)))(?:{_SP}\^{_SP}(?P<exp>[0-9]*))?|(?P<open>\())?"
)
# Over Q(t) nearly every term has a coefficient in t, which no plain term
# holds, so the scan there has no plain alternative, and no groups for it.
_SCAN_Q = re.compile(rf"{_SP}(?:{_PLAIN}|{_FACTOR})")
_SCAN_QT = re.compile(rf"{_SP}{_FACTOR}")
_ONE = RF_ONE.den  # the denominator of an integer
_T = RatFunc.t_power(1)


def _check_chars(src: str) -> None:
    bad = _BAD_RE.search(src)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())


def _token_at(src: str, pos: int) -> tuple:
    """(text, position) of the first token at or after pos, ("", len(src))
    at the end of input."""
    m = _TOKEN_RE.search(src, pos)
    return (m.group(), m.start()) if m else ("", len(src))


def _expected(what: str, src: str, pos: int) -> ParseError:
    tok, at = _token_at(src, pos)
    return ParseError(f"expected {what}, found {tok or 'end of input'!r}", at)


def _int(src: str, m, group: str) -> int:
    """The integer that group of the match m holds; one must be there."""
    digits = m.group(group)
    if not digits:
        raise _expected("an integer", src, m.end(group))
    try:
        return int(digits)
    except ValueError:  # past Python's limit on integer-string conversion
        raise ParseError(f"integer literal of {len(digits)} digits is too long", m.start(group)) from None


def _rational(negate: bool, num: int, den: int) -> RatFunc:
    """The coefficient -num/den or num/den of a term, num and den nonzero."""
    if den != 1:
        g = gcd(num, den)
        num, den = num // g, den // g
    if negate:
        num = -num
    if den != 1:
        return RatFunc((num,), (den,))
    return RF_ONE if num == 1 else RatFunc((num,), _ONE)


_WORK = "work"  # the key of a file's work count in its table; the other keys are tuples


def _scan(src: str, ctx: Context, table: dict) -> dict:
    """The terms of the expression src, a map from monomials to nonzero
    coefficients in the order the terms first appear.

        expr := term (('+'|'-') term)*
        term := factor (('*'|'/') factor)*
        factor := '-'* atom ('^' INT)?
        atom := NUMBER | NAME jets? | '(' expr ')'
        jets := PRIMES | '^' '(' INT ')'

    One scan of one regex reads the expression left to right, in one loop.
    Over Q a plain term (see _PLAIN) is one match, its monomial and
    coefficient looked up in table by their spelling: (name, primes,
    exponent) -> Monomial and (negative, numerator, divisor) -> RatFunc.
    The caller keeps one table for a whole file, so a jet or coefficient
    that repeats in the file is built once; nothing outlives one file.
    Every other term is read a factor at a time, straight into one
    coefficient and one list of jets: numbers, t and jets never become
    polynomials of their own, and integer literals stay Python integers
    until the term's one coefficient is built.  A '(' saves the enclosing
    expression and its open term on an explicit stack, at most MAX_NESTING
    deep; its ')' makes the inner expression a DiffPoly, which is
    multiplied into the term left to right, or folded into the coefficient
    when it is constant.  Every product is made by _times: one of two
    numbers or two constants is refused at the factor that makes it, one
    of polynomials at its '(' and a power's at its exponent, and the
    term's coefficient, and its product with the term's parenthesised
    polynomial, at the token that ends the term.  Terms keep the order in
    which they first appear, as sums and products of DiffPolys give it.  An
    error names the first token, left to right, that cannot be read,
    whichever way the term is read.
    """
    _check_chars(src)
    qt = ctx.field is QT
    frames: list = []  # the enclosing expressions and their open terms
    acc: dict = {}  # the terms read so far
    # The open term: its sign, the product of its integer literals and of
    # its integer divisors, the product of its other constant factors, its
    # (jet, exponent) pairs, the product of its non-constant parenthesised
    # factors, and where the '/' before a divisor is.  A plain term goes
    # into acc at once and leaves num 0, an open term that adds nothing.
    negate, num, den, coeff, jets, poly, slash = False, 1, 1, RF_ONE, [], None, None
    operand = True  # a factor comes next, not an operator
    for m in (_SCAN_QT if qt else _SCAN_Q).finditer(src):
        if qt:
            sign = None
            op, minus, name, primes, order, shut, lit, close, exp, opened = m.groups()
        else:
            (sign, tnum, tden, tname, tprimes, texp,
             op, minus, name, primes, order, shut, lit, close, exp, opened) = m.groups()
            if sign is not None:
                op = sign
        # -- the operator, and the end of the open term at '+', '-', ')' or the end
        if operand:
            if op and op != "-":
                raise ParseError(f"unexpected {op!r}", m.start("op" if sign is None else "sign"))
            neg = op == "-"
        elif op == "*":
            slash = None
            neg = False
        elif op == "/":
            slash = m.start("op")
            neg = False
        else:
            if num and (coeff is RF_ONE or coeff):
                q = _rational(negate, num, den)
                if coeff is not RF_ONE:
                    q = coeff if q is RF_ONE else _times(coeff, q, table, m.start("op" if sign is None else "sign"))
                if len(jets) == 1:
                    mono = Monomial(tuple(jets))
                else:
                    mono = Monomial.make(jets) if jets else MON_ONE
                if poly is None:
                    if mono in acc:
                        _accumulate(acc, mono, q)
                    else:
                        acc[mono] = q
                else:
                    if q is not RF_ONE or mono is not MON_ONE:
                        poly = _times(poly, DiffPoly(ctx, {mono: q}), table, m.start("op" if sign is None else "sign"))
                    for pm, c in poly.items():
                        _accumulate(acc, pm, c)
            if op:
                if sign is None:  # a plain term opens no term
                    negate, num, den, coeff, jets, poly, slash = op == "-", 1, 1, RF_ONE, [], None, None
                    neg = False
            elif close is None:  # the end, or a token that cannot follow a factor
                at = m.end("minus" if sign is None else "sign")
                if frames:
                    raise _expected("')'", src, at)
                if at < len(src):
                    raise ParseError(f"unexpected trailing {_token_at(src, at)[0]!r}", at)
                return acc
            else:
                if not frames:
                    raise ParseError("unexpected trailing ')'", m.start("close"))
                if not acc:
                    f = RF_ZERO
                elif len(acc) == 1 and MON_ONE in acc:
                    f = acc[MON_ONE]
                else:
                    f = DiffPoly(ctx, acc)
                at, acc, negate, num, den, coeff, jets, poly, slash = frames.pop()
                if exp is not None:
                    f = _power(f, _int(src, m, "exp"), table, m.start("exp"))
                coeff, poly = _apply(f, slash, coeff, poly, table, at)
                continue
        # -- a plain term, whole
        if sign is not None:
            operand = False
            num = 0
            key = (op == "-", tnum, tden)
            q = table.get(key)
            if q is None:
                n = 1 if tnum is None else int(tnum)
                d = 1 if tden is None else int(tden)
                q = table[key] = _rational(key[0], n, d) if n else RF_ZERO
            if tname is None:
                mono = MON_ONE
            else:
                key = (tname, tprimes, texp)
                mono = table.get(key)
                if mono is None:
                    try:
                        var = ctx.var_index(tname)
                    except ValueError:
                        raise ParseError(f"unknown variable {tname!r}", m.start("tname")) from None
                    e = 1 if texp is None else int(texp)
                    mono = table[key] = Monomial(((DerVar(var, len(tprimes) if tprimes else 0), e),)) if e else MON_ONE
            if q:
                if mono in acc:
                    _accumulate(acc, mono, q)
                else:
                    acc[mono] = q
            continue
        if minus:
            neg ^= minus.count("-") & 1
        # -- the factor
        if name is not None:
            operand = False
            if not (qt and name == "t"):
                try:
                    var = ctx.var_index(name)
                except ValueError:
                    raise ParseError(f"unknown variable {name!r}", m.start("name")) from None
                if primes is not None:
                    k = len(primes)
                    if k > 3:
                        raise ParseError(f"at most three primes; write {name}^({k}) instead", m.start("primes"))
                elif order is not None:
                    k = _int(src, m, "order")
                    if not shut:
                        raise _expected("')'", src, m.end("order"))
                else:
                    k = 0
                # one term with coefficient 1 passes every power cap
                e = 1 if exp is None else _int(src, m, "exp")
                negate ^= neg
                if e:  # else the factor is 1
                    if slash is not None:
                        raise ParseError("division is only allowed by constants", slash)
                    jets.append((DerVar(var, k), e))
                continue
            if primes is not None:
                raise ParseError("t is a field element of Q(t); it takes no primes", m.start("primes"))
            if order is not None:
                raise ParseError("expected an integer, found '('", src.index("(", m.end("name")))
            at = m.start("name")
            if exp is None:
                f = _T
            else:
                # t^e is made at once, with an exact check of its degree
                e = _int(src, m, "exp")
                if e > reduction.MAX_T_DEGREE:
                    raise ParseError(f"power t^{e} {reduction._coefficient_defect((), e)}", m.start("exp"))
                f = RatFunc.t_power(e) if e else RF_ONE
        elif lit is not None:
            operand = False
            at = m.start("lit")
            try:
                f = int(lit)
            except ValueError:  # past Python's limit on integer-string conversion
                raise ParseError(f"integer literal of {len(lit)} digits is too long", at) from None
            if exp is None:
                negate ^= neg
                if slash is None:
                    num = f if num == 1 else _times(num, f, table, at)
                elif not f:
                    raise ParseError("division by zero", slash)
                else:
                    den = f if den == 1 else _times(den, f, table, at)
                continue
            f = _power(RF_ONE if f == 1 else RatFunc.from_int(f), _int(src, m, "exp"), table, m.start("exp"))
        elif opened is not None:
            if len(frames) == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} (MAX_NESTING)", m.start("open"))
            frames.append((m.start("open"), acc, negate ^ neg, num, den, coeff, jets, poly, slash))
            acc, negate, num, den, coeff, jets, poly, slash = {}, False, 1, 1, RF_ONE, [], None, None
            operand = True
            continue
        else:  # no factor where one must come
            tok, at = _token_at(src, m.end("minus"))
            raise ParseError(f"unexpected {tok or 'end of input'!r}", at)
        negate ^= neg
        coeff, poly = _apply(f, slash, coeff, poly, table, at)


def _apply(f, slash, coeff, poly, table: dict, at: int) -> tuple:
    """(coeff, poly) of the open term times a factor at position at that is
    neither a jet nor a plain integer literal: a field element (t, a power
    of a number, or a constant parenthesised expression) or a DiffPoly;
    divided by it instead after a '/' at position slash."""
    if slash is not None:
        if type(f) is not RatFunc:
            raise ParseError("division is only allowed by constants", slash)
        if not f:
            raise ParseError("division by zero", slash)
        f = RF_ONE / f
    if type(f) is RatFunc:
        if f is not RF_ONE:
            coeff = f if coeff is RF_ONE else _times(coeff, f, table, at)
    elif poly is None:
        poly = f
    else:
        poly = _times(poly, f, table, at)
    return coeff, poly


def _times(a, b, table: dict, at: int, what: str = None):
    """a * b for two DiffPolys, two field elements or two integers: the one
    way the reader multiplies, refused at position at past a cap.  A product
    of an n-term and a k-term polynomial is charged its n * k term pairs to
    the file's work count in table, refused past MAX_WORK, and then made by
    reduction's checked product; a product of constants meets its coefficient
    rule.  what names the product in a refusal; a power names its own."""
    if type(a) is DiffPoly:
        n, k = a.term_count(), b.term_count()
        what = what or f"product of a {n}-term and a {k}-term polynomial"
        work = table[_WORK] = table.get(_WORK, 0) + n * k
        if work > reduction.MAX_WORK:
            raise ParseError(f"{what} would bring the reader's work to {work} term pairs, "
                             f"over the budget MAX_WORK = {reduction.MAX_WORK}", at)
        acc: dict = {}
        defect = reduction._checked_product(acc, a._terms, b._terms)
        p = DiffPoly(a.context, acc)
    else:
        p = a * b  # an integer product is held to the rule as the field element it stands for
        defect = reduction._coefficient_defect((p if type(p) is RatFunc else RatFunc((p,), _ONE),))
        what = what or "product of two constants"
    if defect is not None:
        raise ParseError(f"{what} {defect}", at)
    return p


def _power(p, e: int, table: dict, at: int):
    """p ^ e for a DiffPoly or a field element p, by repeated squaring from
    the power of e's lowest set bit, each product made by _times and refused
    at the exponent's position at.  A jet's power never gets here."""
    if not e:
        return RF_ONE
    what = f"power ^{e}" if type(p) is RatFunc else f"power ^{e} of a {p.term_count()}-term polynomial"
    out = None
    while True:
        if e & 1:
            out = p if out is None else _times(out, p, table, at, what)
        e >>= 1
        if not e:
            return out
        p = _times(p, p, table, at, what)


def parse_poly(src: str, ctx: Context) -> DiffPoly:
    """Parse one differential polynomial in the variables of ``ctx``."""
    return DiffPoly(ctx, _scan(src, ctx, {}))


# ---------------------------------------------------------------------------
# rankings
# ---------------------------------------------------------------------------


def parse_ranking(src: str, ctx: Context) -> Ranking:
    """Parse ``elim x > y`` / ``orderly y > x``.  The chain must mention every
    variable exactly once, greatest first."""
    _check_chars(src)
    toks = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(src)]
    toks.append(("", len(src)))
    kind, at = toks[0]
    if kind not in ("elim", "elimination", "orderly"):
        raise ParseError("ranking must start with 'elim' or 'orderly'", at)
    chain = []
    i = 1
    while toks[i][0]:
        tok, at = toks[i]
        if not tok.isidentifier():
            raise ParseError(f"expected a variable name, found {tok!r}", at)
        chain.append(tok)
        i += 1
        tok, at = toks[i]
        if tok == ">":
            i += 1
        elif tok:
            raise ParseError(f"expected '>', found {tok!r}", at)
    if sorted(chain) != sorted(ctx.names):
        raise ParseError(
            f"ranking chain must list every variable exactly once; "
            f"got {chain!r} for variables {list(ctx.names)!r}"
        )
    order = [ctx.var_index(nm) for nm in chain]
    if kind == "orderly":
        return Ranking.orderly(ctx.n, order)
    return Ranking.elimination(ctx.n, order)


def format_ranking(ranking: Ranking, ctx: Context) -> str:
    greatest_first = sorted(range(ctx.n), key=lambda v: -ranking.priority[v])
    chain = " > ".join(ctx.names[v] for v in greatest_first)
    word = "elim" if ranking.kind is RankKind.ELIMINATION else "orderly"
    return f"{word} {chain}"


# ---------------------------------------------------------------------------
# system files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemFile:
    """A parsed system file: context, ranking, named equations and named
    points."""

    context: Context
    ranking: Ranking
    equations: tuple  # of (name, DiffPoly)
    points: tuple = ()  # of (name, ConcretePoint)

    @property
    def system(self) -> tuple:
        return tuple(p for _, p in self.equations)

    def equation(self, name: str) -> DiffPoly:
        return _named(self.equations, name, "equation")

    def point(self, name: str) -> ConcretePoint:
        return _named(self.points, name, "point")


def _named(pairs: tuple, name: str, noun: str):
    """The value named name among the (name, value) pairs."""
    for nm, value in pairs:
        if nm == name:
            return value
    raise ValueError(f"no {noun} named {name!r}")


def _lines(text: str):
    """(line number, line) for each line of a file, the line stripped of
    its comment and surrounding blanks.  '#' starts a comment anywhere
    outside an expression's tokens; none of the grammar's tokens contain
    '#', so a plain split is safe."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        yield lineno, raw.split("#", 1)[0].strip()


@contextmanager
def _at_line(lineno: int, where: str = "line"):
    """Re-raise a ValueError (a ParseError among them) from the body as a
    SysFileError that names the line, or with where="block at line" the
    block, it came from.  The body must not raise SysFileError, or its
    message would name the line twice."""
    try:
        yield
    except ValueError as exc:
        raise SysFileError(f"{where} {lineno}: {exc}") from None


def _keyed(line: str, values: dict) -> Optional[tuple]:
    """(key, value text) of a ``key: value`` line, the key lower-cased and
    stripped of blanks; None when the line has no colon.  values holds what
    the file or block has read so far, by key: each key comes once, and a
    key already there is refused."""
    key, colon, value = line.partition(":")
    if not colon:
        return None
    key = key.strip().lower()
    if key in values:
        raise ValueError(f"duplicate '{key}:' line")
    return key, value


def _parse_field(text: str) -> Field:
    text = text.strip()
    if text == "Q":
        return QQ
    if text.replace(" ", "") == "Q(t)":
        return QT
    raise ValueError(f"unknown field {text!r}; expected 'Q' or 'Q(t)'")


def _parse_assignments(text: str, ctx: Context, table: dict) -> ConcretePoint:
    """The point of ``x = c, y = d, ...``, each value read by one scan with
    the file's table."""
    named = {}
    for piece in text.split(","):
        nm, eq, val = piece.partition("=")
        if not eq:
            raise ValueError(f"bad assignment {piece.strip()!r}")
        nm = nm.strip()
        if nm in named:
            raise ValueError(f"variable {nm!r} is assigned twice")
        terms = _scan(val.strip(), ctx, table)
        c = terms.pop(MON_ONE, RF_ZERO)
        if terms:  # not rendered: its text can pass 4,300 digits
            raise ValueError(f"the value of {nm!r} is not a constant")
        named[nm] = c
    return ConcretePoint.from_names(ctx, named)


# The header keys of a system file, in order: each needs the one before it.
_HEADERS = ("field", "vars", "ranking")


def parse_system(text: str) -> SystemFile:
    """Parse a system file.  Its header lines ``field:``, ``vars:`` and
    ``ranking:`` come once each and in that order, and ``vars:`` before
    every ``eq`` and ``point`` line.  Every expression of the file is read
    with one table of the jets and coefficients read so far (see _scan)."""
    header: dict = {}  # header key -> its value
    table: dict = {}  # spelling -> Monomial or RatFunc, and _WORK, for this file only
    equations: dict = {}  # name -> DiffPoly, in file order
    points: dict = {}  # name -> ConcretePoint, in file order

    for lineno, line in _lines(text):
        if not line:
            continue
        with _at_line(lineno):
            is_eq = line.startswith(("eq ", "eq\t"))
            if is_eq or line.startswith(("point ", "point\t")):
                # eq NAME = EXPRESSION  or  point NAME: x = c, ...
                noun, named = ("equation", equations) if is_eq else ("point", points)
                if "vars" not in header:
                    raise ValueError(f"'vars:' must come before {noun}s")
                head, sep, body = line[3 if is_eq else 6 :].partition("=" if is_eq else ":")
                name = head.strip()
                if not sep or not name:
                    form = "eq NAME = EXPRESSION" if is_eq else "point NAME: x = c, ..."
                    raise ValueError(f"expected '{form}'")
                if not name.isidentifier():
                    raise ValueError(f"bad {noun} name {name!r}")
                if name in named:
                    raise ValueError(f"duplicate {noun} name {name!r}")
                ctx = header["vars"]
                if is_eq:
                    terms = _scan(body.strip(), ctx, table)
                    if not terms:
                        raise ValueError(f"equation {name!r} is identically zero")
                    named[name] = DiffPoly(ctx, terms)
                else:
                    named[name] = _parse_assignments(body, ctx, table)
                continue
            keyed = _keyed(line, header)
            if keyed is None or keyed[0] not in _HEADERS:
                raise ValueError(f"cannot understand {line!r}")
            key, value = keyed
            i = _HEADERS.index(key)
            if i and _HEADERS[i - 1] not in header:
                raise ValueError(f"'{_HEADERS[i - 1]}:' must come before '{key}:'")
            if key == "field":
                header[key] = _parse_field(value)
            elif key == "vars":
                names = tuple(nm.strip() for nm in value.split(",") if nm.strip())
                header[key] = Context(names, header["field"])
            else:
                header[key] = parse_ranking(value.strip(), header["vars"])

    for key in _HEADERS:
        if key not in header:
            raise SysFileError(f"missing '{key}:' line")
    if not equations:
        raise SysFileError("a system file needs at least one 'eq' line")

    return SystemFile(header["vars"], header["ranking"], tuple(equations.items()), tuple(points.items()))


# ---------------------------------------------------------------------------
# component files
# ---------------------------------------------------------------------------


def parse_components(text: str, ctx: Context, ranking: Ranking) -> tuple:
    """Parse a component file: blank-line-separated blocks of a
    ``charset:`` line and optional ``ranking:`` (default: ranking, the
    system's), ``ineqs:`` (default none) and ``prime:`` lines, each key at
    most once per block, all read with one table.  ``prime:`` may only say
    ``no``: nothing tests primality, so ``prime: yes`` is refused."""
    blocks: list = [[]]
    for lineno, line in _lines(text):
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append((lineno, line))
    if not blocks[-1]:
        blocks.pop()

    table: dict = {}
    components = []
    for block in blocks:
        values: dict = {}  # key -> its value
        for lineno, line in block:
            with _at_line(lineno):
                keyed = _keyed(line, values)
                if keyed is None:
                    raise ValueError(f"expected 'key: value', got {line!r}")
                key, value = keyed
                if key == "ranking":
                    values[key] = parse_ranking(value.strip(), ctx)
                elif key in ("charset", "ineqs"):
                    pieces = () if value.strip() == "(none)" else value.split(";")
                    values[key] = tuple(DiffPoly(ctx, _scan(p.strip(), ctx, table)) for p in pieces if p.strip())
                    if key == "charset" and not values[key]:
                        raise ValueError("empty charset")
                elif key == "prime":
                    word = value.strip().lower()
                    if word == "yes":
                        raise ValueError("'prime: yes' is refused: no primality test confirms it; write 'prime: no'")
                    if word != "no":
                        raise ValueError("prime must be 'no'")
                    values[key] = False
                else:
                    raise ValueError(f"unknown component key {key!r}")
        first = block[0][0]
        if "charset" not in values:
            raise SysFileError(f"block at line {first}: missing 'charset:' line")
        with _at_line(first, "block at line"):
            components.append(
                CharSetComponent(
                    values.get("ranking", ranking),
                    values["charset"],
                    values.get("ineqs", ()),
                )
            )
    return tuple(components)


def format_components(components: Sequence[CharSetComponent], ctx: Context) -> str:
    blocks = (f"ranking: {format_ranking(c.ranking, ctx)}\n{c.to_text()}" for c in components)
    return "\n\n".join(blocks) + "\n"
