"""Text formats: the expression grammar, system files, and component files.

The expression grammar covers differential polynomials as humans write them:

    x'' + y, x'^2 + y, 2*y*x' - y', x^(4) - t*x, (x' + y)^2 / 3

* primes mark derivatives up to order three; beyond that write ``x^(4)``;
* ``^`` followed by a parenthesised integer right after a name is a
  derivative marker; ``^`` followed by a bare integer is a power of any
  factor, a number included (``2^3`` is 8, ``-x^2`` is ``-(x^2)``);
* division is only by (nonzero) constants, so everything stays polynomial;
* over Q(t) the name ``t`` denotes the field parameter, not a variable.

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

``format_components`` inverts ``parse_components``, so the components that
``decompose`` prints can be fed back in unchanged.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb, gcd, lcm
from typing import Optional, Sequence

from .decompose import CharSetComponent
from .diffpoly import MON_ONE, ConcretePoint, Context, DerVar, DiffPoly, Monomial, _accumulate
from .fields import RF_ONE, Field, QQ, QT, RatFunc
from .ranking import Ranking, RankKind


# Largest term count a ``p ^ e`` may be expanded to: a polynomial with n
# terms has at most C(n + e - 1, e) terms in its e-th power.
MAX_POWER_TERMS = 10_000
# Deepest nesting of parentheses an expression may have: the parser recurses
# once per level, and Python's stack would give out near 250.
MAX_NESTING = 100
# Largest number of term products the expansion of a ``p ^ e`` may make (see
# _power_products): (x + y)^9999 passes the term cap but would make 38 million.
MAX_POWER_PRODUCTS = 100_000
# Largest coefficient size, in bits of a numerator or denominator, and
# largest degree in t that a ``p ^ e`` may be expanded to.  Both are bounded
# from p without expanding (see _power_growth).  When p's coefficients are
# polynomials in t, the bit cap keeps every coefficient of the power inside
# the 4,300 digits Python will print.
MAX_POWER_COEFF_BITS = 10_000
MAX_POWER_T_DEGREE = 1_000


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
# tokenizer
# ---------------------------------------------------------------------------

# A token is its text: a number, a name, a run of primes, or one operator.
# Whitespace separates tokens and is dropped.
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|'+|\S")
# A character no token may hold.
_BAD_RE = re.compile(r"[^\s\dA-Za-z_'()*+,\-/=>^]")


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
    numbers, t and jets never become polynomials of their own.  A
    parenthesised factor is a DiffPoly, multiplied into the term left to
    right, or folded into the coefficient when it is constant.  An
    expression adds its terms into one dict.  Terms keep the order in which
    they first appear, as sums and products of DiffPolys give it.
    Parentheses nest at most MAX_NESTING deep.
    """

    def __init__(self, src: str, ctx: Context):
        self.src = src
        self.ctx = ctx
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0  # parentheses open at the current token

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
        """Add one term, negated when asked, into acc."""
        coeff = RF_ONE  # the product of the constant factors
        exps: dict = {}  # jet -> exponent
        poly = None  # the product of the non-constant parenthesised factors
        slash = None  # index of the '/' before a divisor
        while True:
            neg, f = self._factor()
            negate ^= neg
            if slash is not None:
                if type(f) is not RatFunc:
                    raise self._error("division is only allowed by constants", slash)
                if not f:
                    raise self._error("division by zero", slash)
                coeff = coeff / f
            elif type(f) is tuple:
                v, e = f
                exps[v] = exps.get(v, 0) + e
            elif type(f) is RatFunc:
                if f is not RF_ONE:
                    coeff = f if coeff is RF_ONE else coeff * f
            else:
                poly = f if poly is None else poly * f
            t = self.toks[self.i]
            if t != "*" and t != "/":
                break
            slash = self.i if t == "/" else None
            self.i += 1
        if not coeff:
            return
        if negate:
            coeff = -coeff
        mono = Monomial.make(exps.items()) if exps else MON_ONE
        if poly is None:
            _accumulate(acc, mono, coeff)
            return
        for m, c in poly.items():
            _accumulate(acc, m * mono, c if coeff is RF_ONE else c * coeff)

    def _factor(self) -> tuple:
        """(negate, value) for a factor, the value a field element (a
        number, t, or a constant parenthesised expression), a jet with its
        exponent as a (DerVar, e) pair, or a non-constant DiffPoly."""
        negate = False
        while self.toks[self.i] == "-":
            negate = not negate
            self.i += 1
        t = self.toks[self.i]
        self.i += 1
        if t.isidentifier():
            v = self._jet(t)
            if v is None:  # t over Q(t)
                return negate, self._power_suffix(RatFunc.t_power(1))
            # one term with coefficient 1 passes every power cap
            e = self._expect_int() if self._accept_op("^") else 1
            return negate, (v, e) if e else RF_ONE
        if t.isdecimal():
            n = self._int_value(self.i - 1)
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
        element, refused when the power may pass a cap.  A jet's power
        never gets here, nor does ``x^(k)``: _jet reads it as a derivative
        marker."""
        if not self._accept_op("^"):
            return p
        at = self.i
        e = self._expect_int()
        q = p if type(p) is DiffPoly else DiffPoly.const(self.ctx, p)
        n = q.term_count()
        if n > 1 and comb(n + e - 1, e) > MAX_POWER_TERMS:
            raise self._error(
                f"power ^{e} of a {n}-term polynomial may exceed the cap of "
                f"{MAX_POWER_TERMS} terms",
                at,
            )
        if n > 1 and _power_products(n, e) > MAX_POWER_PRODUCTS:
            raise self._error(
                f"power ^{e} of a {n}-term polynomial may exceed the cap of "
                f"{MAX_POWER_PRODUCTS} term products (MAX_POWER_PRODUCTS)",
                at,
            )
        bits, tdeg = _power_growth(q)
        if e * bits > MAX_POWER_COEFF_BITS:
            raise self._error(
                f"power ^{e} may exceed the cap of {MAX_POWER_COEFF_BITS} "
                f"coefficient bits (MAX_POWER_COEFF_BITS)",
                at,
            )
        if e * tdeg > MAX_POWER_T_DEGREE:
            raise self._error(
                f"power ^{e} may exceed the cap of {MAX_POWER_T_DEGREE} "
                f"in t-degree (MAX_POWER_T_DEGREE)",
                at,
            )
        return p ** e


def _power_products(n: int, e: int) -> int:
    """Term products that DiffPoly.__pow__ makes for the e-th power of an
    n-term polynomial, each k-th power counted at its largest size, the
    C(n + k - 1, k) monomials of degree k in n terms."""
    total, out, base = 0, 0, 1  # exponents of the running product and the square
    while e:
        if e & 1:
            total += comb(n + out - 1, out) * comb(n + base - 1, base)
            out += base
        e >>= 1
        if e:
            total += comb(n + base - 1, base) ** 2
            base *= 2
    return total


def _power_growth(p: DiffPoly) -> tuple:
    """(bits, t-degree) that each factor of a power of p can add to a
    coefficient of the power, read from p without expanding anything.

    Over the lcm L of the denominators of p's rational numbers, a rational
    coefficient of p^e is a sum of at most (terms * width)^e products of e
    numerators over L^e, where width counts the nonzero coefficients in t of
    p's widest coefficient.  With A the largest |q * L|, its numerator is at
    most 2^(e * (log A + log(terms * width))) and its denominator at most
    L^e, logs rounded up.  The degree in t grows by at most p's top
    numerator degree plus the degrees of its distinct denominators.  The
    degree is a bound; the bits are one when every coefficient of p is a
    polynomial in t, and only an estimate when one has a denominator in t,
    since cancelling and scaling to monic can change the sizes."""
    rationals, dens, width, tnum = [], set(), 1, 0  # rationals as (|num|, den) in lowest terms
    for _, c in p.items():
        num, den = c.num, c.den
        if len(den) > 1:
            g = gcd(*den)
            dens.add(tuple(x // g for x in den))  # equal for denominators equal up to a constant
        lead = den[-1]
        for x in num if len(den) == 1 else num + den:
            if x:
                g = gcd(x, lead)
                rationals.append((abs(x) // g, lead // g))
        width = max(width, sum(1 for x in num if x), sum(1 for x in den if x))
        tnum = max(tnum, len(num) - 1)
    den_lcm = lcm(*(d for _, d in rationals))
    top = max((n * (den_lcm // d) for n, d in rationals), default=1)
    products = max(p.term_count() * width, 1)
    bits = max((top - 1).bit_length() + (products - 1).bit_length(), (den_lcm - 1).bit_length())
    return bits, tnum + sum(len(d) - 1 for d in dens)


def parse_poly(src: str, ctx: Context) -> DiffPoly:
    """Parse one differential polynomial in the variables of ``ctx``."""
    return _ExprParser(src, ctx).parse()


# ---------------------------------------------------------------------------
# rankings
# ---------------------------------------------------------------------------


def parse_ranking(src: str, ctx: Context) -> Ranking:
    """Parse ``elim x > y`` / ``orderly y > x``.  The chain must mention every
    variable exactly once, greatest first."""
    toks = _tokenize(src)
    if toks[0] not in ("elim", "elimination", "orderly"):
        raise ParseError("ranking must start with 'elim' or 'orderly'", _token_pos(src, 0))
    kind = toks[0]
    chain = []
    i = 1
    while toks[i]:
        if not toks[i].isidentifier():
            raise ParseError(f"expected a variable name, found {toks[i]!r}", _token_pos(src, i))
        chain.append(toks[i])
        i += 1
        if toks[i] == ">":
            i += 1
        elif toks[i]:
            raise ParseError(f"expected '>', found {toks[i]!r}", _token_pos(src, i))
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
        for nm, p in self.equations:
            if nm == name:
                return p
        raise ValueError(f"no equation named {name!r}")

    def point(self, name: str) -> ConcretePoint:
        for nm, pt in self.points:
            if nm == name:
                return pt
        raise ValueError(f"no point named {name!r}")


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


def _parse_field(text: str) -> Field:
    text = text.strip()
    if text == "Q":
        return QQ
    if text.replace(" ", "") == "Q(t)":
        return QT
    raise SysFileError(f"unknown field {text!r}; expected 'Q' or 'Q(t)'")


def _parse_assignments(text: str, ctx: Context, lineno: int) -> ConcretePoint:
    named = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise SysFileError(f"line {lineno}: bad assignment {piece.strip()!r}")
        nm, val = piece.split("=", 1)
        nm = nm.strip()
        if nm in named:
            raise SysFileError(f"line {lineno}: variable {nm!r} is assigned twice")
        with _at_line(lineno):
            p = parse_poly(val.strip(), ctx)
        if not p.is_constant():  # not rendered: its text can pass 4,300 digits
            raise SysFileError(f"line {lineno}: the value of {nm!r} is not a constant")
        named[nm] = p.constant_value()
    with _at_line(lineno):
        return ConcretePoint.from_names(ctx, named)


def parse_system(text: str) -> SystemFile:
    """Parse a system file.  ``field:`` and ``vars:`` must precede everything
    that needs them."""
    field: Optional[Field] = None
    ctx: Optional[Context] = None
    ranking: Optional[Ranking] = None
    equations: list = []
    points: list = []

    for lineno, line in _lines(text):
        if not line:
            continue

        key, _, rest = line.partition(":")
        key_word = key.strip().lower()

        if key_word == "field" and _ == ":":
            if field is not None:
                raise SysFileError(f"line {lineno}: duplicate 'field:' line")
            field = _parse_field(rest)
            continue
        if key_word == "vars" and _ == ":":
            if ctx is not None:
                raise SysFileError(f"line {lineno}: duplicate 'vars:' line")
            if field is None:
                raise SysFileError(f"line {lineno}: 'field:' must come before 'vars:'")
            names = tuple(nm.strip() for nm in rest.split(",") if nm.strip())
            with _at_line(lineno):
                ctx = Context(names, field)
            continue
        if key_word == "ranking" and _ == ":":
            if ctx is None:
                raise SysFileError(f"line {lineno}: 'vars:' must come before 'ranking:'")
            if ranking is not None:
                raise SysFileError(f"line {lineno}: duplicate 'ranking:' line")
            with _at_line(lineno):
                ranking = parse_ranking(rest.strip(), ctx)
            continue

        if line.startswith("eq ") or line.startswith("eq\t"):
            if ctx is None:
                raise SysFileError(f"line {lineno}: 'vars:' must come before equations")
            head, eq, src = line[3:].partition("=")
            name = head.strip()
            if not eq or not name:
                raise SysFileError(f"line {lineno}: expected 'eq NAME = EXPRESSION'")
            if not name.isidentifier():
                raise SysFileError(f"line {lineno}: bad equation name {name!r}")
            if any(nm == name for nm, _p in equations):
                raise SysFileError(f"line {lineno}: duplicate equation name {name!r}")
            with _at_line(lineno):
                p = parse_poly(src.strip(), ctx)
            if p.is_zero():
                raise SysFileError(f"line {lineno}: equation {name!r} is identically zero")
            equations.append((name, p))
            continue

        if line.startswith("point ") or line.startswith("point\t"):
            if ctx is None:
                raise SysFileError(f"line {lineno}: 'vars:' must come before points")
            head, colon, rest2 = line[6:].partition(":")
            name = head.strip()
            if not colon or not name.isidentifier():
                raise SysFileError(f"line {lineno}: expected 'point NAME: x = c, ...'")
            if any(nm == name for nm, _p in points):
                raise SysFileError(f"line {lineno}: duplicate point name {name!r}")
            points.append((name, _parse_assignments(rest2, ctx, lineno)))
            continue

        raise SysFileError(f"line {lineno}: cannot understand {line!r}")

    if field is None:
        raise SysFileError("missing 'field:' line")
    if ctx is None:
        raise SysFileError("missing 'vars:' line")
    if ranking is None:
        raise SysFileError("missing 'ranking:' line")
    if not equations:
        raise SysFileError("a system file needs at least one 'eq' line")

    return SystemFile(ctx, ranking, tuple(equations), tuple(points))


# ---------------------------------------------------------------------------
# component files
# ---------------------------------------------------------------------------


def _parse_poly_list(text: str, ctx: Context, lineno: int) -> tuple:
    text = text.strip()
    if not text or text == "(none)":
        return ()
    polys = []
    for piece in text.split(";"):
        piece = piece.strip()
        if piece:
            with _at_line(lineno):
                polys.append(parse_poly(piece, ctx))
    return tuple(polys)


def parse_components(
    text: str, ctx: Context, default_ranking: Optional[Ranking] = None
) -> tuple:
    """Parse a component file: blank-line-separated blocks of
    ``ranking:`` (optional), ``charset:``, ``ineqs:`` (optional), and
    ``prime:`` (optional, default ``no``) lines."""
    blocks: list = [[]]
    for lineno, line in _lines(text):
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append((lineno, line))
    if not blocks[-1]:
        blocks.pop()

    components = []
    for block in blocks:
        ranking = default_ranking
        charset = None
        ineqs: tuple = ()
        prime = False
        for lineno, line in block:
            key, colon, rest = line.partition(":")
            if not colon:
                raise SysFileError(f"line {lineno}: expected 'key: value', got {line!r}")
            key = key.strip().lower()
            if key == "ranking":
                with _at_line(lineno):
                    ranking = parse_ranking(rest.strip(), ctx)
            elif key == "charset":
                charset = _parse_poly_list(rest, ctx, lineno)
                if not charset:
                    raise SysFileError(f"line {lineno}: empty charset")
            elif key == "ineqs":
                ineqs = _parse_poly_list(rest, ctx, lineno)
            elif key == "prime":
                word = rest.strip().lower()
                if word not in ("yes", "no"):
                    raise SysFileError(f"line {lineno}: prime must be 'yes' or 'no'")
                prime = word == "yes"
            else:
                raise SysFileError(f"line {lineno}: unknown component key {key!r}")
        first = block[0][0]
        if charset is None:
            raise SysFileError(f"block at line {first}: missing 'charset:' line")
        if ranking is None:
            raise SysFileError(f"block at line {first}: no ranking given and no default")
        with _at_line(first, "block at line"):
            components.append(CharSetComponent(ranking, charset, ineqs, prime_verified=prime))
    return tuple(components)


def format_components(components: Sequence[CharSetComponent], ctx: Context) -> str:
    blocks = (f"ranking: {format_ranking(c.ranking, ctx)}\n{c.to_text()}" for c in components)
    return "\n\n".join(blocks) + "\n"
