#!/usr/bin/env python3
"""Randomized self-audit with a configurable budget.

Draws random differential polynomials and order matrices, then checks the
properties that everything else leans on:

  * every Ritt reduction certificate re-expands exactly to its identity
    m * f = sum Q_i(A_i) + r, with the remainder reduced, unless the division
    stops at a named cap, of terms, coefficient bits, degree in t or
    derivation order (such draws are counted);
  * the assignment-backed Jacobi solver agrees with brute-force permutation
    enumeration (tests/reference_engines.py), witness included, and finds planted optima at n = 10..40;
  * the membership oracle finds every planted member f = sum c * m * d^k(g_i)
    at bounds that contain its summands, with a witness that re-verifies,
    unless a stage over the candidate cap is named (such answers are counted);
  * at random concrete zeros of random square systems, each linearize_at
    tangent (one pass over the terms) equals the first_order_expansion
    tangent (dual numbers, no partials) of tests/reference_engines.py
    coefficient by coefficient, and the linearized order matrix read off
    the one equals the orders of the other, under both conventions;
  * random elements of Q, built by QQ.from_fraction, agree with the
    Fractions they came from in value, text(), bits(), equality and hashing
    through sums, differences, products, quotients and powers;
  * random rational functions of t, with constant and non-constant
    denominators, agree with the Fraction reference of
    tests/fraction_reference.py in value and text() through sums, products,
    quotients and derivatives, and satisfy distributivity, (a/b)*b == a and
    the product rule for derive;
  * random systems of two independent blocks, a pair of equations in x, y
    beside a pair in z, w, decompose by split_decompose exactly as the
    splitting tree run over the whole system wherever that tree is
    complete: the same components, in the same order, with the same
    inequations and completeness; where that tree is capped, every
    component verifies against the inputs (tests/reference_engines.py) and
    the decomposition is incomplete whenever a block's own run is and no
    block's run is complete and empty, each tree under a work budget of
    PRODUCT_WORK (draws with a complete tree, draws with a capped tree, and
    draws where a tree ran out of work are counted);
  * random pairs of generators in x, y, each homogeneous in (weighted
    degree, derivative weight) under variable weights drawn from {1, 2, 3}^2,
    get the same verdict from truncated_member, on a planted member, and the
    same first power from radical_member, on a random query, as from the
    staged search on the same input, whenever that search skips no stage,
    and every witness re-verifies (draws the oracle weighs with all ones,
    with other weights, and draws where the staged search skipped a stage
    are counted);
  * random polynomials over Q and Q(t), written with random spacing,
    unary minus, divisors and parentheses (one in ten with a character
    dropped or replaced), read by parse_poly and by the token-by-token parser
    of tests/reference_engines.py give the same terms in the same order,
    or the same ParseError, text and position (refusals are counted);
  * random divisions over Q and Q(t), by one divisor or an autoreduced pair,
    give ritt_reduce_seq (one working map, a step log) the certificate of
    the forward division of tests/reference_engines.py (whole polynomials,
    eager quotients), factors, multiplier, quotients, remainder and step
    count and work count, or the same cap exception, with its work count,
    at the same step (draws stopped at a cap are counted).  This stream runs
    last, so the others draw as they did before it was added.

    python3 scripts/random_audit.py --cases 500 --seed 7

Exits nonzero (with the offending input printed) on the first discrepancy.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import diffalg.decompose
import diffalg.oracle
import diffalg.reduction
from diffalg import (
    QT,
    ConcretePoint,
    Context,
    Convention,
    DerVar,
    DiffPoly,
    JacobiResult,
    Monomial,
    OrderMatrix,
    PreparedSeq,
    QQ,
    Ranking,
    is_autoreduced,
    RatFunc,
    StepLimitExceeded,
    TermLimitExceeded,
    TruncationBounds,
    ParseError,
    analyze,
    is_reduced,
    jacobi_assign,
    linearize_at,
    linearized_order_matrix,
    parse_poly,
    radical_member,
    ritt_reduce_seq,
    split_decompose,
    truncated_member,
    verify_certificate,
    verify_witness,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import fraction_reference as ref  # noqa: E402
from reference_engines import (  # noqa: E402
    first_order_expansion,
    forward_certificate,
    jacobi_brute,
    reference_parse_poly,
    verify_component,
)

NAMES = ("x", "y", "z")
# Work budgets (diffalg.reduction.MAX_WORK) of the streams that divide or
# decompose.  None of the reduction draws at seeds 1, 3 and 7 comes near
# REDUCTION_WORK (the most is 18,840 term pairs); a splitting tree spends
# PRODUCT_WORK in well under a second.
REDUCTION_WORK = 50_000
PRODUCT_WORK = 20_000


def rand_poly(rng: random.Random, ctx: Context, max_order=3, max_degree=3, max_terms=3) -> DiffPoly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        factors = {}
        for _ in range(rng.randint(0, 2)):
            v = DerVar(rng.randrange(ctx.n), rng.randint(0, max_order))
            factors[v] = min(factors.get(v, 0) + rng.randint(1, max_degree), max_degree)
        c = QQ.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        if c:
            terms.append((Monomial.make(factors.items()), c))
    return DiffPoly.from_terms(ctx, terms)


def audit_reductions(rng: random.Random, cases: int, max_vars: int) -> tuple[int, int, int]:
    """Returns (certificates verified, draws skipped for a constant divisor
    or the work budget, draws stopped at a size cap)."""
    verified = 0
    skipped = 0
    capped = 0
    while verified < cases:
        ctx = Context(NAMES[: rng.randint(1, max_vars)], QQ)
        rk = Ranking.elimination(ctx.n)
        divisor = rand_poly(rng, ctx)
        dividend = rand_poly(rng, ctx)
        if divisor.is_constant():
            skipped += 1
            continue
        try:
            with patch.object(diffalg.reduction, "MAX_WORK", REDUCTION_WORK):
                cert = ritt_reduce_seq(dividend, PreparedSeq([divisor], rk))
        except TermLimitExceeded:
            capped += 1
            continue
        except StepLimitExceeded:
            skipped += 1
            continue
        if not verify_certificate(cert, dividend, (divisor,), rk):
            print("certificate FAILED to verify:", file=sys.stderr)
            print(f"  dividend: {dividend.to_text()}", file=sys.stderr)
            print(f"  divisor:  {divisor.to_text()}", file=sys.stderr)
            sys.exit(1)
        if not is_reduced(cert.remainder, analyze(divisor, rk)):
            print(f"remainder not reduced: {cert.remainder.to_text()}", file=sys.stderr)
            sys.exit(1)
        verified += 1
    return verified, skipped, capped


def audit_jacobi(rng: random.Random, cases: int) -> int:
    """Checks jacobi_assign, witness included, against brute force on random
    (entries 0-6) and tie-heavy (entries 0-1) matrices with n <= 7, and
    against a planted unique optimum on matrices with n = 10..40, where brute
    force cannot go."""
    for k in range(cases):
        kind = ("random", "ties", "planted")[k % 3]
        n = rng.randint(10, 40) if kind == "planted" else rng.randint(1, 7)
        top = {"random": 6, "ties": 1, "planted": 2}[kind]
        minusinf = rng.random() < 0.5
        rows = [
            [None if (minusinf and rng.random() < 0.25) else rng.randint(0, top) for _ in range(n)]
            for _ in range(n)
        ]
        if kind == "planted":
            # entries on sigma beat every other entry, so sigma is the unique optimum
            sigma = list(range(n))
            rng.shuffle(sigma)
            for j in range(n):
                rows[sigma[j]][j] = rng.randint(top + 1, top + 2)
            expected = JacobiResult(sum(rows[sigma[j]][j] for j in range(n)), tuple(sigma))
        conv = Convention.MINUS_INFINITY if minusinf else Convention.MAX_PLUS
        m = OrderMatrix(tuple(map(tuple, rows)), conv)
        a = jacobi_assign(m)
        b = expected if kind == "planted" else jacobi_brute(m)
        if a.value != b.value or a.witness != b.witness:
            print(f"solver disagreement on a {kind} matrix:", file=sys.stderr)
            print(m.to_text(), file=sys.stderr)
            print(f"  assign:   {a}", file=sys.stderr)
            print(f"  expected: {b}", file=sys.stderr)
            sys.exit(1)
    return cases


def audit_oracle(rng: random.Random, cases: int) -> tuple[int, int]:
    """Plants f = sum of c * m * d^k(g_i) over one or two random generators
    in one or two variables, with monomials m of degree <= 1 and k <= 2, and
    asks truncated_member at the smallest bounds that hold every summand.
    Returns (members, answers Inconclusive because of the candidate cap)."""
    members = capped = 0
    for _ in range(cases):
        ctx = Context(NAMES[: rng.randint(1, 2)], QQ)
        gens, count = [], rng.randint(1, 2)
        while len(gens) < count:
            g = rand_poly(rng, ctx, max_order=1, max_degree=2)
            if not g.is_zero():
                gens.append(g)
        f = DiffPoly.zero(ctx)
        degree = top_k = 0
        for _ in range(rng.randint(1, 3)):
            gi, k = rng.randrange(len(gens)), rng.randint(0, 2)
            h = gens[gi].derive(k)
            m = Monomial.make([(DerVar(rng.randrange(ctx.n), rng.randint(0, 1)), rng.randint(0, 1))])
            c = QQ.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            f = f + h * DiffPoly.from_terms(ctx, [(m, c)])
            degree, top_k = max(degree, h.total_degree() + m.degree()), max(top_k, k)
        w = truncated_member(f, gens, TruncationBounds(f.max_order(), top_k, degree, 1))
        if w.is_member() and verify_witness(f, gens, w):
            members += 1
        elif not w.is_member() and "candidate cap" in w.diagnostic:
            capped += 1
        else:
            print("planted member missed:", file=sys.stderr)
            print(f"  f:    {f.to_text()}", file=sys.stderr)
            for g in gens:
                print(f"  gen:  {g.to_text()}", file=sys.stderr)
            print(f"  got:  {w.to_text()}", file=sys.stderr)
            sys.exit(1)
    return members, capped


def _dual_number_orders(duals, n: int, convention: Convention) -> tuple:
    """Order matrix read straight off the dual-number tangents."""
    rows = []
    for tangent in duals:
        top: dict = {}
        for m in tangent.poly.monomials():
            ((v, _),) = m.factors
            top[v.var - n] = max(top.get(v.var - n, 0), v.order)
        rows.append(tuple(top.get(j) for j in range(n)))
    return OrderMatrix.from_orders(rows, convention).entries


def audit_linearize(rng: random.Random, cases: int, max_vars: int) -> int:
    """Draws a square system shifted to vanish at a random concrete point and
    compares each linearize_at tangent with its first_order_expansion
    tangent, coefficient by coefficient, and the linearized order matrix of
    the linearize_at tangents with the orders of the dual-number tangents,
    under both conventions."""
    for _ in range(cases):
        ctx = Context(NAMES[: rng.randint(1, max_vars)], QQ)
        pt = ConcretePoint(
            ctx, {j: QQ.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for j in range(ctx.n)}
        )
        us = []
        for _ in range(ctx.n):
            p = rand_poly(rng, ctx)
            us.append(p - DiffPoly.const(ctx, p.eval_at(pt)))
        tangents = [linearize_at(u, pt) for u in us]
        duals = [first_order_expansion(u, pt)[1] for u in us]
        for u, got, want in zip(us, tangents, duals):
            if got.poly != want.poly:
                print(f"tangents disagree at {pt!r}:", file=sys.stderr)
                print(f"  u:    {u.to_text()}", file=sys.stderr)
                print(f"  linearize_at:          {got.to_text()}", file=sys.stderr)
                print(f"  first_order_expansion: {want.to_text()}", file=sys.stderr)
                sys.exit(1)
        for conv in Convention:
            got = linearized_order_matrix(tangents, conv).entries
            want = _dual_number_orders(duals, ctx.n, conv)
            if got != want:
                print(f"linearized orders disagree ({conv.name}) at {pt!r}:", file=sys.stderr)
                for u in us:
                    print(f"  u:    {u.to_text()}", file=sys.stderr)
                print(f"  linearize_at:          {got}", file=sys.stderr)
                print(f"  first_order_expansion: {want}", file=sys.stderr)
                sys.exit(1)
    return cases


def _rand_q(rng: random.Random) -> Fraction:
    """A small rational half the time, so that values meet, else a large
    one."""
    if rng.random() < 0.5:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**12))


def audit_q(rng: random.Random, cases: int) -> int:
    """Checks elements of Q on random pairs against fractions.Fraction."""
    for _ in range(cases):
        x, y = _rand_q(rng), _rand_q(rng)
        a, b = QQ.from_fraction(x), QQ.from_fraction(y)
        e = rng.randint(0, 6)
        pairs = [(a, x), (b, y), (a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x), (a**e, x**e)]
        if y:
            pairs.append((a / b, x / y))
        checks = {
            "value": all(ref.view(got) == ((want,) if want else (), ref.ONE) for got, want in pairs),
            "text": all(QQ.text(got) == ref.fraction_text(want) for got, want in pairs),
            "bits": all(
                QQ.bits(got) == max(want.numerator.bit_length(), want.denominator.bit_length())
                for got, want in pairs
            ),
            "equality and hash": (a == b) == (x == y) and (x != y or hash(a) == hash(b)),
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            print(f"Q check failed ({', '.join(failed)}) on {x} and {y}", file=sys.stderr)
            sys.exit(1)
    return cases


def _rand_qt(rng: random.Random) -> tuple:
    """Coefficient lists (numerator, denominator) of a rational function of
    t; the denominator is a constant half the time."""

    def coeff(nonzero=False):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return c if c or not nonzero else Fraction(rng.choice((-1, 1)), rng.randint(1, 3))

    num = [coeff() for _ in range(rng.randint(0, 4))]
    den = [coeff() for _ in range(rng.randint(0, 2))] if rng.random() < 0.5 else []
    return num, den + [coeff(nonzero=True)]


def audit_qt(rng: random.Random, cases: int) -> int:
    """Checks RatFunc on random triples against the Fraction reference."""
    for _ in range(cases):
        drawn = [_rand_qt(rng) for _ in range(3)]
        a, b, c = (RatFunc.make(num, den) for num, den in drawn)
        ra, rb, _ = refs = [ref.make(num, den) for num, den in drawn]
        pairs = [(x, rx) for x, rx in zip((a, b, c), refs)]
        pairs += [(a + b, ref.add(ra, rb)), (a * b, ref.mul(ra, rb)), (a.derive(), ref.derive(ra))]
        if b:
            pairs.append((a / b, ref.div(ra, rb)))
        checks = {
            "value": all(ref.view(x) == rx for x, rx in pairs),
            "text": all(x.text() == ref.text(rx) for x, rx in pairs),
            "distributivity": a * (b + c) == a * b + a * c,
            "(a/b)*b == a": not b or (a / b) * b == a,
            "product rule": (a * b).derive() == a.derive() * b + a * b.derive(),
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            print(f"Q(t) check failed ({', '.join(failed)}):", file=sys.stderr)
            for x in (a, b, c):
                print(f"  {x.text()}", file=sys.stderr)
            sys.exit(1)
    return cases


def _decomposition_text(dec) -> tuple:
    return tuple(c.to_text() for c in dec.components), dec.complete


def audit_product(rng: random.Random, cases: int) -> tuple[int, int, int]:
    """Draws two nonconstant equations in x, y and two in z, w (order <= 1,
    degree <= 2 in each jet, up to 3 terms) as one system under
    elim x > y > z > w.  Where the splitting tree run over the whole system
    is complete, split_decompose must give what it gives.  Where that tree
    is capped, every component split_decompose gives must verify against
    the inputs (tests/reference_engines.py), and the decomposition must be
    incomplete whenever a block's own run is, unless a block's run is
    complete with no components.  Every tree runs under the work budget
    PRODUCT_WORK.  Returns (draws compared with the complete one tree, draws
    where the one tree is capped, draws where a tree ran out of work)."""
    xy = Context(NAMES[:2], QQ)
    ctx = Context(("x", "y", "z", "w"), QQ)
    rk = Ranking.elimination(4, [0, 1, 2, 3])
    equal = capped = stopped = 0
    for _ in range(cases):
        us = []
        for offset in (0, 0, 2, 2):
            p = rand_poly(rng, xy, max_order=1, max_degree=2)
            while p.is_constant():
                p = rand_poly(rng, xy, max_order=1, max_degree=2)
            shifted = [
                (Monomial.make((DerVar(v.var + offset, v.order), e) for v, e in m.factors), c)
                for m, c in p.items()
            ]
            us.append(DiffPoly.from_terms(ctx, shifted))
        start = frozenset(u.monic() for u in us)
        with patch.object(diffalg.reduction, "MAX_WORK", PRODUCT_WORK):
            single = diffalg.decompose._split_tree(start, rk)
            runs = [diffalg.decompose._split_tree(b, rk) for b in diffalg.decompose._blocks(start)]
            got = split_decompose(us, rk)
        failed = []
        if single.complete:
            if _decomposition_text(got) != _decomposition_text(single):
                failed.append("differs from the complete one tree")
        else:
            if not all(verify_component(c, us) for c in got.components):
                failed.append("a component failed to verify")
            if got.complete and not all(run.complete for run in runs) and not any(
                run.complete and not run.components for run in runs
            ):
                failed.append("complete although a block run is not and no block is empty")
        stopped += single.out_of_work or got.out_of_work
        if failed:
            print(f"block decomposition check failed ({'; '.join(failed)}):", file=sys.stderr)
            for u in us:
                print(f"  u:    {u.to_text()}", file=sys.stderr)
            print(f"  split_decompose: {_decomposition_text(got)}", file=sys.stderr)
            print(f"  one tree:        {_decomposition_text(single)}", file=sys.stderr)
            sys.exit(1)
        if single.complete:
            equal += 1
        else:
            capped += 1
    return equal, capped, stopped


# monomials of degree <= 3 in x, x', y, y'
GRADED_POOL = tuple(
    Monomial.make(zip((DerVar(0, 0), DerVar(0, 1), DerVar(1, 0), DerVar(1, 1)), exps))
    for exps in itertools.product(range(4), repeat=4)
    if sum(exps) <= 3
)


def _graded_pair(rng: random.Random) -> list:
    """Two nonzero generators in x, y, each a sum of monomials of one
    bigrade under weights drawn from {1, 2, 3}^2; half of the time the
    first has monomials of two total degrees, where the weights allow it."""
    wx, wy = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
    blocks: dict = {}
    for m in GRADED_POOL:
        wdeg = sum((wx, wy)[v.var] * e for v, e in m.factors)
        blocks.setdefault((wdeg, m.weight()), []).append(m)
    mixed = [b for b in blocks.values() if len({m.degree() for m in b}) > 1]
    xy = Context(NAMES[:2], QQ)
    gens = []
    while len(gens) < 2:
        pool = mixed if not gens and mixed and rng.random() < 0.5 else list(blocks.values())
        block = rng.choice(pool)
        monos = rng.sample(block, rng.randint(1, min(3, len(block))))
        if pool is mixed:
            monos.append(rng.choice([m for m in block if m.degree() != monos[0].degree()]))
        g = DiffPoly.from_terms(
            xy, [(m, QQ.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))) for m in monos]
        )
        if not g.is_zero():
            gens.append(g)
    return gens


def _staged_radical(f: DiffPoly, gens, bounds: TruncationBounds) -> tuple:
    """(first power e with f^e in the staged search's span or None, stages
    skipped over all powers tried), the powers sharing one search as in
    radical_member."""
    search = diffalg.oracle._Search(f, gens, bounds)
    skipped = 0
    for e in range(1, bounds.power_bound + 1):
        fe = f**e
        if fe.total_degree() > bounds.degree_bound:
            break
        combo, s = search._find(fe)
        skipped += s
        if combo is not None:
            return e, skipped
    return None, skipped


def audit_graded(rng: random.Random, cases: int) -> tuple[int, int, int]:
    """Plants f = sum of c * m * d^k(g_i) over a weighted-homogeneous pair,
    as audit_oracle does, and draws a query r of degree <= 1 for
    radical_member up to the power 3; compares both answers with the staged
    search on the same input.  Returns (draws weighed with other weights
    than all ones, draws weighed with all ones, draws where the staged
    search skipped a stage, so that no verdict was compared)."""
    weighted = unit = skipped = 0
    xy = Context(NAMES[:2], QQ)
    for _ in range(cases):
        gens = _graded_pair(rng)
        f = DiffPoly.zero(xy)
        degree = top_k = 0
        while f.is_zero():
            for _ in range(rng.randint(1, 3)):
                gi, k = rng.randrange(2), rng.randint(0, 2)
                h = gens[gi].derive(k)
                m = Monomial.make([(DerVar(rng.randrange(2), rng.randint(0, 1)), rng.randint(0, 1))])
                c = QQ.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                f = f + h * DiffPoly.from_terms(xy, [(m, c)])
                degree, top_k = max(degree, h.total_degree() + m.degree()), max(top_k, k)
        r = rand_poly(rng, xy, max_order=1, max_degree=1, max_terms=2)
        if r.is_zero():
            r = DiffPoly.var(xy, 1, 1)
        bounds = TruncationBounds(max(f.max_order(), r.max_order()), top_k, degree, 3)
        weights = diffalg.oracle._weights(gens)
        w = truncated_member(f, gens, bounds)
        combo, f_skipped = diffalg.oracle._Search(f, gens, bounds)._find(f)
        rw = radical_member(r, gens, bounds)
        power, r_skipped = _staged_radical(r, gens, bounds)
        failed = []
        if weights is None:
            failed.append("no weights found")
        if (w.is_member() and not verify_witness(f, gens, w)) or (
            rw.is_member() and not verify_witness(r, gens, rw)
        ):
            failed.append("witness failed to verify")
        if not f_skipped and w.is_member() != (combo is not None):
            failed.append(f"truncated_member {w.verdict.value}, staged search {combo is not None}")
        if not r_skipped and (rw.power if rw.is_member() else None) != power:
            failed.append(f"radical_member power {rw.power if rw.is_member() else None}, staged {power}")
        if failed:
            print(f"graded check failed ({'; '.join(failed)}) at {bounds.describe()}:", file=sys.stderr)
            print(f"  f:    {f.to_text()}", file=sys.stderr)
            print(f"  r:    {r.to_text()}", file=sys.stderr)
            for g in gens:
                print(f"  gen:  {g.to_text()}", file=sys.stderr)
            sys.exit(1)
        if all(x == 1 for x in weights):
            unit += 1
        else:
            weighted += 1
        if f_skipped or r_skipped:
            skipped += 1
    return weighted, unit, skipped


def _rendering(rng: random.Random, names, qt: bool) -> str:
    """A random polynomial written out token by token, each token followed
    by random spacing."""

    def jet() -> list:
        k = rng.randint(0, 5)
        toks = [rng.choice(names)] + (["'" * k] if 0 < k <= 3 else ["^", "(", str(k), ")"] if k else [])
        return toks + (["^", str(rng.randint(0, 3))] if rng.random() < 0.3 else [])

    def constant() -> list:
        if qt and rng.random() < 0.4:
            toks = ["("]
            for j in range(rng.randint(1, 3)):
                toks += ([rng.choice("+-")] if j else []) + [str(rng.randint(1, 9)), "*", "t", "^", str(rng.randint(0, 3))]
            return toks + [")"]
        return [str(rng.randint(0, 9))]

    def term(depth: int) -> list:
        toks = ["-"] * rng.randint(0, 2)
        for j in range(rng.randint(1, 3)):
            if j and rng.random() < 0.2:
                toks += ["/", str(rng.randint(1, 9))]
                continue
            if j:
                toks.append("*")
            r = rng.random()
            if depth and r < 0.15:
                toks += ["("] + expr(depth - 1) + [")"] + (["^", str(rng.randint(0, 2))] if rng.random() < 0.3 else [])
            elif r < 0.4:
                toks += constant()
            else:
                toks += jet()
        return toks

    def expr(depth: int) -> list:
        toks = term(depth)
        for _ in range(rng.randint(0, 3)):
            toks += [rng.choice("+-")] + term(depth)
        return toks

    text = "".join(tok + rng.choice(("", "", " ", "  ")) for tok in expr(2))
    if rng.random() < 0.1:  # a character dropped or replaced
        k = rng.randrange(len(text) + 1)
        text = text[:k] + rng.choice(("", "(", ")", "+", "*", "^", "'", "x", "2", " ")) + text[k + 1 :]
    return text


def _reading(read, text: str, ctx: Context):
    try:
        return list(read(text, ctx).items())
    except ParseError as exc:
        return str(exc)


def audit_parse(rng: random.Random, cases: int) -> tuple[int, int]:
    """Reads random renderings by parse_poly and by the reference parser."""
    refused = 0
    for _ in range(cases):
        ctx = Context(NAMES[: rng.randint(1, 3)], rng.choice((QQ, QT)))
        text = _rendering(rng, ctx.names, ctx.field is QT)
        got, want = _reading(parse_poly, text, ctx), _reading(reference_parse_poly, text, ctx)
        if got != want:
            print(f"parse disagreement over {ctx.field.value} on {text!r}:", file=sys.stderr)
            print(f"  library:   {got}\n  reference: {want}", file=sys.stderr)
            sys.exit(1)
        refused += isinstance(got, str)
    return cases, refused


# (MAX_TERMS, MAX_COEFF_BITS, MAX_WORK) for a division draw: the
# size caps at their values, or one small enough to stop some divisions part
# way, with the budget at REDUCTION_WORK or small enough to do the same.
DIVISION_CAPS = (
    (10_000, 4096, REDUCTION_WORK),
    (8, 4096, REDUCTION_WORK),
    (10_000, 3, REDUCTION_WORK),
    (10_000, 4096, 12),
)


def _division(b: DiffPoly, seq: list, rk: Ranking, caps: tuple, engine):
    """The certificate's parts, or the cap exception's type, text and work count."""
    terms, bits, work = caps
    try:
        with patch.multiple(diffalg.reduction, MAX_TERMS=terms, MAX_COEFF_BITS=bits, MAX_WORK=work):
            cert = engine(b, seq, rk)
    except StepLimitExceeded as exc:
        return type(exc).__name__, str(exc), getattr(exc, "pairs", None)
    return cert.steps, cert.pairs, cert.factors, cert.multiplier, cert.quotients, cert.remainder


def audit_division(rng: random.Random, cases: int, max_vars: int) -> tuple[int, int]:
    """Divides random polynomials by ritt_reduce_seq and by the forward
    reference; returns (divisions compared, of which stopped alike at a
    cap)."""
    capped = 0
    compared = 0
    while compared < cases:
        ctx = Context(NAMES[: rng.randint(1, max_vars)], rng.choice((QQ, QT)))
        rk = Ranking.elimination(ctx.n, rng.sample(range(ctx.n), ctx.n))

        def draw(**kw) -> DiffPoly:
            p = rand_poly(rng, ctx, **kw)
            if ctx.field is QT and rng.random() < 0.5:
                p = p + DiffPoly.const(ctx, RatFunc.t_power(1)) * rand_poly(rng, ctx, **kw)
            return p

        seq = [draw(max_order=2, max_degree=2)]
        if rng.random() < 0.5:
            seq.append(draw(max_order=2, max_degree=2))
        if any(a.is_constant() for a in seq) or not is_autoreduced(seq, rk):
            seq = seq[:1]
            if seq[0].is_constant():
                continue
        b = draw()
        caps = rng.choice(DIVISION_CAPS)
        got = _division(b, seq, rk, caps, lambda b, seq, rk: ritt_reduce_seq(b, PreparedSeq(seq, rk)))
        want = _division(b, seq, rk, caps, forward_certificate)
        if got != want:
            print("division disagreement:", file=sys.stderr)
            print(f"  dividend: {b.to_text()}", file=sys.stderr)
            for a in seq:
                print(f"  divisor:  {a.to_text()}", file=sys.stderr)
            print(f"  caps: {caps}\n  library:   {got}\n  reference: {want}", file=sys.stderr)
            sys.exit(1)
        capped += isinstance(got[0], str)
        compared += 1
    return compared, capped


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=500, help="cases per audit (default 500)")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    ap.add_argument("--max-vars", type=int, default=3, choices=(1, 2, 3))
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.monotonic()
    verified, skipped, capped = audit_reductions(rng, args.cases, args.max_vars)
    t1 = time.monotonic()
    print(
        f"reductions: {verified} certificates verified exactly "
        f"({skipped} draws skipped: constant divisor or work budget; "
        f"{capped} stopped at a size cap)  [{t1 - t0:.2f}s]"
    )
    compared = audit_jacobi(rng, args.cases)
    t2 = time.monotonic()
    print(f"jacobi: {compared} assignment solves agreed with brute force or a planted optimum  [{t2 - t1:.2f}s]")
    members, capped = audit_oracle(rng, args.cases)
    print(
        f"oracle: {members} planted members found with verified witnesses "
        f"({capped} inconclusive at the candidate cap)  [{time.monotonic() - t2:.2f}s]"
    )
    t3 = time.monotonic()
    compared = audit_linearize(rng, args.cases, args.max_vars)
    print(
        f"linearize: {compared} linearized systems agreed with the dual-number tangents, "
        f"coefficient by coefficient and in their order matrices under both conventions  "
        f"[{time.monotonic() - t3:.2f}s]"
    )
    t4 = time.monotonic()
    compared = audit_q(rng, args.cases)
    print(f"q: {compared} pairs of rationals agreed with Fraction  [{time.monotonic() - t4:.2f}s]")
    t4 = time.monotonic()
    compared = audit_qt(rng, args.cases)
    print(
        f"qt: {compared} triples of rational functions agreed with the Fraction reference  "
        f"[{time.monotonic() - t4:.2f}s]"
    )
    t5 = time.monotonic()
    equal, capped, stopped = audit_product(rng, args.cases)
    print(
        f"product: {equal + capped} two-block systems decomposed block by block "
        f"({equal} as by the complete one tree, {capped} with the one tree capped, their "
        f"components verified; {stopped} out of the budget MAX_WORK = {PRODUCT_WORK})  "
        f"[{time.monotonic() - t5:.2f}s]"
    )
    t6 = time.monotonic()
    weighted, unit, skipped = audit_graded(rng, args.cases)
    print(
        f"graded: {weighted + unit} weighted-homogeneous pairs answered as by the staged search "
        f"({weighted} under weights other than all ones, {unit} under all ones; "
        f"{skipped} with a stage skipped by the candidate cap, not compared)  "
        f"[{time.monotonic() - t6:.2f}s]"
    )
    t7 = time.monotonic()
    compared, refused = audit_parse(rng, args.cases)
    print(
        f"parse: {compared} renderings read alike by the library and the token-by-token reference, "
        f"0 disagreements ({refused} refused alike, with the same message)  [{time.monotonic() - t7:.2f}s]"
    )
    t8 = time.monotonic()
    compared, capped = audit_division(rng, args.cases, args.max_vars)
    print(
        f"division: {compared} divisions gave the forward reference's certificate "
        f"({capped} stopped alike at a cap)  [{time.monotonic() - t8:.2f}s]"
    )
    print("all audits passed")


if __name__ == "__main__":
    main()
