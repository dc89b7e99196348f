#!/usr/bin/env python3
"""Random square systems in x, y through jbc_check, counting those that run
over a time limit.

Each draw is a pair of equations over Q under `elim x > y`.  An equation
has 2 or 3 distinct terms, each a monomial of degree 1 or 2 (degree drawn
first, then its jets, uniformly) in the jets x, x', ... and y, y', ... up
to order --max-order, with a coefficient drawn from -3..-1, 1..3; half of
the equations also get a constant drawn the same way.  Each system runs
through jbc_check with a LIMIT_S wall-clock limit.

    PYTHONPATH=src python3 scripts/square_draw.py --cases 300 --max-order 2 --seed 1

Prints each system that ran over the limit, then one summary line: how
many draws ran over the limit, and the verdicts of the others.  A node
divides its equations in ascending rank, so a draw's work does not change
with Python's string hashing; only machine speed decides which draws near
the limit fall over it.
"""

from __future__ import annotations

import argparse
import random
import signal
import time
from collections import Counter

from diffalg import Context, DerVar, DiffPoly, Monomial, QQ, Ranking, RatFunc, jbc_check

LIMIT_S = 2.0
XY = Context(("x", "y"), QQ)
ELIM_XY = Ranking.elimination(2, [0, 1])  # x > y
COEFFS = (-3, -2, -1, 1, 2, 3)


class OverLimit(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program can swallow it."""


def _on_alarm(signum, frame):
    raise OverLimit


def draw_equation(rng: random.Random, max_order: int) -> DiffPoly:
    jets = [DerVar(v, j) for v in range(2) for j in range(max_order + 1)]
    count = rng.choice((2, 3))
    monos = []
    while len(monos) < count:
        m = Monomial.make((rng.choice(jets), 1) for _ in range(rng.choice((1, 2))))
        if m not in monos:
            monos.append(m)
    terms = [(m, RatFunc.from_int(rng.choice(COEFFS))) for m in monos]
    if rng.random() < 0.5:
        terms.append((Monomial.make(()), RatFunc.from_int(rng.choice(COEFFS))))
    return DiffPoly.from_terms(XY, terms)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=300, help="systems drawn (default 300)")
    ap.add_argument("--max-order", type=int, default=2, help="highest jet order (default 2)")
    ap.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    args = ap.parse_args()
    rng = random.Random(args.seed)
    tally = Counter()
    over = 0
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    for k in range(args.cases):
        us = [draw_equation(rng, args.max_order) for _ in range(2)]
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            tally[jbc_check(us, ELIM_XY).verdict.value] += 1
        except OverLimit:
            over += 1
            print(f"draw {k}: over the limit: " + "; ".join(u.to_text() for u in us))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    others = ", ".join(f"{name} {n}" for name, n in sorted(tally.items()))
    print(
        f"seed {args.seed}, order <= {args.max_order}: {over} of {args.cases} over the "
        f"{LIMIT_S:g} s limit; {others} ({time.perf_counter() - t0:.0f} s)"
    )


if __name__ == "__main__":
    main()
