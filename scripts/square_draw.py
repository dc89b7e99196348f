#!/usr/bin/env python3
"""Random square systems in x, y through jbc_check, counting those whose
decomposition runs out of its work budget.

Each draw is a pair of equations over Q under `elim x > y`.  An equation
has 2 or 3 distinct terms, each a monomial of degree 1 or 2 (degree drawn
first, then its jets, uniformly) in the jets x, x', ... and y, y', ... up
to order --max-order, with a coefficient drawn from -3..-1, 1..3; half of
the equations also get a constant drawn the same way.  Each system is
decomposed under the work budget diffalg.reduction.MAX_WORK (splitting
nodes and division term pairs), which this script sets to --work units,
200,000 by default, about 2 s of a draw that runs out of it; a system
whose decomposition does not run out of work then runs through jbc_check.

    PYTHONPATH=src python3 scripts/square_draw.py --cases 300 --max-order 2 --seed 1
    PYTHONPATH=src python3 scripts/square_draw.py --work 2000

Prints each system that ran out of work, then one summary line: how many
draws ran out of work, the verdicts of the others, and the seconds taken,
to a tenth.
The budget counts work, not time, and a node divides its equations in
ascending rank, so the counts do not change with machine speed or with
Python's string hashing.
"""

from __future__ import annotations

import argparse
import random
import time
from collections import Counter

import diffalg.reduction
from diffalg import Context, DerVar, DiffPoly, Monomial, QQ, Ranking, RatFunc, jbc_check, split_decompose

XY = Context(("x", "y"), QQ)
ELIM_XY = Ranking.elimination(2, [0, 1])  # x > y
COEFFS = (-3, -2, -1, 1, 2, 3)


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


def main(argv=None) -> None:
    """Draws and checks the systems under the budget MAX_WORK = --work,
    which is restored on return."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=300, help="systems drawn (default 300)")
    ap.add_argument("--max-order", type=int, default=2, help="highest jet order (default 2)")
    ap.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    ap.add_argument("--work", type=int, default=200_000, help="the work budget MAX_WORK (default 200000)")
    args = ap.parse_args(argv)
    saved, diffalg.reduction.MAX_WORK = diffalg.reduction.MAX_WORK, args.work
    try:
        _draw(args)
    finally:
        diffalg.reduction.MAX_WORK = saved


def _draw(args) -> None:
    rng = random.Random(args.seed)
    tally = Counter()
    stopped = 0
    t0 = time.perf_counter()
    for k in range(args.cases):
        us = [draw_equation(rng, args.max_order) for _ in range(2)]
        if split_decompose(us, ELIM_XY).out_of_work:
            stopped += 1
            print(f"draw {k}: out of work: " + "; ".join(u.to_text() for u in us))
        else:
            tally[jbc_check(us, ELIM_XY).verdict.value] += 1
    others = ", ".join(f"{name} {n}" for name, n in sorted(tally.items()))
    print(
        f"seed {args.seed}, order <= {args.max_order}: {stopped} of {args.cases} out of the "
        f"budget MAX_WORK = {diffalg.reduction.MAX_WORK}; {others} ({time.perf_counter() - t0:.1f} s)"
    )


if __name__ == "__main__":
    main()
