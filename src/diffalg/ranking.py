"""Rankings on jet variables, leaders, and autoreduced sequences.

A ranking is a total order on the jet variables x_i^(j) compatible with
derivation: u < v implies u' < v', and u < u'.  Two families are provided:

* elimination: compare variable priority first, then derivative order
  (every jet of a higher-priority variable beats every jet of a lower one);
* orderly: compare derivative order first, then variable priority.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .diffpoly import DerVar, DiffPoly


class ConstantPolyError(ValueError):
    """Constant polynomials have no leader."""


class RankKind(Enum):
    ORDERLY = "orderly"
    ELIMINATION = "elim"


@dataclass(frozen=True)
class Ranking:
    """kind plus a priority permutation: priority[i] is the rank weight of
    variable i, larger = greater in the ranking."""

    kind: RankKind
    priority: tuple

    def __post_init__(self):
        if sorted(self.priority) != list(range(len(self.priority))):
            raise ValueError("priority must be a permutation of 0..n-1")

    @staticmethod
    def elimination(n: int, greatest_to_least: Sequence[int] = None) -> "Ranking":
        return Ranking(RankKind.ELIMINATION, _priority_from(n, greatest_to_least))

    @staticmethod
    def orderly(n: int, greatest_to_least: Sequence[int] = None) -> "Ranking":
        return Ranking(RankKind.ORDERLY, _priority_from(n, greatest_to_least))

    def key(self, v: DerVar):
        """Sort key: v < w in the ranking iff key(v) < key(w)."""
        if self.kind is RankKind.ELIMINATION:
            return (self.priority[v.var], v.order)
        return (v.order, self.priority[v.var])

    def max_var(self, vs):
        return max(vs, key=self.key)


def _priority_from(n: int, greatest_to_least) -> tuple:
    if greatest_to_least is None:
        greatest_to_least = list(range(n - 1, -1, -1))
    if sorted(greatest_to_least) != list(range(n)):
        raise ValueError("variable order must be a permutation of 0..n-1")
    prio = [0] * n
    for rank, var in enumerate(reversed(list(greatest_to_least))):
        prio[var] = rank
    return tuple(prio)


@dataclass(frozen=True)
class RankedPoly:
    """A nonconstant polynomial analyzed under a ranking: its leader (the
    greatest jet variable present), leader degree, separant dA/d(leader),
    and initial (coefficient of leader^degree).  rank_key is its rank,
    leader^degree, compared leader first then degree; analyze reads it once."""

    poly: DiffPoly
    ranking: Ranking
    leader: DerVar
    degree: int
    separant: DiffPoly
    initial: DiffPoly
    rank_key: tuple = field(repr=False, compare=False)


def analyze(p: DiffPoly, ranking: Ranking) -> RankedPoly:
    vs = p.dervars()
    if not vs:
        raise ConstantPolyError("constant polynomial has no leader")
    if len(ranking.priority) != p.context.n:
        raise ValueError("ranking size does not match ring context")
    leader = ranking.max_var(vs)
    degree = p.degree_in(leader)
    return RankedPoly(
        poly=p,
        ranking=ranking,
        leader=leader,
        degree=degree,
        separant=p.partial(leader),
        initial=p.coeff_of_power(leader, degree),
        rank_key=(ranking.key(leader), degree),
    )


def is_reduced(b: DiffPoly, a: RankedPoly) -> bool:
    """b is reduced w.r.t. a: no proper derivative of a's leader occurs in
    b, and b's degree in the leader is below a's."""
    lv, lo = a.leader.var, a.leader.order
    deg = b.degrees()
    for v in deg:
        if v.var == lv and v.order > lo:
            return False
    return deg.get(a.leader, 0) < a.degree


def is_autoreduced(seq: Sequence[DiffPoly], ranking: Ranking) -> bool:
    """Pairwise reduced in both directions, in any order."""
    try:
        ranked = [analyze(p, ranking) for p in seq]
    except ConstantPolyError:
        return False
    return _autoreduced_defect(ranked) is None


def _autoreduced_defect(ranked: Sequence[RankedPoly]):
    """Why an analyzed sequence is not autoreduced (see is_autoreduced), or
    None when it is."""
    for i, ri in enumerate(ranked):
        for j, rj in enumerate(ranked):
            if i != j and not is_reduced(ri.poly, rj):
                return f"{ri.poly.to_text()} is not reduced with respect to {rj.poly.to_text()}"
    return None

