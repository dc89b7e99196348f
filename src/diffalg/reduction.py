"""Ritt division with exact certificates.

Reducing B by an autoreduced sequence (A_1..A_r) produces an identity

    multiplier * B = sum_i Q_i(A_i) + remainder

with the remainder reduced with respect to every divisor, the multiplier a
recorded product of separants and initials, and each Q_i a linear
differential operator (an element of R[d], applied left-to-right).  The
certificate carries every part of that identity and can be re-verified by
plain polynomial arithmetic.

Elimination strategy: repeatedly pick the highest-ranked offending jet
variable -- either a proper derivative of some leader, or a leader whose
degree bound is violated -- and clear it with a single separant or initial
multiplication, so multiplier exponents stay minimal for the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .diffpoly import DiffPoly, Monomial
from .ranking import RankedPoly, Ranking, analyze, is_autoreduced, is_reduced

DEFAULT_STEP_CAP = 100_000


class StepLimitExceeded(Exception):
    """The reduction loop hit its step cap (distinct from nontermination)."""


class NotAutoreducedError(ValueError):
    """ritt_reduce_seq requires an autoreduced divisor sequence."""


class DiffOperator:
    """A left operator sum_k c_k * d^k with polynomial coefficients, merged
    by power.  Only the module's certificate algebra is supported: addition,
    left multiplication by a ring element, and application."""

    __slots__ = ("context", "_terms")

    def __init__(self, context, terms: dict):
        self.context = context
        self._terms = terms  # dict[int, DiffPoly], no zero coefficients

    @staticmethod
    def zero(ctx) -> "DiffOperator":
        return DiffOperator(ctx, {})

    @staticmethod
    def of(coeff: DiffPoly, power: int = 0) -> "DiffOperator":
        if power < 0:
            raise ValueError("negative derivation power")
        return DiffOperator(coeff.context, {power: coeff} if coeff else {})

    def terms(self):
        """(coefficient, power) pairs, highest power first."""
        return tuple((self._terms[k], k) for k in sorted(self._terms, reverse=True))

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.context != other.context:
            raise ValueError("mixed ring contexts")
        acc = dict(self._terms)
        for k, c in other._terms.items():
            cur = acc.get(k)
            c = c if cur is None else cur + c
            if c:
                acc[k] = c
            elif cur is not None:
                del acc[k]
        return DiffOperator(self.context, acc)

    def scale(self, p: DiffPoly) -> "DiffOperator":
        """Left multiplication by a ring element."""
        if not p:
            return DiffOperator.zero(self.context)
        return DiffOperator(self.context, {k: p * c for k, c in self._terms.items()})

    def apply(self, p: DiffPoly) -> DiffPoly:
        out = DiffPoly.zero(self.context)
        if not self._terms:
            return out
        cache = {0: p}
        top = max(self._terms)
        for k in range(1, top + 1):
            cache[k] = cache[k - 1].derive()
        for k, c in self._terms.items():
            out = out + c * cache[k]
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffOperator)
            and self.context == other.context
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.context, frozenset(self._terms.items())))

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for c, k in self.terms():
            body = f"({c.to_text()})" if c.term_count() > 1 else c.to_text()
            parts.append(body if k == 0 else f"{body}*d^{k}" if k > 1 else f"{body}*d")
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOperator({self.to_text()})"


@dataclass(frozen=True)
class ReductionCertificate:
    """All parts of the division identity, with the multiplier kept as an
    audited factor list (each factor is a separant or initial of a divisor)."""

    multiplier: DiffPoly
    factors: tuple  # tuple[DiffPoly, ...]
    quotients: tuple  # tuple[DiffOperator, ...], one per divisor
    remainder: DiffPoly

    @property
    def steps(self) -> int:
        return len(self.factors)


def _offense(c: DiffPoly, ranked: Sequence[RankedPoly], ranking: Ranking):
    """The highest-ranked violation of reducedness of c against the divisors:
    (jet variable, divisor index, kind) with kind 'd' (proper derivative of a
    leader occurs) or 'a' (leader degree too high)."""
    by_var = {rp.leader.var: (i, rp) for i, rp in enumerate(ranked)}
    best = None
    for v in c.dervars():
        hit = by_var.get(v.var)
        if hit is None:
            continue
        i, rp = hit
        if v.order > rp.leader.order:
            cand = (ranking.key(v), v, i, "d")
        elif v.order == rp.leader.order and c.degree_in(v) >= rp.degree:
            cand = (ranking.key(v), v, i, "a")
        else:
            continue
        if best is None or cand[0] > best[0]:
            best = cand
    if best is None:
        return None
    return best[1], best[2], best[3]


def _reduce(b: DiffPoly, ranked: Sequence[RankedPoly], ranking: Ranking, step_cap: int) -> ReductionCertificate:
    ctx = b.context
    one = DiffPoly.one(ctx)
    c = b
    multiplier = one
    factors: list[DiffPoly] = []
    quotients = [DiffOperator.zero(ctx) for _ in ranked]
    steps = 0
    while True:
        off = _offense(c, ranked, ranking)
        if off is None:
            break
        steps += 1
        if steps > step_cap:
            raise StepLimitExceeded(f"reduction exceeded {step_cap} elimination steps")
        v, i, kind = off
        rp = ranked[i]
        if kind == "d":
            j = v.order - rp.leader.order
            prolonged = rp.poly.derive(j)  # leader v, degree 1, initial = separant
            mult = rp.separant
            d = c.degree_in(v)
            lead = c.coeff_of_power(v, d)
            cofactor = lead * DiffPoly.from_terms(ctx, [(Monomial.of(v, d - 1), ctx.field.one)])
            c = mult * c - cofactor * prolonged
        else:
            j = 0
            mult = rp.initial
            d = c.degree_in(v)
            lead = c.coeff_of_power(v, d)
            cofactor = lead * DiffPoly.from_terms(ctx, [(Monomial.of(v, d - rp.degree), ctx.field.one)])
            c = mult * c - cofactor * rp.poly
        multiplier = mult * multiplier
        factors.append(mult)
        quotients = [q.scale(mult) for q in quotients]
        quotients[i] = quotients[i] + DiffOperator.of(cofactor, j)
    return ReductionCertificate(
        multiplier=multiplier,
        factors=tuple(factors),
        quotients=tuple(quotients),
        remainder=c,
    )


def ritt_reduce_one(b: DiffPoly, a: DiffPoly, ranking: Ranking, step_cap: int = DEFAULT_STEP_CAP) -> ReductionCertificate:
    """Divide b by a single nonconstant divisor."""
    return _reduce(b, [analyze(a, ranking)], ranking, step_cap)


def ritt_reduce_seq(
    b: DiffPoly,
    seq: Sequence[DiffPoly],
    ranking: Ranking,
    step_cap: int = DEFAULT_STEP_CAP,
) -> ReductionCertificate:
    """Divide b by an autoreduced sequence; raises NotAutoreducedError if the
    sequence is not autoreduced under the ranking."""
    if not seq:
        raise ValueError("empty divisor sequence")
    if not is_autoreduced(seq, ranking):
        raise NotAutoreducedError("divisor sequence is not autoreduced under this ranking")
    return _reduce(b, [analyze(a, ranking) for a in seq], ranking, step_cap)


def verify_certificate(
    cert: ReductionCertificate,
    b: DiffPoly,
    seq: Sequence[DiffPoly],
    ranking: Ranking,
) -> bool:
    """Re-check the whole certificate by plain arithmetic: the division
    identity, reducedness of the remainder, the audited multiplier
    factorization, and that every factor is a separant or initial of a
    divisor."""
    if len(cert.quotients) != len(seq):
        return False
    ranked = [analyze(a, ranking) for a in seq]
    lhs = cert.multiplier * b
    rhs = cert.remainder
    for q, a in zip(cert.quotients, seq):
        rhs = rhs + q.apply(a)
    if lhs != rhs:
        return False
    if not all(is_reduced(cert.remainder, rp) for rp in ranked):
        return False
    prod = DiffPoly.one(b.context)
    for f in cert.factors:
        prod = f * prod
    if prod != cert.multiplier:
        return False
    allowed = set()
    for rp in ranked:
        allowed.add(rp.separant)
        allowed.add(rp.initial)
    return all(f in allowed for f in cert.factors)


@dataclass(frozen=True)
class Verdict:
    """Membership in a saturated ideal, read off a Ritt division: member iff
    the certificate's remainder is zero.  The answer is heuristic when it
    rests on an unverified primality assumption."""

    member: bool
    heuristic: bool
    certificate: ReductionCertificate

    def __bool__(self) -> bool:
        return self.member
