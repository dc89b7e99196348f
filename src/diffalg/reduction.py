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

A divisor sequence is checked and analyzed once, as a PreparedSeq, which
is what ritt_reduce_seq divides by; one can serve any number of reductions.
A reduction keeps the working polynomial as one {monomial: coefficient}
map, copied from the dividend at the first step that changes it.  A step
finds the jet to clear by looking each jet's variable up in the
PreparedSeq's leader table, reads its cofactor and the cofactor's negation
off the map in one pass, and makes its two products, the map times the
separant or initial (only when that factor is not 1) and the negation
times d^j(divisor) added into the map, by the checked product the reader
uses too, with no intermediate polynomial built and one coefficient pass
per step.  A reduction logs its steps.  The certificate's multiplier is
the product of the logged factors, built the first time it is read; its
quotients are assembled from the log, reusing those products, the first
time they are read.  A Work meter, the one place a count meets MAX_WORK,
is charged every product of a division, and of its certificate, first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .diffpoly import DiffPoly, Monomial, OrderCapExceeded, _accumulate, _add_product
from .diffpoly import _check_same_context, _degree_profile
from .ranking import (
    ConstantPolyError,
    RankedPoly,
    Ranking,
    _autoreduced_defect,
    analyze,
    is_reduced,
)

# The work budget of one Work meter, in units: a term pair of a product (a division step's
# scaling and subtraction, a certificate's products, a reader's product) or a splitting
# tree's node.
MAX_WORK = 1_000_000
# Size caps, shared with the reader and the splitting tree: the most terms of a map that
# _checked_product builds, and the most bits in an integer and the highest degree in t of a
# coefficient it makes, of a new remainder in a splitting node, or of a reader's constant.
MAX_TERMS = 10_000
MAX_COEFF_BITS = 4096
MAX_T_DEGREE = 1_000


def _checked_product(acc: dict, a: dict, b: dict, coefficients: bool = True) -> Optional[str]:
    """Add the product of the term maps a and b into acc, a row (a term of a
    times b) at a time through _add_product, in one call when no row could
    pass MAX_TERMS, and stop after the first row that takes acc past it;
    then hold every coefficient of acc to the coefficient rule, unless told
    not to.  None, or the cap passed in its one wording, prefixed by the
    caller.  The reader's products and a division step's two are made here."""
    if len(acc) + len(a) * len(b) <= MAX_TERMS:
        _add_product(acc, a, b)
    else:
        for m, c in a.items():
            _add_product(acc, {m: c}, b)
            if len(acc) > MAX_TERMS:
                return f"passes the cap of {MAX_TERMS} terms (MAX_TERMS)"
    return _coefficient_defect(acc.values()) if coefficients else None


def _coefficient_defect(coeffs, degree: int = 0) -> Optional[str]:
    """The coefficient rule, in one pass over coeffs (field elements), and
    over degree, one in t known unbuilt (the reader's t^e): None, or the
    wording of MAX_COEFF_BITS, else of MAX_T_DEGREE, when one is passed."""
    ored, entries = 0, degree + 1  # integers or-ed, for their bit length; the most in a num or den
    for c in coeffs:
        num, den = c.num, c.den
        if len(num) == 1 and len(den) == 1:  # an element of Q
            ored |= abs(num[0]) | den[0]
        else:
            ored |= max(map(abs, num + den))  # the one with the most bits
            entries = max(entries, len(num), len(den))
    bits = ored.bit_length()  # the most bits in one integer
    if bits > MAX_COEFF_BITS:
        return f"makes a coefficient of {bits} bits, over the cap of {MAX_COEFF_BITS} bits (MAX_COEFF_BITS)"
    if entries - 1 > MAX_T_DEGREE:
        return f"makes a coefficient of degree {entries - 1} in t, over the cap of {MAX_T_DEGREE} (MAX_T_DEGREE)"
    return None


class Work:
    """One scope's count of work units, each charged before the work is done."""

    __slots__ = ("spent",)

    def __init__(self):
        self.spent = 0

    def charge(self, units: int) -> Optional[str]:
        """Add units to the count: None, or once it passes MAX_WORK (read at
        each call) the budget's one wording, prefixed by the caller."""
        self.spent += units
        if self.spent > MAX_WORK:
            return f"would bring the work to {self.spent}, over the budget MAX_WORK = {MAX_WORK}"
        return None

    def spend(self, units: int, what: str) -> None:
        """charge, raising StepLimitExceeded, its wording prefixed by what."""
        defect = self.charge(units)
        if defect is not None:
            raise StepLimitExceeded(f"{what} {defect}")


class StepLimitExceeded(Exception):
    """A reduction or its certificate would pass MAX_WORK, or another of its
    caps (distinct from nontermination)."""


class TermLimitExceeded(StepLimitExceeded):
    """A division step passed a size cap or DEFAULT_ORDER_CAP."""


class NotAutoreducedError(ValueError):
    """Ritt division requires an autoreduced divisor sequence."""


class DiffOperator:
    """A left operator sum_k c_k * d^k with polynomial coefficients, merged
    by power.  Only the module's certificate algebra is supported: addition
    and application."""

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
            _accumulate(acc, k, c)
        return DiffOperator(self.context, acc)

    def apply(self, p: DiffPoly) -> DiffPoly:
        out = DiffPoly.zero(self.context)
        for k, c in self._terms.items():
            out = out + c * p.derive(k)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffOperator)
            and self.context == other.context
            and self._terms == other._terms
        )

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


class PreparedSeq:
    """An autoreduced divisor sequence under a ranking, checked and analyzed
    once so that any number of reductions can share it.  Elements may be
    polynomials or RankedPolys already analyzed under the ranking.  An empty
    sequence, a constant, or a sequence that is not autoreduced is refused.
    leaders maps each divisor's leading variable (its index; the leaders of
    an autoreduced sequence are distinct variables) to (divisor index,
    leader order, leader degree), so a division step finds the jet to clear
    by one lookup per jet of the working polynomial.  unit_factors records,
    per divisor, whether its separant and its initial are 1, so a step
    multiplies by neither when it is."""

    __slots__ = ("ranking", "ranked", "sequence", "leaders", "unit_factors")

    def __init__(self, seq: Sequence[Union[DiffPoly, RankedPoly]], ranking: Ranking):
        if not seq:
            raise ValueError("empty divisor sequence")
        try:
            ranked = tuple(a if isinstance(a, RankedPoly) else analyze(a, ranking) for a in seq)
        except ConstantPolyError:
            raise NotAutoreducedError(
                "divisor sequence is not autoreduced under this ranking: it contains a constant"
            ) from None
        if any(rp.ranking != ranking for rp in ranked):
            raise ValueError("divisor analyzed under another ranking")
        defect = _autoreduced_defect(ranked)
        if defect is not None:
            raise NotAutoreducedError(
                f"divisor sequence is not autoreduced under this ranking: {defect}"
            )
        self.ranking = ranking
        self.ranked = ranked
        self.sequence = tuple(rp.poly for rp in ranked)
        self.leaders = {rp.leader.var: (i, rp.leader.order, rp.degree) for i, rp in enumerate(ranked)}
        one = DiffPoly.one(ranked[0].poly.context)
        self.unit_factors = tuple((rp.separant == one, rp.initial == one) for rp in ranked)


class ReductionCertificate:
    """All parts of the division identity, with the multiplier kept as an
    audited factor list (each factor is a separant or initial of a divisor),
    made from a division's step log: log holds (factor, divisor index,
    cofactor, derivation power) per step, each step having multiplied the
    working polynomial by the factor and subtracted cofactor * d^power of
    the divisor, of which there are `divisors`.

    The multiplier is built the first time it is read, as the product of
    the log's factors alone, so a caller that prints it and never reads a
    quotient (jbc-check's text) builds no quotient; the quotients are built
    from the log the first time they are read, reusing the products of
    factors the multiplier went through, which are then released.  A caller
    that needs only the remainder or the step count pays for neither.  Each
    product is charged first to work, the division's meter.  Certificates
    compare by identity."""

    __slots__ = ("factors", "remainder", "work", "_multiplier", "_quotients", "_log", "_suffixes")

    def __init__(self, log: list, divisors: int, remainder: DiffPoly, work: Work):
        self.factors = tuple(step[0] for step in log)
        self.remainder = remainder
        self.work = work
        self._multiplier = self._quotients = self._suffixes = None
        self._log = (log, divisors)

    def _product(self, a: DiffPoly, b: DiffPoly) -> DiffPoly:
        self.work.spend(a.term_count() * b.term_count(), "building the certificate")
        return a * b

    @property
    def multiplier(self) -> DiffPoly:
        if self._multiplier is None:
            # suffix products, from the last step back: entry k is the
            # product of the factors of step k and of every later step
            out, suffix = [], None
            for mult in reversed(self.factors):
                suffix = mult if suffix is None else self._product(mult, suffix)
                out.append(suffix)
            self._suffixes = out[::-1]
            self._multiplier = DiffPoly.one(self.remainder.context) if suffix is None else suffix
        return self._multiplier

    @property
    def quotients(self) -> tuple:
        if self._quotients is None:
            # a step's cofactor ends up multiplied by the factors of every
            # later step: its quotient coefficient is cofactor * suffix[k + 1]
            log, divisors = self._log
            self.multiplier  # builds the suffix products, released below
            suffixes = self._suffixes
            quotients = [DiffOperator.zero(self.remainder.context) for _ in range(divisors)]
            for k in range(len(log) - 1, -1, -1):
                _, i, cofactor, j = log[k]
                coeff = self._product(cofactor, suffixes[k + 1]) if k + 1 < len(log) else cofactor
                quotients[i] = quotients[i] + DiffOperator.of(coeff, j)
            self._quotients = tuple(quotients)
            self._log = self._suffixes = None
        return self._quotients

    @property
    def steps(self) -> int:
        return len(self.factors)


def ritt_reduce_seq(b: DiffPoly, prep: PreparedSeq, work: Optional[Work] = None) -> ReductionCertificate:
    """Divide b by a prepared autoreduced sequence, under its ranking.  Each
    step's two products are charged to work, a fresh meter unless the run
    dividing (a splitting tree) passes its own, before either is made; the
    certificate keeps the meter.  A division with no step has b itself as
    its remainder; past the budget a step raises StepLimitExceeded, and past
    a size cap or DEFAULT_ORDER_CAP TermLimitExceeded."""
    work = work or Work()
    ctx = b.context
    key, ranked, leaders, unit_factors = prep.ranking.key, prep.ranked, prep.leaders, prep.unit_factors
    terms = b._terms  # b's own map until the first step changes it
    deg = b.degrees()
    log = []
    while True:
        # the highest-ranked jet that a divisor's leader forbids: a proper
        # derivative of the leader, or the leader at its degree or above
        v = None
        for w, e in deg.items():
            hit = leaders.get(w.var)
            if hit is not None and (w.order > hit[1] or (w.order == hit[1] and e >= hit[2])):
                k = key(w)
                if v is None or k > top:
                    v, d, top, (i, order, degree) = w, e, k, hit
        if v is None:
            break
        rp = ranked[i]
        if v.order > order:
            j = v.order - order
            try:
                divisor = rp.poly.derive(j)
            except OrderCapExceeded as exc:
                raise TermLimitExceeded(f"reduction stopped at step {len(log) + 1}: {exc}") from None
            # the prolongation has leader v, degree 1 and initial = separant
            mult, degree, unit = rp.separant, 1, unit_factors[i][0]
        else:
            j = 0
            divisor, mult, unit = rp.poly, rp.initial, unit_factors[i][1]
        # the cofactor lead * v^(d - degree), with lead the coefficient of
        # v^d: each term of degree d in v, its exponent of v lowered; and
        # its negation, which the step subtracts
        cof, neg = {}, {}
        shift = ((v, d - degree),) if d > degree else ()
        for m, a in terms.items():
            fs = m.factors
            for k, (w, e) in enumerate(fs):
                if w >= v:
                    if w == v and e == d:
                        c = Monomial(fs[:k] + shift + fs[k + 1 :])
                        cof[c] = a
                        neg[c] = -a
                    break
        defect = work.charge((0 if unit else mult.term_count() * len(terms)) + len(cof) * divisor.term_count())
        if defect is not None:
            raise StepLimitExceeded(f"reduction stopped at step {len(log) + 1}: the step {defect}")
        if unit:
            terms, defect = dict(terms) if terms is b._terms else terms, None
        else:  # the subtraction's coefficient pass reads what the scaling made
            terms, unscaled = {}, terms
            defect = _checked_product(terms, mult._terms, unscaled, coefficients=False)
        defect = defect or _checked_product(terms, neg, divisor._terms)
        if defect is not None:
            raise TermLimitExceeded(f"reduction stopped at step {len(log) + 1}: the step {defect}")
        log.append((mult, i, DiffPoly(ctx, cof), j))
        deg = _degree_profile(terms)
    remainder = b
    if log:
        remainder = DiffPoly(ctx, terms)
        remainder._degrees = deg  # the profile the last step read
    return ReductionCertificate(log, len(ranked), remainder, work)


def verify_certificate(
    cert: ReductionCertificate,
    b: DiffPoly,
    seq: Sequence[DiffPoly],
    ranking: Ranking,
) -> bool:
    """Re-check the whole certificate by plain arithmetic: the division
    identity, reducedness of the remainder, and that every factor (whose
    product the multiplier is, by construction) is a separant or initial of
    a divisor.  Each side of the identity multiplier * b = remainder + sum
    of q_i(a_i) is summed term pair by term pair into one map, with no
    polynomial built, and the two maps are compared.  Each product is
    charged to the certificate's meter first."""
    if len(cert.quotients) != len(seq):
        return False
    ranked = [analyze(a, ranking) for a in seq]
    for p in (cert.multiplier, cert.remainder, *seq):
        _check_same_context(p, b)
    spend, what = cert.work.spend, "checking the certificate"
    rhs = dict(cert.remainder._terms)
    for q, a in zip(cert.quotients, seq):
        for k, c in q._terms.items():
            _check_same_context(c, a)
            ak = a.derive(k)
            spend(c.term_count() * ak.term_count(), what)
            _add_product(rhs, c._terms, ak._terms)
    spend(cert.multiplier.term_count() * b.term_count(), what)
    if _add_product({}, cert.multiplier._terms, b._terms) != rhs:
        return False
    if not all(is_reduced(cert.remainder, rp) for rp in ranked):
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
