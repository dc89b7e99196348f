"""Brute-force truncated ideal membership with explicit witnesses.

Completely independent of the reduction machinery: the differential ideal
[g_1..g_r] is truncated to the finite-dimensional K-span of the products

    m * d^k(g_i),   k <= prolongation bound,  total degree <= degree bound,

with monomial multipliers m, and membership of f is decided by exact linear
algebra on coefficient vectors.  Member verdicts are re-verified as
polynomial identities before being returned, so they are sound; everything
else is reported as Inconclusive (deciding non-membership in a differential
ideal is not attempted), always with the bounds that were tried.

Multipliers only ever need jet variables that occur in f or in a kept
prolonged generator: substituting zero for any other jet maps a witness to a
witness, so restricting to that universe loses nothing.

All linear algebra is one routine: a row-echelon basis (`_Echelon`) that
takes candidates one at a time and is asked whether f lies in their span,
the incremental Macaulay-matrix elimination of Lazard (1983) and of
Faugere's F4 (1999).  Its rows, candidate vectors and f are keyed by each
monomial's graded sort key, the tuple (degree, factors) of
Monomial.sort_key, so the pivot of a vector is max(vec) with no key
function.  A candidate enters as a monomial shift of d^k(g_i): multiplying
by a monomial is one-to-one on monomials, so its coefficients are those of
d^k(g_i), and no polynomial product is made.  d^k(g_i) is read once as
(degree, factors, coefficient) triples, and the key of m * hm is
(deg m + deg hm, the merged factors of m and hm), so no Monomial is built
for a candidate either.  A row records the (pivot, quotient) steps that
reduced its candidate, not the combination of candidates it stands for;
reduction updates only the vector, and a combination is expanded from the
steps only when f reduces to zero, so a search that ends Inconclusive never
builds one.  Witnesses are re-verified by plain polynomial arithmetic,
independent of these shortcuts.

Over Q, where the derivation of a coefficient is zero, the search looks for
positive integer variable weights under which every generator is homogeneous
in (weighted degree, total derivative weight): all ones when each generator
has a single total degree, else the one line of solutions of the generators'
own constraints, such as x = 2, y = 3 for the cusp y^2 - x^3.
Differentiation shifts the derivative weight by exactly one and keeps the
weighted degree, so the membership question splits into small independent
blocks, one echelon each, and only the blocks f occupies are built -- this
makes the high-power examples instant.  Otherwise, and when a block is
over the cap, the search walks the (degree, prolongation) stages,
degree-major, into a single growing echelon: a candidate m * d^k(g_i) is
built and eliminated the first time a stage admits it, and f's reduction
resumes where it stopped each time the echelon has grown.  A stage whose
own candidate count exceeds the matrix cap is skipped and counted in the
diagnostic.  Stages are nested in both bounds, so the echelon spans the
union of the admitted stages; when no stage is skipped that union is the
top stage, the whole truncation.

One search object is built per query, for f: it checks the generators and
finds their weights once, and it answers for the powers f^e, which have
the jets of f.  truncated_member is its answer for e = 1 and radical_member
its walk over the powers; once e = 1 has swept the stages, every further
power is a single reduction.  Candidate counts only grow with the degree,
so with no weights, once a power's first stage is over the cap every later
power's is too: those powers are counted, not tried.  With weights every
power solves blocks of its own, and the walk tries no further power once
the graded candidates of the powers tried pass the same cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, gcd, lcm
from typing import Optional, Sequence

from .diffpoly import MON_ONE, Context, DiffPoly, Monomial, _accumulate, _merge_factors
from .fields import QQ, RF_ONE

MAX_CANDIDATES = 1500
_MINUS_ONE = -RF_ONE


@dataclass(frozen=True)
class TruncationBounds:
    """Finite truncation of an infinite search.

    jet_order: highest derivative order the query polynomial may use;
    prolongation_order: how often generators are differentiated;
    degree_bound: max total degree of candidate products;
    power_bound: highest exponent tried for radical membership.
    """

    jet_order: int = 4
    prolongation_order: int = 6
    degree_bound: int = 8
    power_bound: int = 6

    def __post_init__(self):
        for name in ("jet_order", "prolongation_order", "degree_bound", "power_bound"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def describe(self) -> str:
        return (
            f"jets<={self.jet_order} prolong<={self.prolongation_order} "
            f"deg<={self.degree_bound} power<={self.power_bound}"
        )


class OracleVerdict(Enum):
    MEMBER = "Member"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class WitnessTerm:
    """One summand c * m * d^k(g_i) of a membership combination."""

    coeff: object  # a RatFunc
    monomial: Monomial
    gen_index: int
    derive_order: int


@dataclass(frozen=True)
class MembershipWitness:
    """Outcome of a truncated membership query.

    Member carries the explicit combination f^power = sum of terms, already
    re-verified by polynomial arithmetic.  Inconclusive carries a diagnostic
    naming the bounds (and any cap skips) so the report is reproducible.
    """

    verdict: OracleVerdict
    bounds: TruncationBounds
    context: Optional[Context] = None
    power: int = 1
    combination: tuple = ()
    diagnostic: str = ""

    def is_member(self) -> bool:
        return self.verdict is OracleVerdict.MEMBER

    def to_text(self) -> str:
        if not self.is_member():
            return f"Inconclusive ({self.diagnostic}; bounds: {self.bounds.describe()})"
        names = self.context.names
        fld = self.context.field
        parts = []
        for t in self.combination:
            c = fld.text(t.coeff)
            m = t.monomial.text(names) if t.monomial.factors else ""
            g = f"g{t.gen_index + 1}"
            dk = g if t.derive_order == 0 else f"d^{t.derive_order}({g})"
            body = "*".join(x for x in (f"({c})", m, dk) if x)
            parts.append(body)
        head = "f" if self.power == 1 else f"f^{self.power}"
        return f"Member (e = {self.power}): {head} = " + " + ".join(parts)


def verify_witness(f: DiffPoly, gens: Sequence[DiffPoly], w: MembershipWitness) -> bool:
    """Re-check the combination identity by plain polynomial arithmetic."""
    if not w.is_member():
        return False
    ctx = f.context
    rhs = DiffPoly.zero(ctx)
    for t in w.combination:
        prod = gens[t.gen_index].derive(t.derive_order) * DiffPoly.from_terms(
            ctx, [(t.monomial, t.coeff)]
        )
        rhs = rhs + prod
    return rhs == f ** w.power


class _CapHit(Exception):
    pass


def _bigrade(m: Monomial, weights: tuple) -> tuple:
    """(weighted degree, derivative weight) of a monomial: its exponents
    summed with the weight of each jet's variable, and with each jet's
    order."""
    return sum(weights[v.var] * e for v, e in m.factors), m.weight()


def _weights(gens) -> Optional[tuple]:
    """Positive integer variable weights under which every generator is
    homogeneous in (weighted degree, derivative weight), or None.

    Only over Q, and only when each generator has a single derivative
    weight.  When each generator also has a single total degree the weights
    are all ones.  Otherwise two monomials of one generator, with exponent
    sums a and b per variable, ask sum_v w_v * (a_v - b_v) = 0; the weights
    are the primitive integer vector of the solutions when those form a line
    through a strictly positive vector, and None in every other case."""
    ctx = gens[0].context
    if ctx.field is not QQ or any(
        g.context != ctx or len({m.weight() for m in g.monomials()}) != 1 for g in gens
    ):
        return None
    if all(len({m.degree() for m in g.monomials()}) == 1 for g in gens):
        return (1,) * ctx.n
    rows = []
    for g in gens:
        sums = []
        for m in g.monomials():
            row = [0] * ctx.n
            for v, e in m.factors:
                row[v.var] += e
            sums.append(row)
        rows.extend([a - b for a, b in zip(s, sums[0])] for s in sums[1:])
    return _positive_kernel(rows, ctx.n)


def _positive_kernel(rows: list, n: int) -> Optional[tuple]:
    """The primitive integer vector w > 0 spanning {w : row . w = 0 for
    every row}, when that solution space is a line through one; else None.
    Fraction-free Gauss-Jordan elimination: each row operation is an integer
    combination of two rows, and a row is divided by its content."""
    pivots = []  # (column, row): each row is zero in every other pivot column
    for row in rows:
        for col, prow in pivots:
            if row[col]:
                row = [prow[col] * x - row[col] * y for x, y in zip(row, prow)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        content = gcd(*row)
        row = [x // content for x in row]
        for i, (pc, prow) in enumerate(pivots):
            if prow[col]:
                prow = [row[col] * x - prow[col] * y for x, y in zip(prow, row)]
                content = gcd(*prow)
                pivots[i] = (pc, [x // content for x in prow])
        pivots.append((col, row))
    free = [j for j in range(n) if j not in {c for c, _ in pivots}]
    if len(free) != 1:
        return None
    (j,) = free
    scale = lcm(*(row[col] for col, row in pivots))
    w = [0] * n
    w[j] = scale
    for col, row in pivots:
        w[col] = -row[j] * scale // row[col]
    content = gcd(*w)
    w = [x // content for x in w]
    if all(x < 0 for x in w):
        w = [-x for x in w]
    return tuple(w) if all(x > 0 for x in w) else None


def _graded_terms(h: DiffPoly) -> tuple:
    """h's terms as (degree, factors, coefficient) triples."""
    return tuple((*m.sort_key(), c) for m, c in h.items())


def _shifted(m: Monomial, terms: tuple) -> dict:
    """The coefficient vector of m * h, keyed by sort keys, from h's graded
    terms: each key is (deg m + deg hm, the merged factors)."""
    d, fs = m.sort_key()
    return {(d + hd, _merge_factors(fs, hf)): c for hd, hf, c in terms}


def _jet_universe(jets, kept) -> tuple:
    universe = set(jets)
    for *_, h_jets in kept:
        universe.update(h_jets)
    return tuple(sorted(universe))


def _monomials_upto(jets, max_deg: int) -> list:
    """All monomials of total degree <= max_deg over the given jets,
    C(len(jets) + max_deg, max_deg) of them.  The jets come sorted, as
    _jet_universe gives them, and each factor tuple is built in their
    order, so its factors are sorted, distinct and positive as Monomial
    keeps them."""
    out = [MON_ONE]
    stack = [(0, (), max_deg)]
    while stack:
        i, acc, left = stack.pop()
        for j in range(i, len(jets)):
            for e in range(1, left + 1):
                mono = acc + ((jets[j], e),)
                out.append(Monomial(mono))
                if left - e > 0:
                    stack.append((j + 1, mono, left - e))
    return out


def _monomials_exact(jets, weights: tuple, wdeg: int, weight: int, max_deg: int, cap: int) -> list:
    """Monomials over the jets with the exact bigrade (wdeg, weight) under
    the variable weights and total degree <= max_deg."""
    out = []
    jets = sorted(jets, key=lambda v: (-v.order, v.var))
    suffix_max = [0] * (len(jets) + 1)
    for i in range(len(jets) - 1, -1, -1):
        suffix_max[i] = max(suffix_max[i + 1], jets[i].order)

    def rec(i, acc, wdleft, wleft, dleft):
        # every weight is >= 1, so at most min(dleft, wdleft) more factors
        if wleft < 0 or wleft > min(dleft, wdleft) * suffix_max[i]:
            return
        if wdleft == 0:
            if wleft == 0:
                out.append(Monomial.make(acc))
                if len(out) > cap:
                    raise _CapHit
            return
        if i == len(jets):
            return
        v = jets[i]
        wv = weights[v.var]
        for e in range(min(dleft, wdleft // wv) + 1):
            rec(i + 1, acc + ((v, e),) if e else acc, wdleft - e * wv, wleft - e * v.order, dleft - e)

    rec(0, (), wdeg, weight, max_deg)
    return out


class _Echelon:
    """Exact row-echelon basis of candidate polynomials over the coefficient
    field.  Every monomial is keyed by its sort key (degree, factors), whose
    tuple order is the graded monomial order, so a vector's leading entry is
    its max().  Each row sits under its pivot (leading monomial) unscaled, as
    (tail, lead, key, steps): the sparse key -> coefficient map of its other
    entries, its coefficient at the pivot, the key of the candidate it was
    made from, and the (pivot, quotient) steps that reduced that candidate
    to it.  The pivots are distinct, so a polynomial lies in the span of the
    candidates exactly when reducing its leading monomials on the rows ends
    at zero.  A step's quotient is one product with the row's -1/lead, kept
    in scales from the first step that uses the row, so a row that no step
    uses is never inverted, and no row is ever divided through.

    Reduction updates only the vector.  A row is its candidate plus
    multiples of earlier rows, so the rows' candidates are independent and
    a polynomial in the span is one combination of them, with unique
    coefficients; that combination is expanded from the recorded steps
    only when a reduction ends at zero (_combination)."""

    def __init__(self):
        self.rows = {}
        self.scales = {}  # pivot -> -1/lead of its row, once a step has used it

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, steps: list):
        """Reduce vec in place, appending each (pivot, quotient) step to
        steps; the leading monomial left over, or None when vec reduced to
        zero.  A vector left over may be reduced again once rows are added."""
        rows, scales = self.rows, self.scales
        while vec:
            pivot = max(vec)
            row = rows.get(pivot)
            if row is None:
                return pivot
            tail, lead, _, _ = row
            scale = scales.get(pivot)
            if scale is None:
                scale = scales[pivot] = _MINUS_ONE / lead
            c = vec.pop(pivot) * scale
            steps.append((pivot, c))
            for m, x in tail.items():
                cur = vec.get(m)
                nxt = (cur + c * x) if cur is not None else c * x
                if nxt:
                    vec[m] = nxt
                else:
                    del vec[m]
        return None

    def _combination(self, steps: list) -> dict:
        """{candidate key: coefficient} of the vector that the steps took to
        zero: v + sum of c * row(pivot) = 0.  Each row's steps refer to
        earlier rows only, so one pass over the rows in reverse insertion
        order carries every row's multiplier down to the rows its own steps
        used, with no recursion: a row reached with multiplier w contributes
        -w times its candidate."""
        rows = self.rows
        weight: dict = {}
        for pivot, c in steps:
            _accumulate(weight, pivot, c)
        combo = {}
        for pivot in reversed(rows):
            if not weight:
                break
            w = weight.pop(pivot, None)
            if w is None:
                continue
            _, _, key, row_steps = rows[pivot]
            combo[key] = -w
            for q, c in row_steps:
                _accumulate(weight, q, w * c)
        return combo

    def add(self, key, vec: dict) -> None:
        """Eliminate the candidate with the coefficient vector vec (keyed
        by sort keys), which this takes over; it becomes a row unless it is
        already in the span."""
        steps: list = []
        pivot = self._reduce(vec, steps)
        if pivot is not None:
            lead = vec.pop(pivot)
            self.rows[pivot] = (vec, lead, key, steps)

    def resume(self, vec: dict, steps: list) -> Optional[dict]:
        """Reduce vec further on the rows as they stand, after earlier
        reductions of the same vec recorded in steps: {candidate key:
        coefficient} summing to the vector vec started as, or None while it
        is outside the span."""
        if self._reduce(vec, steps) is not None:
            return None
        return self._combination(steps)

    def solve(self, f: DiffPoly) -> Optional[dict]:
        """{candidate key: coefficient} with f = sum of coefficient *
        candidate, or None when f is outside the span."""
        return self.resume({m.sort_key(): c for m, c in f.items()}, [])


def _exhausted(skipped: int) -> str:
    """The diagnostic of a staged walk that found no combination."""
    note = "search exhausted"
    if skipped:
        note += f"; {skipped} stage(s) skipped by the candidate cap {MAX_CANDIDATES}"
    return note


class _Search:
    """The truncated search for the powers of one polynomial f over fixed
    generators.  It checks the generators once and finds their variable
    weights for the graded path (None when there are none); it keeps each
    d^k(g_i) as read, and the (degree, prolongation) stages eliminated into
    one growing echelon, so no stage is swept twice.  It is asked only about
    f^e, whose jets are f's.  Every answer is built here: a Member by
    _assemble, re-verified, and an Inconclusive by _inconclusive."""

    def __init__(self, f: DiffPoly, gens: Sequence[DiffPoly], bounds: TruncationBounds):
        gens = list(gens)
        if not gens:
            raise ValueError("empty generator list")
        for g in gens:
            if g.context != f.context:
                raise ValueError("mixed ring contexts")
            if g.is_zero():
                raise ValueError("zero generator")
        self.f, self.gens, self.bounds = f, gens, bounds
        self.jets = f.dervars()
        self.weights = _weights(gens)
        self.read: dict = {}  # (gi, k) -> d^k(g_i) as _kept reads it
        self.echelon = _Echelon()
        self.built: set = set()  # candidate keys (gi, k, m) in the echelon
        self.stages: dict = {}  # (dd, pp) -> admitted, skipped (False) or empty (None)
        self.monomials: dict = {}  # (universe, degree cap) -> monomials
        self.graded = 0  # candidates the graded blocks have eliminated, over every power
        self.power = (1, f)  # (e, f^e) for the last power asked about

    def answer(self, e: int) -> MembershipWitness:
        """Is f^e in the truncated span?  A zero f^e is a Member; a query
        above the jet bound is a ValueError; one above the degree bound is
        Inconclusive.  A walk over the powers e = 1, 2, ... makes each f^e
        as one product of the last power with f."""
        last, f = self.power
        if e != last:
            f = f * self.f if e == last + 1 else self.f ** e
            self.power = (e, f)
        bounds = self.bounds
        if f.is_zero():
            return self._assemble({}, e)
        if f.max_order() > bounds.jet_order:
            raise ValueError(
                f"query has derivative order {f.max_order()}, above the jet bound "
                f"{bounds.jet_order}"
            )
        if f.total_degree() > bounds.degree_bound:
            return self._inconclusive(f"degree of query ({f.total_degree()}) exceeds the degree bound")
        if self.weights is not None:
            try:
                combo = self._graded(f)
            except _CapHit:
                pass  # the staged search may still decide
            else:
                if combo is None:
                    return self._inconclusive("no combination exists at these bounds (graded search exhausted)")
                return self._assemble(combo, e)
        combo, skipped = self._find(f)
        if combo is None:
            return self._inconclusive(_exhausted(skipped))
        return self._assemble(combo, e)

    def _inconclusive(self, diagnostic: str) -> MembershipWitness:
        return MembershipWitness(
            verdict=OracleVerdict.INCONCLUSIVE,
            bounds=self.bounds,
            context=self.f.context,
            diagnostic=diagnostic,
        )

    def _assemble(self, combo: dict, power: int) -> MembershipWitness:
        """The Member witness f^power = sum of combo's candidates, re-verified."""
        terms = tuple(
            WitnessTerm(coeff=c, monomial=m, gen_index=gi, derive_order=k)
            for (gi, k, m), c in sorted(
                combo.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].sort_key())
            )
        )
        w = MembershipWitness(
            verdict=OracleVerdict.MEMBER,
            bounds=self.bounds,
            context=self.f.context,
            power=power,
            combination=terms,
        )
        if not verify_witness(self.f, self.gens, w):
            raise RuntimeError("internal error: witness failed re-verification")
        return w

    def _kept(self, max_k: int, max_deg: int) -> list:
        """Nonzero d^k(g_i) with k <= max_k and degree <= max_deg, as (i, k,
        degree, graded terms, jets).  Each d^k(g_i) is read once, off the
        derivative chain g_i keeps, so the stages and powers share it."""
        kept = []
        read = self.read
        for gi, g in enumerate(self.gens):
            for k in range(max_k + 1):
                if (gi, k) not in read:
                    h = g.derive(k)
                    terms = _graded_terms(h)
                    read[(gi, k)] = (max(t[0] for t in terms), terms, h.dervars()) if terms else None
                r = read[(gi, k)]
                if r is not None and r[0] <= max_deg:
                    kept.append((gi, k) + r)
        return kept

    def _graded(self, f: DiffPoly) -> Optional[dict]:
        """Blockwise solve when every generator is homogeneous in (weighted
        degree, derivative weight) under the variable weights, over Q:
        the combination, or None when a block of f is outside its span, a
        definite miss at these bounds.  Raises _CapHit when a block has more
        than MAX_CANDIDATES candidates.

        The block (W, O) holds the candidates m * d^k(g_i) of the truncation
        whose product has that bigrade: m over the jet universe, with bigrade
        (W - W_i, O - O_i - k) and total degree <= degree_bound - deg d^k(g_i)
        (with unit weights the last is implied).  Over Q the derivation keeps
        every term's weighted degree and raises its derivative weight by one,
        so each candidate is bihomogeneous and the span of the truncation is
        the direct sum of its blocks' spans: f lies in it exactly when each of
        f's bigrade parts lies in its own block's span.  The block search
        therefore decides as the staged search does whenever that search skips
        no stage, and only the blocks f occupies are built."""
        bounds, weights = self.bounds, self.weights
        kept = self._kept(bounds.prolongation_order, bounds.degree_bound)
        universe = _jet_universe(self.jets, kept)
        grades = [_bigrade(next(iter(g.monomials())), weights) for g in self.gens]
        blocks: dict[tuple, list] = {}
        for m, c in f.items():
            blocks.setdefault(_bigrade(m, weights), []).append((m, c))
        combo_all: dict = {}
        for (wdeg, weight), terms in sorted(blocks.items()):
            echelon = _Echelon()
            count = 0
            for gi, k, h_deg, terms_h, _ in kept:
                hd, hw = grades[gi][0], grades[gi][1] + k
                if hd > wdeg or hw > weight:
                    continue
                dcap = bounds.degree_bound - h_deg
                for m in _monomials_exact(universe, weights, wdeg - hd, weight - hw, dcap, MAX_CANDIDATES):
                    count += 1
                    if count > MAX_CANDIDATES:
                        raise _CapHit
                    self.graded += 1
                    echelon.add((gi, k, m), _shifted(m, terms_h))
            combo = echelon.solve(DiffPoly.from_terms(f.context, terms))
            if combo is None:
                return None
            for k, c in combo.items():
                _accumulate(combo_all, k, c)
        return combo_all

    def _visit(self, dd: int, pp: int) -> Optional[bool]:
        """Eliminate the candidates of stage (dd, pp) that no earlier stage
        admitted.  None when no generator is kept; False, building nothing,
        when the stage has more than MAX_CANDIDATES candidates."""
        kept = self._kept(pp, dd)
        if not kept:
            return None
        universe = _jet_universe(self.jets, kept)
        caps = [dd - h_deg for _, _, h_deg, _, _ in kept]
        if sum(comb(len(universe) + c, c) for c in caps) > MAX_CANDIDATES:
            return False
        for (gi, k, _, terms_h, _), dcap in zip(kept, caps):
            mons = self.monomials.get((universe, dcap))
            if mons is None:
                mons = self.monomials[(universe, dcap)] = _monomials_upto(universe, dcap)
            for m in mons:
                key = (gi, k, m)
                if key not in self.built:
                    self.built.add(key)
                    self.echelon.add(key, _shifted(m, terms_h))
        return True

    def _find(self, f: DiffPoly) -> tuple:
        """Walk the stages from f's degree up until f lies in the echelon's span;
        returns (combination or None, stages skipped by the cap).  Candidate counts
        only grow with both bounds: stages after a skipped one are counted, not visited.
        f's reduction is kept from stage to stage and resumes where it stopped
        at each admitted stage; with no new row under its leading monomial it
        stops at once."""
        skipped = 0
        vec, steps = {m.sort_key(): c for m, c in f.items()}, []
        top, last = self.bounds.degree_bound, self.bounds.prolongation_order
        for dd in range(f.total_degree(), top + 1):
            for pp in range(last + 1):
                if (dd, pp) not in self.stages:
                    self.stages[(dd, pp)] = self._visit(dd, pp)
                admitted = self.stages[(dd, pp)]
                if admitted is False:
                    skipped += last + 1 - pp
                    if pp == 0:
                        return None, skipped + (top - dd) * (last + 1)
                    break
                if admitted:
                    combo = self.echelon.resume(vec, steps)
                    if combo is not None:
                        return combo, skipped
        return None, skipped


def truncated_member(
    f: DiffPoly, gens: Sequence[DiffPoly], bounds: TruncationBounds = TruncationBounds()
) -> MembershipWitness:
    """Is f in the truncated span of the prolonged generators?

    Member answers come with an explicit, re-verified combination; anything
    else is Inconclusive (in particular a cap skip or a degree overflow,
    both named in the diagnostic).
    """
    return _Search(f, gens, bounds).answer(1)


def radical_member(
    f: DiffPoly, gens: Sequence[DiffPoly], bounds: TruncationBounds = TruncationBounds()
) -> MembershipWitness:
    """First power e <= power_bound with f^e in the truncated span.  The
    powers share one search, so no stage is swept twice.  Candidate counts
    only grow with the degree: with no weights, once a power's staged walk
    skips its first stage (e * deg f, 0), every later power's is skipped
    whole too, and those powers are counted, not tried.  With weights each
    power solves graded blocks of its own, so MAX_CANDIDATES also bounds
    their total: once the powers tried have eliminated more graded
    candidates than that, no further power is tried."""
    search = _Search(f, gens, bounds)
    deg, top, pp = f.total_degree(), bounds.degree_bound, bounds.prolongation_order
    diag = f"no power up to {bounds.power_bound} found"
    last = None
    e = 1
    while e <= bounds.power_bound:
        if e * deg > top:
            tried = f"no power up to {e - 1} found" if e > 1 else "no power tried"
            diag = f"{tried}: the degree bound {top} stops the search at f^{e} (degree {e * deg})"
            break
        if search.graded > MAX_CANDIDATES:
            diag = (
                f"no power up to {e - 1} found: the candidate cap {MAX_CANDIDATES} stops the search "
                f"at f^{e} ({search.graded} graded candidates before it)"
            )
            break
        w = search.answer(e)
        if w.is_member():
            return w
        last = w.diagnostic
        if search.weights is None and search.stages.get((e * deg, 0)) is False:
            # skip to the last power the bounds allow; its walk would skip the
            # stages (dd, 0..pp) for every dd from its degree to the top
            e = min(bounds.power_bound, top // deg) if deg else bounds.power_bound
            last = _exhausted((top - e * deg + 1) * (pp + 1))
        e += 1
    if last is not None:
        diag += f" (last: {last})"
    return search._inconclusive(diag)
