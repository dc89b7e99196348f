"""Characteristic-set components, bounded splitting, and the dimension check.

A component packages an autoreduced sequence A with the inequations
(separants, initials, side conditions) that present the saturated ideal
sat(A).  Membership in the saturated ideal is decided by Ritt reduction:
zero remainder.  The splitting decomposition explores a tree of equation
sets, branching on vanishing/nonvanishing of initials and separants and on
the factors visible in monomial equations, and emits a component whenever a
node's basic set reduces every other equation in the node to zero.  A
system whose equations fall into independent blocks (no variable shared
between blocks) is decomposed one block at a time, and its components are
the products of the blocks' components, as the tree over the whole system
gives them wherever it completes; the work budget bounds each block's tree.
Budget exhaustion is reported honestly through a completeness flag, never
hidden.

The end-to-end check compares each finite-dimensional component's dimension
(the assignment maximum over the orders of its characteristic sequence)
against the same maximum for the input system.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Optional, Sequence

from .diffpoly import DiffPoly
from .jacobi import Convention, JacobiResult, jacobi_assign, order_matrix, order_text
from .ranking import Ranking, analyze, is_reduced
from . import reduction
from .reduction import PreparedSeq, StepLimitExceeded, TermLimitExceeded, Verdict, ritt_reduce_seq


_by_rank = attrgetter("rank_key")  # the sort key of a scan in ascending rank


class VanishingInequationError(ValueError):
    """A component's inequation reduces to zero modulo its sequence."""


@dataclass(frozen=True)
class CharSetComponent:
    """An autoreduced sequence plus its saturation inequations.

    Invariants enforced at construction: the sequence is autoreduced under
    the ranking (hence leading variables are pairwise distinct), and every
    inequation has nonzero Ritt remainder modulo the sequence.  No
    component is certified prime: nothing here tests primality, and a
    component file may not declare it (``prime: yes`` is refused).

    The sequence may be given in any order, and as a PreparedSeq, whose
    construction was the autoreducedness check; either way the component
    keeps one PreparedSeq in ascending rank order, and every membership test
    reduces against it.
    """

    ranking: Ranking
    sequence: tuple  # tuple[DiffPoly, ...], ascending rank
    inequations: tuple = ()
    prepared: PreparedSeq = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        prep = self.sequence
        if not isinstance(prep, PreparedSeq):
            if not prep:
                raise ValueError("component needs a nonempty sequence")
            prep = PreparedSeq(prep, self.ranking)
        elif prep.ranking != self.ranking:
            raise ValueError("component sequence was prepared under another ranking")
        ascending = tuple(sorted(prep.ranked, key=_by_rank))
        if ascending != prep.ranked:
            prep = PreparedSeq(ascending, self.ranking)
        object.__setattr__(self, "sequence", prep.sequence)
        object.__setattr__(self, "prepared", prep)
        ctx = self.sequence[0].context
        for p in self.sequence + self.inequations:
            if p.context != ctx:
                raise ValueError("mixed ring contexts in component")
        for q in self.inequations:
            if self.membership(q).member:
                raise VanishingInequationError(
                    f"inequation {q.to_text()} reduces to zero modulo the sequence"
                )

    @property
    def context(self):
        return self.sequence[0].context

    @property
    def finite_dimensional(self) -> bool:
        return len(self.sequence) == self.context.n

    def membership(self, f: DiffPoly) -> Verdict:
        """Zero remainder modulo the sequence; always heuristic, since no
        component is proven prime.  The one place a component reduces: the
        verdict carries the certificate it was read from."""
        cert = ritt_reduce_seq(f, self.prepared)
        return Verdict(member=cert.remainder.is_zero(), heuristic=True, certificate=cert)

    def to_text(self) -> str:
        seq = "; ".join(p.to_text() for p in self.sequence)
        ineq = "; ".join(q.to_text() for q in self.inequations) or "(none)"
        return f"charset: {seq}\nineqs: {ineq}\nprime: no"

    def __repr__(self) -> str:
        return f"CharSetComponent([{'; '.join(p.to_text() for p in self.sequence)}])"


def component_dimension(c: CharSetComponent) -> Optional[int]:
    """Dimension of a finite-dimensional component: the assignment maximum
    (MaxPlus) over the order matrix of its characteristic sequence.  Returns
    None when the sequence is shorter than the number of variables (the
    differential dimension is then infinite -- there is no number)."""
    if not c.finite_dimensional:
        return None
    m = order_matrix(list(c.sequence), Convention.MAX_PLUS)
    value = jacobi_assign(m).value
    assert isinstance(value, int)
    return value


# The most distinct components a splitting tree keeps; past it, as past the
# tree's caps in reduction, it clears its completeness flag instead of raising.
MAX_COMPONENTS = 64


@dataclass(frozen=True)
class DecompositionResult:
    components: tuple  # tuple[CharSetComponent, ...], canonically sorted
    complete: bool
    out_of_work: bool = False  # a splitting tree spent its MAX_WORK budget


def _rank_sorted(rps) -> list:
    """RankedPolys in ascending rank, text as the final tie-break: sorted by
    rank key, and only a run of equal rank keys sorted by text, so only
    polynomials that tie are rendered."""
    out = []
    for _, tied in itertools.groupby(sorted(rps, key=_by_rank), _by_rank):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda rp: rp.poly.to_text())
        out += tied
    return out


def _basic_set(node: Sequence[DiffPoly], rank) -> tuple:
    """Greedy minimal autoreduced subset, and the rest of the node: scan by
    ascending rank (text as the final tie-break, read only for equal rank
    keys) and keep whatever stays reduced against everything already kept.
    This realizes the minimal-sequence choice: any competing autoreduced
    subset compares greater or equal.  Returns (the kept RankedPolys, the
    other equations), both in scan order.  rank(p) gives p's RankedPoly."""
    chosen, rest = [], []
    for rp in _rank_sorted(rank(p) for p in node):
        if all(is_reduced(rp.poly, c) for c in chosen):
            chosen.append(rp)
        else:
            rest.append(rp.poly)
    return chosen, rest


def _sep_init_conditions(chosen) -> list:
    """Distinct monic nonconstant separants and initials of a basic set, in
    canonical text order.  A splitting tree runs this once per basic set,
    when a node first emits it, and keeps the list with the basic set."""
    seen = {}
    for rp in chosen:
        for h in (rp.separant, rp.initial):
            if h.is_constant():
                continue
            hn = h.monic()
            seen[hn.to_text()] = hn
    return [seen[k] for k in sorted(seen)]


# The fork shapes of _fork's two rules, by the rule that splits on them.
_MONOMIAL_RULE, _POWER_RULE = "monomial", "power"


def _fork_shape(p: DiffPoly, rank) -> Optional[str]:
    """The rule of _fork that can split on p, or None: _MONOMIAL_RULE for a
    single monomial that is not a bare jet variable (a constant is the dead
    check's), _POWER_RULE for an equation of two or more terms, each of the
    leader's degree in the leader.  rank(p) gives p's RankedPoly."""
    if p.term_count() == 1:
        fs = p.leading_monomial().factors
        if not fs or (len(fs) == 1 and fs[0][1] == 1):
            return None  # constant, or already a bare variable
        return _MONOMIAL_RULE
    if p.is_constant():
        return None
    rp = rank(p)
    if all(m.degree_in(rp.leader) == rp.degree for m in p.monomials()):
        return _POWER_RULE
    return None


def _fork(node: frozenset, shape, rank) -> Optional[list]:
    """The children of a node split on one equation, or None.  The monomial
    rule goes first, then the power rule; each takes, among the node's
    equations of its shape (shape(p) gives _fork_shape's answer), the first
    in text order, and renders text only when two or more have that shape.
    The monomial rule takes a single-monomial equation that is not already
    a bare jet variable: its zero set is the union over its variables.  The
    power rule takes an equation of the shape (initial) * leader^d with no
    tail: one child for the leader, one for the initial.  That initial is
    never constant: single terms go to the monomial rule, so the equation
    has two or more terms, each of degree d in the leader, and its initial
    has as many.  rank(p) gives p's RankedPoly."""
    ctx = next(iter(node)).context
    shapes = [(shape(p), p) for p in node]
    for rule in (_MONOMIAL_RULE, _POWER_RULE):
        candidates = [p for s, p in shapes if s is rule]
        if not candidates:
            continue
        p = candidates[0] if len(candidates) == 1 else min(candidates, key=DiffPoly.to_text)
        rest = node - {p}
        if rule is _MONOMIAL_RULE:
            jets = p.leading_monomial().factors
            return [frozenset(rest | {DiffPoly.var(ctx, v.var, v.order)}) for v, _ in jets]
        rp = rank(p)
        leader = DiffPoly.var(ctx, rp.leader.var, rp.leader.order)
        return [frozenset(rest | {leader}), frozenset(rest | {rp.initial.monic()})]
    return None


def split_decompose(us: Sequence[DiffPoly], ranking: Ranking) -> DecompositionResult:
    """Bounded splitting decomposition, one independent block at a time.

    The splitting tree (_split_tree) runs on each block of _blocks on its
    own, under the same ranking, and a system with one block returns its
    tree's result.  With several blocks, the components are the choices of
    one component per block, joined: the union of the blocks' basic sets,
    with the text-sorted union of their separants and initials as
    inequations, canonically sorted like the tree's own output.

    Where the tree over the whole system is complete, the product is what it
    gives.  Its nodes are unions of one node per block, and it never mixes
    blocks: a fork changes one block's part; the greedy basic set of a union
    is the union of the blocks' basic sets, since polynomials in disjoint
    variables are always reduced with respect to each other; and a division
    uses only divisors from the dividend's own block, so it takes the same
    steps as in the block's tree.  A node of the whole tree emits when every
    block's part would emit, so its components are the joins of the blocks'
    components, and a joined inequation vanishes exactly when it vanishes in
    its own block.  A joined component's construction re-checks every
    inequation, and jbc_check re-verifies each one against all the inputs.

    The caps apply to the blocks, not to the whole tree: each block's tree
    has its own MAX_WORK budget, and combinations are joined in
    itertools.product order, the first MAX_COMPONENTS of them kept.  The
    result is complete exactly when every block run is complete and there
    are at most MAX_COMPONENTS combinations, or when a block's run is
    complete with no components (no zeros): then no later block runs.
    Nothing is kept across calls: each tree's tables die with it.
    """
    if not us:
        raise ValueError("empty system")
    ctx = us[0].context
    for u in us:
        if u.context != ctx:
            raise ValueError("mixed ring contexts")
        if u.is_zero():
            raise ValueError("zero polynomial in the input system")
    if len(ranking.priority) != ctx.n:
        raise ValueError("ranking does not match the context")

    if any(u.is_constant() for u in us):
        # a nonzero constant equation has no solutions at all
        return DecompositionResult(components=(), complete=True)
    runs = []
    for block in _blocks(frozenset(u.monic() for u in us)):
        dec = _split_tree(block, ranking)
        if dec.complete and not dec.components:
            return dec
        runs.append(dec)
    if len(runs) == 1:
        return runs[0]
    combos = list(
        itertools.islice(itertools.product(*(dec.components for dec in runs)), MAX_COMPONENTS + 1)
    )
    joined = []
    for combo in combos[:MAX_COMPONENTS]:
        chosen = _rank_sorted(rp for c in combo for rp in c.prepared.ranked)
        prep = PreparedSeq(chosen, ranking)
        joined.append(CharSetComponent(ranking, prep, tuple(_sep_init_conditions(chosen))))
    complete = all(dec.complete for dec in runs) and len(combos) <= MAX_COMPONENTS
    return DecompositionResult(_canonical_order(joined), complete, any(dec.out_of_work for dec in runs))


def _blocks(node: frozenset) -> list:
    """The independent blocks of a set of nonconstant equations: the
    connected components of the graph that joins two equations when some
    variable occurs in both, at any order, ordered by their lowest
    variable index."""
    blocks: list = []  # [(variable indices, equations)]
    for p in node:
        vs = {v.var for v in p.degrees()}
        eqs = [p]
        apart = []
        for bvs, beqs in blocks:
            if bvs & vs:
                vs |= bvs
                eqs += beqs
            else:
                apart.append((bvs, beqs))
        blocks = apart + [(vs, eqs)]
    blocks.sort(key=lambda b: min(b[0]))
    return [frozenset(eqs) for _, eqs in blocks]


def _canonical_order(components) -> tuple:
    return tuple(
        sorted(
            components,
            key=lambda c: (
                len(c.sequence),
                tuple(p.to_text() for p in c.sequence),
                tuple(q.to_text() for q in c.inequations),
            ),
        )
    )


def _split_tree(start: frozenset, ranking: Ranking) -> DecompositionResult:
    """The splitting tree over a set of monic, nonconstant equations.

    Breadth-first over nodes (finite sets of monic equations).  Each node is
    killed (a nonzero constant appeared), forked (monomial or tail-free
    power shape), tightened (an equation has a nonzero remainder modulo the
    node's basic set; the remainder, in the ideal by its certificate, joins
    the node), or emitted (everything reduces to zero: the basic set becomes
    a component whose inequations are its separants and initials, and one
    vanishing branch is queued per inequation).  A node forks on the first
    candidate in text order, and scans for its basic set and divides by
    ascending rank, text breaking ties; text is rendered only where two
    candidates or two rank keys tie, and the node's work does not follow
    set order.  Per run, each polynomial is analyzed once and its fork
    shape found once, and each distinct basic set is prepared once, divides
    each equation at most once, and lists its separants and initials and
    builds its component once, when a node first emits it.  Emitted
    components are not re-checked: jbc_check re-verifies
    each against the inputs.  The run keeps one Work meter: it charges one
    unit per node taken from the queue, and its node divisions charge their
    term pairs to it (a component's inequation checks are divisions with
    meters of their own); past MAX_WORK it stops, out of work.  A division
    stopped by a size cap or DEFAULT_ORDER_CAP (what it charged stays
    charged; nothing is kept for it), or a new remainder, made monic, past
    the reducer's coefficient rule drops its node and clears the
    completeness flag, as do a spent budget and a full MAX_COMPONENTS.
    """
    analyzed: dict = {}
    shapes: dict = {}  # polynomial -> its _fork_shape

    def rank(p: DiffPoly):
        if p not in analyzed:
            analyzed[p] = analyze(p, ranking)
        return analyzed[p]

    def shape(p: DiffPoly):
        if p not in shapes:
            shapes[p] = _fork_shape(p, rank)
        return shapes[p]

    # basic set -> [its PreparedSeq, {equation: monic remainder modulo it},
    # its separants and initials, or None until a node first emits it], so
    # each equation is divided by each basic set at most once per run; a
    # remainder that joins a node is the same object as the one kept here
    reduced: dict = {}

    queue = [start]
    seen: set = set()  # nodes already taken from the queue
    found: dict[tuple, CharSetComponent] = {}  # basic set -> its component
    work = reduction.Work()  # nodes taken and node division pairs
    complete, out_of_work = True, False

    while queue:
        node = queue.pop(0)
        if node in seen:
            continue
        seen.add(node)
        if work.charge(1) is not None:
            complete, out_of_work = False, True
            break

        if any(p.is_constant() for p in node):
            continue  # nonzero constant in the ideal: no solutions here

        children = _fork(node, shape, rank)
        if children is not None:
            queue.extend(children)
            continue

        chosen, others = _basic_set(node, rank)
        basis = tuple(rp.poly for rp in chosen)
        entry = reduced.get(basis)
        if entry is None:
            entry = reduced[basis] = [PreparedSeq(chosen, ranking), {}, None]
        prep, known, conditions = entry
        try:
            for p in others:
                if p not in known:
                    known[p] = ritt_reduce_seq(p, prep, work).remainder.monic()
        except TermLimitExceeded:
            complete = False
            continue
        except StepLimitExceeded:
            complete, out_of_work = False, True
            break
        remainders = [known[p] for p in others]
        new = {r for r in remainders if not r.is_zero()} - node
        if any(reduction._coefficient_defect(c for _, c in r.items()) for r in new):
            complete = False
            continue
        if any(not r.is_zero() for r in remainders):
            if new:
                queue.append(frozenset(node | new))
            # else: remainders only reproduce existing equations; the node
            # cannot stabilize and its solutions are not accounted for
            else:
                complete = False
            continue

        if conditions is None:  # a basic set met again gives the same component
            conditions = entry[2] = _sep_init_conditions(chosen)
            try:
                # building the component checks that every condition stays
                # nonzero modulo the basic set
                comp = CharSetComponent(ranking, prep, tuple(conditions))
            except VanishingInequationError:
                comp = None
            except StepLimitExceeded:
                comp, complete = None, False
            if comp is not None:
                if len(found) >= MAX_COMPONENTS:
                    complete = False
                    break
                found[basis] = comp
        # a condition that reduces to zero makes the nonvanishing locus
        # empty: no main component, but the vanishing branches still cover
        for h in conditions:
            if h not in node:
                queue.append(frozenset(node | {h}))

    return DecompositionResult(_canonical_order(found.values()), complete, out_of_work)


class JbcVerdict(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ComponentRecord:
    """Everything the report needs about one component."""

    component: CharSetComponent
    dimension: Optional[int]  # None = infinite
    memberships: tuple  # tuple[Verdict, ...], one per input equation
    # all inputs reduce to zero; that no inequation does was checked when
    # the (frozen) component was built, in CharSetComponent.__post_init__
    verified: bool
    dim_le_jacobi: Optional[bool]
    equality: Optional[bool]  # dimension == weak Jacobi value


@dataclass(frozen=True)
class JbcReport:
    """Outcome of the dimension-bound check for one system."""

    names: tuple
    field_tag: str
    weak: JacobiResult
    strong: JacobiResult
    records: tuple  # tuple[ComponentRecord, ...]
    complete: bool
    verdict: JbcVerdict
    heuristic: bool

    def to_text(self) -> str:
        out = []
        out.append(
            f"system: {len(self.names)} equations over {', '.join(self.names)}  "
            f"[field {self.field_tag}]"
        )
        out.append(_jacobi_line("jacobi weak (maxplus)", self.weak))
        out.append(_jacobi_line("jacobi strong (minusinf)", self.strong))
        out.append(
            f"decomposition: {len(self.records)} component(s) "
            f"({'complete' if self.complete else 'INCOMPLETE'})"
        )
        cert_lines = []
        cert_id = 0
        for k, rec in enumerate(self.records, start=1):
            c = rec.component
            out.append(f"component {k}:")
            out.extend("  " + line for line in c.to_text().splitlines())
            out.append(
                "  dimension: "
                + ("infinite" if rec.dimension is None else str(rec.dimension))
            )
            mems = []
            for i, v in enumerate(rec.memberships, start=1):
                cert = v.certificate
                cert_id += 1
                tag = "member" if v.member else "NOT member"
                if v.heuristic:
                    tag += " (heuristic)"
                mems.append(f"eq{i} -> {tag} [cert-{cert_id}]")
                cert_lines.append(
                    f"  cert-{cert_id}: multiplier = {cert.multiplier.to_text()}; "
                    f"remainder = {cert.remainder.to_text()}"
                )
            out.append("  membership: " + "; ".join(mems))
            if rec.dimension is None:
                out.append("  dim <= J: not applicable (infinite dimension)")
            else:
                line = f"  dim <= J: {'yes' if rec.dim_le_jacobi else 'NO'}"
                if rec.equality:
                    line += " (equality)"
                out.append(line)
        out.append(f"verdict: {self.verdict.value}" + (" (heuristic)" if self.heuristic else ""))
        if cert_lines:
            out.append("certificates:")
            out.extend(cert_lines)
        return "\n".join(out)

    def to_json(self) -> str:
        strong = self.strong.value
        data = {
            "system": {
                "variables": list(self.names),
                "field": self.field_tag,
                "jacobi_weak": self.weak.value,
                "jacobi_weak_witness": list(self.weak.witness) if self.weak.witness else None,
                "jacobi_strong": order_text(strong) if strong is None else strong,
                "jacobi_strong_witness": list(self.strong.witness)
                if self.strong.witness
                else None,
            },
            "complete": self.complete,
            "components": [
                {
                    "charset": [p.to_text() for p in rec.component.sequence],
                    "ineqs": [q.to_text() for q in rec.component.inequations],
                    "prime": False,
                    "dimension": "infinite" if rec.dimension is None else rec.dimension,
                    "memberships": [
                        {"member": v.member, "heuristic": v.heuristic}
                        for v in rec.memberships
                    ],
                    "verified": rec.verified,
                    "dim_le_jacobi": rec.dim_le_jacobi,
                    "equality": rec.equality,
                }
                for rec in self.records
            ],
            "verdict": self.verdict.value,
            "heuristic": self.heuristic,
        }
        return json.dumps(data, indent=2, sort_keys=True)


def _jacobi_line(label: str, r: JacobiResult) -> str:
    tail = "(no admissible assignment)" if r.witness is None else f"witness sigma = {r.witness}"
    return f"{label}: {order_text(r.value)}  {tail}"


def jbc_check(
    us: Sequence[DiffPoly],
    ranking: Ranking,
    components: Optional[Sequence[CharSetComponent]] = None,
) -> JbcReport:
    """Check that every finite-dimensional component of the system's zero
    set has dimension at most the system's assignment maximum (MaxPlus).

    Components come from split_decompose unless an externally computed
    decomposition is supplied.  Nothing shows that supplied components cover
    the zero set, so they count as incomplete: each is still re-verified
    against the inputs, and the verdict can be FAILS but never HOLDS.  The
    overall verdict is the conjunction over finite-dimensional components;
    an unverified component or an incomplete decomposition downgrades a
    passing verdict to INCONCLUSIVE.
    """
    # order_matrix refuses an empty or non-square system
    weak = jacobi_assign(order_matrix(us, Convention.MAX_PLUS))
    ctx = us[0].context
    strong = jacobi_assign(order_matrix(us, Convention.MINUS_INFINITY))
    assert isinstance(weak.value, int)

    if components is None:
        dec = split_decompose(us, ranking)
        comps, complete = dec.components, dec.complete
    else:
        comps, complete = tuple(components), False

    records = []
    for c in comps:
        mems = tuple(c.membership(u) for u in us)
        verified = all(v.member for v in mems)
        dim = component_dimension(c)
        dim_le = None if dim is None else dim <= weak.value
        eq = None if dim is None else dim == weak.value
        records.append(
            ComponentRecord(
                component=c,
                dimension=dim,
                memberships=mems,
                verified=verified,
                dim_le_jacobi=dim_le,
                equality=eq,
            )
        )

    failed = any(
        rec.verified and rec.dimension is not None and not rec.dim_le_jacobi
        for rec in records
    )
    unverified = any(not rec.verified for rec in records)
    if failed:
        verdict = JbcVerdict.FAILS
    elif not complete or unverified:
        verdict = JbcVerdict.INCONCLUSIVE
    else:
        verdict = JbcVerdict.HOLDS
    heuristic = any(v.heuristic for rec in records for v in rec.memberships)

    return JbcReport(
        names=ctx.names,
        field_tag=ctx.field.value,
        weak=weak,
        strong=strong,
        records=tuple(records),
        complete=complete,
        verdict=verdict,
        heuristic=heuristic,
    )
