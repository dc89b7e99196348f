"""Seeded query generators, one per workload.

A generator turns a seed into system files (name -> text) and a list of
queries.  A query is one ``diffalg`` command line over those files plus the
answer it must give.  Every expected answer follows from how the query was
built -- planted ideal members, known common zeros, planted assignment
optima, brute force over permutations -- and is computed with ``jetpoly``
and plain Python, never with ``diffalg``.

Each generator draws from two streams.  The *shape* stream is the same for
every seed and fixes everything the amount of work depends on: which
monomials and jets appear, derivative orders, system sizes, truncation
bounds, and the size of every number.  The *sign* stream comes from the
seed and picks the sign of every coefficient and point coordinate.  The
cost of exact rational arithmetic follows the size of the numbers, so
every seed asks the same amount of work of other systems, and runs with
different seeds are comparable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from jetpoly import JetPoly

# Truncation bounds (jets, prolongation, degree, power) of the cusp queries;
# the first power that works is 3 at all of them.
CUSP_BOUNDS = ((1, 2, 4, 3),) * 10 + ((2, 3, 4, 4), (2, 3, 5, 3), (2, 4, 6, 4))
STAGED_SYSTEMS = 18
GRADED_SYSTEMS = 12

PAIR_ORDERS = (1, 2, 3, 4)
DOUBLE_PAIRS = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3))
MONIC_SIZES = tuple(range(2, 13))
# The random slice of the decompose workload comes from a stream of its own
# that no seed changes: its draws include systems whose expression swell
# runs into the per-query limit, and every run meets the same ones.  The
# first RANDOM_SLICE draws are used as drawn, whatever they do.
RANDOM_SLICE_STREAM = 0
RANDOM_SLICE = 6

CERTIFY_QUERIES = 102

# Four systems of each small size and one of each large size.  Eight more
# systems of size 32 get only the jacobi query: the assignment solve makes
# up the tail of the latencies, and p90 falls among queries of like cost,
# so that it does not hang on the noise of a single one.
ORDER_SIZES = tuple(range(2, 9)) * 4 + tuple(range(12, 41, 4))
JACOBI_ONLY_SIZES = (32,) * 8
BRUTE_MAX_N = 8
# Share of the entries off the planted optimum that are nonzero when n is
# above BRUTE_MAX_N; the others are left out of the equations.
LARGE_DENSITY = 0.3


@dataclass(frozen=True)
class Query:
    """One command line.  ``args`` names system files by their file name;
    ``expect`` is a tuple whose first item selects the check in
    ``verdicts``."""

    qid: str
    args: tuple
    expect: tuple


@dataclass(frozen=True)
class Workload:
    files: dict  # file name -> text
    queries: tuple  # of Query


class Draws:
    """The two random streams of one generator run."""

    def __init__(self, workload: str, seed: int):
        self.shape = random.Random(f"{workload}:shape")
        self.sign = random.Random(f"{workload}:{seed}")

    def signed(self, magnitude):
        return magnitude * self.sign.choice((-1, 1))

    def rat(self, num: int = 9, den: int = 4) -> Fraction:
        """A nonzero rational with bounded numerator and denominator."""
        return self.signed(Fraction(self.shape.randint(1, num), self.shape.randint(1, den)))

    def signed_int(self, top: int) -> int:
        """An integer in [-top, top]."""
        return self.signed(self.shape.randint(0, top))

    def mono(self, jets, deg: int) -> JetPoly:
        m = JetPoly.const(1)
        for _ in range(deg):
            m = m * JetPoly.jet(*self.shape.choice(jets))
        return m

    def sizes(self, count: int, num: int = 5, den: int = 2) -> list:
        """Magnitudes for `count` coefficients."""
        return [Fraction(self.shape.randint(1, num), self.shape.randint(1, den)) for _ in range(count)]

    def combine(self, monos, sizes=None) -> JetPoly:
        """A combination of the monomials with coefficients of the given
        magnitudes (drawn here if not given) and signs from the seed."""
        sizes = sizes or self.sizes(len(monos))
        p = JetPoly()
        for m, size in zip(monos, sizes):
            p = p + m * JetPoly.const(self.signed(size))
        return p

    def tpoly(self, deg: int) -> JetPoly:
        """A field element of Q(t): a polynomial in t of exact degree deg."""
        cs = [Fraction(self.signed_int(4), self.shape.randint(1, 3)) for _ in range(deg)]
        return JetPoly.t_poly(cs + [self.rat(4, 3)])


def system_text(field: str, names, ranking: str, eqs, points=()) -> str:
    lines = [f"field: {field}", f"vars: {', '.join(names)}", f"ranking: {ranking}"]
    lines += [f"eq {name} = {p.text(names)}" for name, p in eqs]
    for name, values in points:
        vals = ", ".join(f"{nm} = {v}" for nm, v in zip(names, values))
        lines.append(f"point {name}: {vals}")
    return "\n".join(lines) + "\n"


def _jet(v: int, o: int = 0) -> JetPoly:
    return JetPoly.jet(v, o)


def _const(c) -> JetPoly:
    return JetPoly.const(c)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

XY = ("x", "y")
XY_JETS = tuple((v, o) for v in range(2) for o in range(2))

# Planted members: summands (generator, prolongation k, multiplier degree).
MEMBER_SHAPES = (
    ((0, 0, 1),),
    ((1, 1, 0),),
    ((0, 1, 1), (1, 0, 0)),
    ((0, 0, 0), (1, 1, 1)),
)
NONMEMBER_BOUNDS = ((1, 2, 3, 1), (1, 3, 3, 1), (2, 2, 3, 1), (1, 1, 4, 1))


def _vanishing_gen(d: Draws, degrees, point) -> JetPoly:
    """h - h(point) for h with terms of the given degrees: zero at the
    constant point, so every element of the ideal vanishes there."""
    monos = [d.mono(XY_JETS, deg) for deg in degrees]
    sizes = d.sizes(len(monos))
    while True:
        h = d.combine(monos, sizes)
        h = h - _const(h.eval_constant_point(point))
        if h.total_degree() == max(degrees) and len(h.terms) >= 2:
            return h


def _graded_gen(d: Draws, deg: int, weight: int, size: int) -> JetPoly:
    """A generator whose monomials all have one (degree, weight)."""
    jets = tuple((v, o) for v in range(2) for o in range(3))
    pool = sorted(
        {
            tuple(sorted(c))
            for c in itertools.combinations_with_replacement(jets, deg)
            if sum(o for _, o in c) == weight
        }
    )
    monos = []
    for combo in d.shape.sample(pool, size):
        m = _const(1)
        for v, o in combo:
            m = m * _jet(v, o)
        monos.append(m)
    return d.combine(monos)


def _planted_member(d: Draws, gens, shape) -> tuple:
    """f = sum of c * m * d^k(g_i) and the smallest bounds that contain it."""
    parts = [(d.mono(XY_JETS, mdeg) * gens[i].derive(k)) for i, k, mdeg in shape]
    sizes = d.sizes(len(parts), 5, 3)
    while True:
        f = d.combine(parts, sizes)
        if not f.is_zero():
            degree = max(p.total_degree() for p in parts)
            return f, (max(1, f.max_order()), max(k for _, k, _ in shape), degree, 1)


def _nonmember(d: Draws, point) -> JetPoly:
    """f with terms of degrees 2, 1, 0 that does not vanish at the point."""
    monos = [d.mono(XY_JETS, deg) for deg in (2, 1, 0)]
    sizes = d.sizes(len(monos))
    while True:
        f = d.combine(monos, sizes)
        if f.eval_constant_point(point):
            return f


def membership(seed: int) -> Workload:
    d = Draws("membership", seed)
    files: dict = {}
    queries: list = []

    def add(qid: str, gens, command: str, f: JetPoly, bounds, expect) -> None:
        fname = f"{qid.split('-')[0]}.sys"
        if fname not in files:
            eqs = [(f"g{i + 1}", g) for i, g in enumerate(gens)]
            files[fname] = system_text("Q", XY, "elim x > y", eqs)
        flag = ",".join(str(b) for b in bounds)
        queries.append(Query(qid, (command, fname, "--bounds", flag, "--", f.text(XY)), expect))

    # The cusp y^2 - c*x^3, x': the first power of s*y' in the ideal is 3.
    for i, b in enumerate(CUSP_BOUNDS):
        cusp = (_jet(1) ** 2 - _jet(0) ** 3 * _const(d.rat()), _jet(0, 1))
        add(f"cusp{i}-radical", cusp, "radical-member", _jet(1, 1) * _const(d.rat()), b, ("member", 3))

    # Non-homogeneous generators vanishing at a known point: the staged
    # search.  Planted members, then non-members that do not vanish there.
    for i in range(STAGED_SYSTEMS):
        point = (Fraction(d.signed_int(3)), Fraction(d.signed_int(3)))
        gens = [_vanishing_gen(d, (2, 1), point), _vanishing_gen(d, (2, 1, 1), point)]
        for j in range(2):
            f, b = _planted_member(d, gens, MEMBER_SHAPES[(2 * i + j) % len(MEMBER_SHAPES)])
            add(f"staged{i}-member{j}", gens, "member", f, b, ("member", 1))
        f = _nonmember(d, point)
        add(f"staged{i}-nonmember", gens, "member", f, NONMEMBER_BOUNDS[i % 4], ("inconclusive",))
        if i % 3 == 0:
            add(f"staged{i}-radical", gens, "radical-member", f, (1, 1, 4, 2), ("inconclusive",))

    # Bigrade-homogeneous generators: the blockwise search.  The first has
    # weight 0 and vanishes at (p, q); the second has weight 1 and vanishes
    # at every constant point.
    for i in range(GRADED_SYSTEMS):
        p, q = d.shape.randint(1, 4), d.signed(d.shape.randint(1, 4))
        r = _const(Fraction(p, q))
        x, y = _jet(0), _jet(1)
        g1 = x * x - r * r * y * y + (x * y - r * y * y) * _const(d.rat(3, 1))
        gens = [g1, _graded_gen(d, 2, 1, 3)]
        for j in range(2):
            f, b = _planted_member(d, gens, MEMBER_SHAPES[(2 * i + j) % len(MEMBER_SHAPES)])
            add(f"graded{i}-member{j}", gens, "member", f, b, ("member", 1))
        if i % 2 == 0:
            f = _nonmember(d, (Fraction(p), Fraction(q)))
            add(f"graded{i}-nonmember", gens, "member", f, (1, 2, 3, 1), ("inconclusive",))
    return Workload(files, tuple(queries))


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

JBC_COMMANDS = (("jbc-check",), ("jbc-check", "--json"), ("decompose",))


def _pair(x: int, y: int, k: int, a, b) -> list:
    """x^(k+1) + a*y, x^(k)^2 + b*y, named after the variable pair."""
    return [
        (f"u{x + 1}", _jet(x, k + 1) + _jet(y) * _const(a)),
        (f"u{y + 1}", _jet(x, k) ** 2 + _jet(y) * _const(b)),
    ]


def _random_dense_eq(rng: random.Random) -> JetPoly:
    """Three terms of degree 0..2 in x, y and their first two derivatives,
    with small integer coefficients; redrawn only while constant."""
    jets = tuple((v, o) for v in range(2) for o in range(3))
    while True:
        p = JetPoly()
        for _ in range(3):
            m = _const(rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, 2)):
                m = m * _jet(*rng.choice(jets))
            p = p + m
        if p.total_degree() >= 1:
            return p


def decompose(seed: int) -> Workload:
    d = Draws("decompose", seed)
    files: dict = {}
    queries: list = []

    def add_all(name: str, text: str, expect) -> None:
        files[f"{name}.sys"] = text
        for cmd in JBC_COMMANDS:
            tag = "-".join(c.lstrip("-") for c in cmd)
            queries.append(Query(f"{name}-{tag}", (cmd[0], f"{name}.sys") + cmd[1:], expect))

    # The coupled pair x^(k+1) + a*y, x^(k)^2 + b*y: with z = x^(k) it is
    # z' = (a/b)*z^2, so the components are z = 0 (dimension k) and the
    # generic one (dimension k + 1); the Jacobi number is k + 1.
    for k in PAIR_ORDERS:
        for j in range(3):
            a, b = (1, 1) if j == 0 else (d.rat(), d.rat())
            text = system_text("Q", XY, "elim x > y", _pair(0, 1, k, a, b))
            add_all(f"pair{k}-{j}", text, ("jbc", k + 1, (k, k + 1)))

    # Two such pairs in disjoint variables: the components are the products,
    # of dimensions k1 + k2, k1 + k2 + 1 (twice) and k1 + k2 + 2 = J.
    for k1, k2 in DOUBLE_PAIRS:
        eqs = _pair(0, 1, k1, d.rat(), d.rat()) + _pair(2, 3, k2, d.rat(), d.rat())
        text = system_text("Q", ("x", "y", "z", "w"), "elim x > y > z > w", eqs)
        dims = (k1 + k2, k1 + k2 + 1, k1 + k2 + 1, k1 + k2 + 2)
        add_all(f"double{k1}{k2}", text, ("jbc", k1 + k2 + 2, dims))

    # Characteristic sequences whose dimension meets the Jacobi bound.
    for j in range(3):
        eqs = [
            ("u1", _jet(1, 1) ** 2 + _jet(1) ** 3 * _const(d.rat())),
            ("u2", _jet(1) * _jet(0, 1) * _const(d.rat()) - _jet(1, 1)),
        ]
        add_all(f"charseq{j}", system_text("Q", XY, "elim x > y", eqs), ("jbc-equal", 2))
    for j, (k, m) in enumerate(((1, 1), (2, 1), (1, 2))):
        eqs = [("u1", _jet(1, k)), ("u2", _jet(0, m) + _jet(1) * _const(d.rat()))]
        add_all(f"chain{j}", system_text("Q", XY, "elim x > y", eqs), ("jbc-equal", k + m))

    # Monic linear systems x_i^(r_i) + lower-order tail under an orderly
    # ranking: one component of dimension sum(r_i), which is also J.
    for n in MONIC_SIZES:
        names = tuple(f"x{i + 1}" for i in range(n))
        orders = [d.shape.randint(1, 3) for _ in range(n)]
        low = min(orders)
        eqs = []
        for i in range(n):
            tail = [_jet(d.shape.randrange(n), d.shape.randrange(low)) for _ in range(2)]
            eqs.append((f"u{i + 1}", _jet(i, orders[i]) + d.combine(tail, d.sizes(2, 4, 3))))
        ranking = "orderly " + " > ".join(names)
        add_all(f"monic{n}", system_text("Q", names, ranking, eqs), ("jbc-equal", sum(orders)))

    # The random slice: HOLDS or INCONCLUSIVE are both right, FAILS is not.
    slice_rng = random.Random(f"decompose-random:{RANDOM_SLICE_STREAM}")
    for j in range(RANDOM_SLICE):
        eqs = [("u1", _random_dense_eq(slice_rng)), ("u2", _random_dense_eq(slice_rng))]
        files[f"random{j}.sys"] = system_text("Q", XY, "elim x > y", eqs)
        queries.append(Query(f"random{j}-jbc-check", ("jbc-check", f"random{j}.sys"), ("jbc-random",)))
    return Workload(files, tuple(queries))


# ---------------------------------------------------------------------------
# certify-qt
# ---------------------------------------------------------------------------

XYZ = ("x", "y", "z")
XYZ_JETS = tuple((v, o) for v in range(3) for o in range(3))


def _divisor_shapes(d: Draws, count: int, unit: bool) -> list:
    """An autoreduced sequence, lowest rank first: the divisor of z, then
    of y, then of x.  Besides its leader v^(r), a divisor holds lower
    derivatives of v and jets of lower-ranked divisor variables below their
    leader order.  With ``unit`` the initial and separant are a nonzero
    element of Q(t); otherwise the initial also holds a jet.  Returns
    (leader, initial jet or None, tail monomials) per divisor."""
    orders: dict = {}
    out = []
    for v in (2, 1, 0)[:count]:
        r = d.shape.randint(1, 2)
        lower = [(v, o) for o in range(r)] + [(w, o) for w, rw in orders.items() for o in range(rw)]
        init_jet = None if unit else d.shape.choice(lower)
        out.append((_jet(v, r), init_jet, [d.mono(lower, deg) for deg in (2, 1)]))
        orders[v] = r
    return out


def _divisors(d: Draws, shapes) -> list:
    divs = []
    for lead, init_jet, tail in shapes:
        init = d.tpoly(1) if init_jet is None else d.tpoly(1) + _jet(*init_jet) * d.tpoly(0)
        p = lead * init
        for m in tail:
            p = p + m * d.tpoly(1)
        divs.append(p)
    return divs


def certify_qt(seed: int) -> Workload:
    d = Draws("certify-qt", seed)
    files: dict = {}
    queries: list = []
    for i in range(CERTIFY_QUERIES):
        count = 1 + i % 3
        planted = i % 2 == 0
        shapes = _divisor_shapes(d, count, unit=planted)
        if planted:
            # f = sum of c(t) * m * d^k(A_j): an element of [A], and with
            # unit initials and separants its remainder is 0.
            terms = [(d.mono(XYZ_JETS, 1), j, k) for j, k in ((0, 1), (count - 1, 2))]
        else:
            monos = [d.mono(XYZ_JETS, deg) for deg in (2, 1, 1)]
        f = JetPoly()
        while f.is_zero():
            divs = _divisors(d, shapes)
            if planted:
                for m, j, k in terms:
                    f = f + m * divs[j].derive(k) * d.tpoly(1)
            else:
                for m in monos:
                    f = f + m * d.tpoly(1)
        eqs = [("f", f)] + [(f"a{j + 1}", p) for j, p in enumerate(divs)]
        fname = f"reduce{i}.sys"
        files[fname] = system_text("Q(t)", XYZ, "elim x > y > z", eqs)
        queries.append(Query(f"reduce{i}", ("reduce", fname, "--target", "f"), ("reduce", planted)))
    return Workload(files, tuple(queries))


# ---------------------------------------------------------------------------
# order-bounds
# ---------------------------------------------------------------------------


def brute_jacobi(a) -> tuple:
    """Maximum of sum_j a[sigma[j]][j] over permutations sigma, and the
    lexicographically smallest sigma that reaches it."""
    n = len(a)
    best, arg = None, None
    for sigma in itertools.permutations(range(n)):
        s = sum(a[sigma[j]][j] for j in range(n))
        if best is None or s > best:
            best, arg = s, sigma
    return best, arg


def _order_matrix(rng: random.Random, n: int) -> tuple:
    """Orders a[i][j] with the Jacobi value and witness they imply.  For
    n <= BRUTE_MAX_N they are random and brute force decides; above that,
    entries on a random permutation are at least L and all others at most
    L - 1, which makes that permutation the unique optimum."""
    if n <= BRUTE_MAX_N:
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        value, sigma = brute_jacobi(a)
        return a, value, sigma
    big = 3
    sigma = list(range(n))
    rng.shuffle(sigma)
    a = [[rng.randint(1, big - 1) if rng.random() < LARGE_DENSITY else 0 for _ in range(n)] for _ in range(n)]
    for j in range(n):
        a[sigma[j]][j] = rng.randint(big, big + 1)
    return a, sum(a[sigma[j]][j] for j in range(n)), tuple(sigma)


def order_bounds(seed: int) -> Workload:
    d = Draws("order-bounds", seed)
    files: dict = {}
    queries: list = []
    sizes = [(n, ("order", "jacobi", "linearize")) for n in ORDER_SIZES]
    sizes += [(n, ("jacobi",)) for n in JACOBI_ONLY_SIZES]
    for k, (n, commands) in enumerate(sizes):
        names = tuple(f"x{i + 1}" for i in range(n))
        a, value, sigma = _order_matrix(d.shape, n)
        point = [Fraction(d.signed_int(2)) for _ in range(n)]
        eqs = []
        for i in range(n):
            u = JetPoly()
            for j in range(n):
                if a[i][j] == 0 and (n > BRUTE_MAX_N or d.shape.random() < 0.5):
                    continue  # absent: order 0 under maxplus all the same
                term = _jet(j, a[i][j])
                # a squared jet of order >= 1 drops out when linearized at a
                # constant point
                if d.shape.random() < 0.3:
                    term = term * term
                u = u + term * _const(d.rat(5, 2))
            eqs.append((f"u{i + 1}", u - _const(u.eval_constant_point(point))))
        ritt = sum(max(a[i][j] for i in range(n)) for j in range(n))
        name = f"square{n}-{k}"
        files[f"{name}.sys"] = system_text("Q", names, "elim " + " > ".join(names), eqs, [("p", point)])
        if "order" in commands:
            queries.append(Query(f"{name}-order", ("order", f"{name}.sys"), ("order", tuple(map(tuple, a)))))
        queries.append(Query(f"{name}-jacobi", ("jacobi", f"{name}.sys"), ("jacobi", value, sigma, ritt)))
        if "linearize" in commands:
            queries.append(Query(f"{name}-linearize", ("linearize", f"{name}.sys", "--at", "p"), ("linearize", value)))
    return Workload(files, tuple(queries))


GENERATORS = {
    "membership": membership,
    "decompose": decompose,
    "certify-qt": certify_qt,
    "order-bounds": order_bounds,
}
