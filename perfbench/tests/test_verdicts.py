"""The expected-answer checks, run on real diffalg output for hand-built
queries: planted members, the cusp's power 3, a non-member at a known
common zero, the coupled pair's components, a monic linear system, planted
Jacobi optima and a planted remainder-zero division over Q(t)."""

import contextlib
import io

import pytest

from diffalg import cli
from jetpoly import JetPoly
from verdicts import check
from workloads import brute_jacobi, system_text

XY = ("x", "y")
x, y = JetPoly.jet(0), JetPoly.jet(1)
dx, dy = JetPoly.jet(0, 1), JetPoly.jet(1, 1)


def run(tmp_path, text, *args):
    path = tmp_path / "s.sys"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([args[0], str(path), *args[1:]])
    return code, out.getvalue()


def gens_text(*gens):
    return system_text("Q", XY, "elim x > y", [(f"g{i + 1}", g) for i, g in enumerate(gens)])


def test_cusp_radical_power_is_three(tmp_path):
    sys = gens_text(y * y - x * x * x * JetPoly.const(3), dx)
    code, out = run(tmp_path, sys, "radical-member", "--bounds", "1,2,4,3", "--", "2*y'")
    v = check(("member", 3), code, out)
    assert v.ok and v.decided
    assert check(("member", 2), code, out).wrong


def test_planted_member(tmp_path):
    g = dx - y * y + JetPoly.const(1)
    f = x * g.derive() + g * JetPoly.const(2)
    code, out = run(tmp_path, gens_text(g), "member", "--bounds", "2,1,3,1", "--", f.text(XY))
    assert check(("member", 1), code, out).ok


def test_non_member_at_a_common_zero(tmp_path):
    # both generators vanish at the constant point x = 1, y = 2; f does not
    g1 = x * y - JetPoly.const(2)
    g2 = dx + y - JetPoly.const(2) * x
    f = x + y
    assert f.eval_constant_point((1, 2)) != 0
    code, out = run(tmp_path, gens_text(g1, g2), "member", "--bounds", "1,2,2,1", "--", f.text(XY))
    v = check(("inconclusive",), code, out)
    assert v.ok and not v.decided
    assert check(("member", 1), code, out).wrong


@pytest.mark.parametrize("args", [("jbc-check",), ("jbc-check", "--json"), ("decompose",)])
def test_coupled_pair_has_components_of_dimension_one_and_two(tmp_path, args):
    sys = system_text("Q", XY, "elim x > y", [("u1", JetPoly.jet(0, 2) + y), ("u2", dx * dx + y)])
    code, out = run(tmp_path, sys, *args)
    v = check(("jbc", 2, (1, 2)), code, out)
    assert v.ok and v.decided
    assert check(("jbc", 2, (1, 3)), code, out).wrong


def test_monic_linear_system_meets_the_bound(tmp_path):
    names = ("x1", "x2")
    eqs = [("u1", JetPoly.jet(0, 2) + JetPoly.jet(1)), ("u2", JetPoly.jet(1, 1) + x * JetPoly.const(3))]
    code, out = run(tmp_path, system_text("Q", names, "orderly x1 > x2", eqs), "jbc-check")
    assert check(("jbc-equal", 3), code, out).ok
    assert check(("jbc-equal", 4), code, out).wrong


def test_random_system_verdicts():
    holds = "verdict: HOLDS (heuristic)\n"
    assert check(("jbc-random",), 0, holds).decided
    assert not check(("jbc-random",), 1, "verdict: INCONCLUSIVE\n").decided
    assert check(("jbc-random",), 1, "verdict: FAILS\n").wrong
    domain = check(("jbc-random",), 3, "")
    assert not domain.ok and not domain.wrong


def test_jacobi_and_linearize_against_brute_force(tmp_path):
    a = [[2, 0, 1], [1, 1, 0], [0, 3, 1]]
    value, sigma = brute_jacobi(a)
    names = ("x1", "x2", "x3")
    eqs = [
        (f"u{i + 1}", sum((JetPoly.jet(j, a[i][j]) * JetPoly.const(j + 1) for j in range(3)), JetPoly()))
        for i in range(3)
    ]
    sys = system_text("Q", names, "elim x1 > x2 > x3", eqs, [("p", (0, 0, 0))])
    ritt = sum(max(a[i][j] for i in range(3)) for j in range(3))
    assert check(("jacobi", value, sigma, ritt), *run(tmp_path, sys, "jacobi")).ok
    assert check(("jacobi", value + 1, sigma, ritt), *run(tmp_path, sys, "jacobi")).wrong
    assert check(("order", tuple(map(tuple, a))), *run(tmp_path, sys, "order")).ok
    assert check(("linearize", value), *run(tmp_path, sys, "linearize", "--at", "p")).ok


def test_planted_division_over_qt_has_remainder_zero(tmp_path):
    t1 = JetPoly.t_poly((1, 1))  # 1 + t, a unit of Q(t)
    a1 = JetPoly.jet(1, 1) * t1 + y * y
    f = x * a1.derive(2) + a1 * JetPoly.t_poly((0, 2))
    sys = system_text("Q(t)", XY, "elim x > y", [("f", f), ("a1", a1)])
    code, out = run(tmp_path, sys, "reduce", "--target", "f")
    assert check(("reduce", True), code, out).ok
    other = system_text("Q(t)", XY, "elim x > y", [("f", f + x), ("a1", a1)])
    code, out = run(tmp_path, other, "reduce", "--target", "f")
    assert check(("reduce", False), code, out).ok
    assert check(("reduce", True), code, out).wrong
