#!/usr/bin/env python3
"""Guided tour of the workbench on two small nonlinear systems.

Run from the repository root after an editable install:

    python3 scripts/showcase.py

Everything printed is computed exactly over Q or Q(t); the script is
deterministic and finishes in a couple of seconds.
"""

from __future__ import annotations

from diffalg import (
    ConcretePoint,
    Context,
    Convention,
    PreparedSeq,
    QQ,
    QT,
    Ranking,
    TruncationBounds,
    jacobi_assign,
    jbc_check,
    linearize_at,
    linearized_order_matrix,
    order_matrix,
    parse_poly,
    radical_member,
    ritt_bound,
    ritt_reduce_seq,
    split_decompose,
    truncated_member,
    verify_certificate,
    format_components,
)
from diffalg.jacobi import order_text


def banner(title: str) -> None:
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def main() -> None:
    # ------------------------------------------------------------------
    banner("1. Ritt division with an auditable certificate, over Q(t)")
    ctx_t = Context(("x", "y"), QT)
    rk = Ranking.elimination(2, [0, 1])  # x above y
    f = parse_poly("x' + y'''", ctx_t)
    g = parse_poly("x^2 + y''*x' + t", ctx_t)
    cert = ritt_reduce_seq(f, PreparedSeq([g], rk))
    print(f"dividend   f = {f.to_text()}")
    print(f"divisor    g = {g.to_text()}")
    print(f"multiplier s = {cert.multiplier.to_text()}")
    print(f"quotient   Q = {cert.quotients[0].to_text()}")
    print(f"remainder  r = {cert.remainder.to_text()}")
    ok = verify_certificate(cert, f, (g,), rk)
    print(f"identity s*f = Q(g) + r re-expanded exactly: {'ok' if ok else 'BROKEN'}")

    # ------------------------------------------------------------------
    banner("2. Order matrix and Jacobi number of a coupled pair, over Q")
    ctx = Context(("x", "y"), QQ)
    us = (parse_poly("x'' + y", ctx), parse_poly("x'^2 + y", ctx))
    m = order_matrix(us, Convention.MAX_PLUS)
    print("order matrix (rows = equations, columns = x, y):")
    print(m.to_text())
    res = jacobi_assign(m)
    assign = ", ".join(
        f"{ctx.names[j]} <- eq{res.witness[j] + 1}" for j in range(ctx.n)
    )
    print(f"jacobi number: {res.value}   witness: {assign}")
    print(f"ritt bound (column maxima): {ritt_bound(m)}")

    # ------------------------------------------------------------------
    banner("3. Splitting into components and checking dim <= J")
    dec = split_decompose(us, rk)
    print(format_components(dec.components, ctx), end="")
    print(f"# complete: {'yes' if dec.complete else 'no'}")
    print()
    print(jbc_check(us, rk).to_text())

    # ------------------------------------------------------------------
    banner("4. Linearization at a point on the cusp system")
    cusp = (parse_poly("y^2 - x^3", ctx), parse_poly("x'", ctx))
    origin = ConcretePoint.from_names(ctx, {"x": QQ.zero, "y": QQ.zero})
    tangents = [linearize_at(u, origin) for u in cusp]
    for u, lu in zip(cusp, tangents):
        print(f"L[{u.to_text()}] at the origin = {lu.to_text()}")
    strong = jacobi_assign(linearized_order_matrix(tangents, Convention.MINUS_INFINITY))
    print(f"jacobi number after linearization (minusinf): {order_text(strong.value)}")
    print(f"jacobi number of the original system (maxplus): {jacobi_assign(order_matrix(cusp)).value}")

    # ------------------------------------------------------------------
    banner("5. Membership by truncated linear algebra")
    cx = Context(("x",), QQ)
    f1 = parse_poly("x'^3", cx)
    w1 = truncated_member(f1, (parse_poly("x^2", cx),), TruncationBounds(2, 3, 6, 1))
    print(f"is x'^3 in [x^2]?   {w1.to_text()}")
    f2 = parse_poly("y'", ctx)
    w2 = radical_member(f2, cusp, TruncationBounds())
    print(f"is y' in the radical of [y^2 - x^3, x']?   {w2.to_text()}")


if __name__ == "__main__":
    main()
