"""Command-line front end.

    diffalg order SYSTEM [--convention maxplus|minusinf]
    diffalg jacobi SYSTEM [--convention maxplus|minusinf]
    diffalg reduce SYSTEM --target NAME
    diffalg linearize SYSTEM [--at POINT | --generic FILE] [--convention ...]
    diffalg decompose SYSTEM
    diffalg jbc-check SYSTEM [--components FILE] [--json]
    diffalg member SYSTEM EXPR [--bounds N,P,D,E]
    diffalg radical-member SYSTEM EXPR [--bounds N,P,D,E]

SYSTEM is a system file (see `sysfile`).  Components reach jbc-check only
through --components, a component file such as decompose prints, and then
count as incomplete (never HOLDS); without it jbc-check decomposes the
system itself.  The budgets are fixed: decompose.MAX_COMPONENTS;
reduction.MAX_WORK, for each work meter: the reader's for a file (or EXPR),
charged the term pairs of its polynomial products, powers' among them; each
splitting tree's, charged its nodes and the term pairs of its divisions; and
each other division's, charged the term pairs of its steps and then of every
product that builds or checks its certificate (reduce past it exits 3, and so
does jbc-check's text, which prints each membership's multiplier, where
--json builds none and prints the verdict); and
the size caps reduction.MAX_TERMS, MAX_COEFF_BITS and MAX_T_DEGREE on what a
division step or a reader's product builds.  Output is deterministic: the
same input always produces byte-identical output, and a run that ends in an
error (exit 2 or 3) prints nothing on stdout.

Exit codes:

    0   success (jbc-check HOLDS, membership Member, complete decomposition, ...)
    1   negative or inconclusive verdict
    2   usage, parse, or file-format errors
    3   domain errors (non-square system, point not on the zero set, ...)
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from typing import Optional, Sequence

from .decompose import (
    JbcVerdict,
    component_dimension,
    jbc_check,
    split_decompose,
)
from .diffpoly import OrderCapExceeded
from .jacobi import Convention, jacobi_assign, order_matrix, order_text, ritt_bound
from .linearize import linearize_at, linearize_sym, linearized_order_matrix
from .oracle import TruncationBounds, radical_member, truncated_member
from .reduction import PreparedSeq, StepLimitExceeded, ritt_reduce_seq, verify_certificate
from .sysfile import (
    ParseError,
    SysFileError,
    SystemFile,
    format_components,
    parse_components,
    parse_poly,
    parse_system,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_FORMAT = 2
EXIT_DOMAIN = 3

_DOMAIN_ERRORS = (
    StepLimitExceeded,
    OrderCapExceeded,
    ValueError,  # a missing name, a point off the zero set, a non-square system, ...
)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SysFileError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_system(path: str) -> SystemFile:
    return parse_system(_read_file(path))


def _parse_bounds_flag(text: str) -> TruncationBounds:
    try:
        n, p, d, e = (int(x) for x in text.split(","))  # unpacking checks the count
        return TruncationBounds(n, p, d, e)
    except ValueError:  # TruncationBounds refuses a negative value
        raise SysFileError(
            "--bounds expects four comma-separated nonnegative integers N,P,D,E"
        ) from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_order(args) -> int:
    sf = _load_system(args.system)
    m = order_matrix(list(sf.system), Convention(args.convention))
    print(f"order matrix ({args.convention}):")
    print(m.to_text())
    return EXIT_OK


def _cmd_jacobi(args) -> int:
    sf = _load_system(args.system)
    conv = Convention(args.convention)
    m = order_matrix(list(sf.system), conv)
    r = jacobi_assign(m)
    print(f"order matrix ({args.convention}):")
    print(m.to_text())
    print(f"jacobi number: {order_text(r.value)}")
    if r.witness is None:
        print("witness: (no admissible assignment)")
    else:
        names = sf.context.names
        eq_names = [nm for nm, _ in sf.equations]
        pairs = ", ".join(
            f"{names[j]} <- {eq_names[r.witness[j]]}" for j in range(len(names))
        )
        print(f"witness: {pairs}")
    if conv is Convention.MAX_PLUS:
        print(f"ritt bound: {ritt_bound(m)}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    sf = _load_system(args.system)
    target = sf.equation(args.target)
    divisors = [(nm, p) for nm, p in sf.equations if nm != args.target]
    if not divisors:
        raise SysFileError("reduce needs at least one equation besides the target")
    prep = PreparedSeq([p for _, p in divisors], sf.ranking)
    cert = ritt_reduce_seq(target, prep)
    ok = verify_certificate(cert, target, prep.sequence, sf.ranking)
    print(f"dividend: {args.target} = {target.to_text()}")
    for nm, p in divisors:
        print(f"divisor: {nm} = {p.to_text()}")
    print(f"multiplier: {cert.multiplier.to_text()}")
    factors = ", ".join(f.to_text() for f in cert.factors) or "(none)"
    print(f"factors: {factors}")
    for (nm, _p), q in zip(divisors, cert.quotients):
        print(f"quotient[{nm}]: {q.to_text()}")
    print(f"remainder: {cert.remainder.to_text()}")
    print(f"verified: {'yes' if ok else 'NO'}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_linearize(args) -> int:
    sf = _load_system(args.system)
    conv = Convention(args.convention)
    us = list(sf.system)

    if args.at is None and args.generic is None:
        for nm, u in sf.equations:
            print(f"L[{nm}] = {linearize_sym(u).to_text()}")
        return EXIT_OK

    if args.at is not None:
        pt = sf.point(args.at)
        label = args.at
    else:
        comps = parse_components(_read_file(args.generic), sf.context, sf.ranking)
        if not comps:
            raise SysFileError(f"{args.generic}: no component blocks")
        pt = comps[0]
        label = "generic"

    tangents = []
    for nm, u in sf.equations:
        lp = linearize_at(u, pt)
        tangents.append(lp)
        print(f"L[{nm}, {label}] = {lp.to_text()}")
    if len(us) == sf.context.n:
        m = linearized_order_matrix(tangents, conv)
        print(f"linearized order matrix ({args.convention}):")
        print(m.to_text())
        r = jacobi_assign(m)
        print(f"linearized jacobi number: {order_text(r.value)}")
        orig = jacobi_assign(order_matrix(us, conv))
        print(f"original jacobi number: {order_text(orig.value)}")
    if any(lp.heuristic for lp in tangents):
        print("note: support decided modulo an unverified-prime component")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    sf = _load_system(args.system)
    dec = split_decompose(list(sf.system), sf.ranking)
    if dec.components:
        print(format_components(dec.components, sf.context), end="")
    else:
        print("# no components (empty zero set)" if dec.complete else "# no components found")
    print(f"# complete: {'yes' if dec.complete else 'no'}")
    for k, c in enumerate(dec.components, start=1):
        dim = component_dimension(c)
        print(f"# component {k} dimension: {'infinite' if dim is None else dim}")
    return EXIT_OK if dec.complete else EXIT_NEGATIVE


def _cmd_jbc_check(args) -> int:
    sf = _load_system(args.system)
    components = None
    if args.components:
        components = parse_components(
            _read_file(args.components), sf.context, sf.ranking
        )
        if not components:
            raise SysFileError(f"{args.components}: no component blocks")
    report = jbc_check(list(sf.system), sf.ranking, components=components)
    print(report.to_json() if args.json else report.to_text())
    return EXIT_OK if report.verdict is JbcVerdict.HOLDS else EXIT_NEGATIVE


def _cmd_member(args, radical: bool) -> int:
    sf = _load_system(args.system)
    try:
        f = parse_poly(args.expr, sf.context)
    except ParseError as exc:
        raise SysFileError(f"expression: {exc}") from None
    bounds = TruncationBounds() if args.bounds is None else _parse_bounds_flag(args.bounds)
    gens = list(sf.system)
    w = radical_member(f, gens, bounds) if radical else truncated_member(f, gens, bounds)
    print(w.to_text())
    return EXIT_OK if w.is_member() else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 2 with a single-line message
        self.exit(EXIT_FORMAT, f"{self.prog}: error: {message}\n")


def _add_convention(p: argparse.ArgumentParser):
    p.add_argument(
        "--convention",
        choices=("maxplus", "minusinf"),
        default="maxplus",
        help="order of an absent variable: 0 (maxplus) or -inf (minusinf)",
    )


def _add_oracle_bounds(p: argparse.ArgumentParser):
    p.add_argument(
        "--bounds",
        metavar="N,P,D,E",
        help="truncation bounds: max jet order in the query, max prolongation order "
        "of the generators, max total degree of candidate products, max exponent "
        "for radical membership",
    )


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="diffalg", description=__doc__, add_help=True)
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("order", help="print the order matrix")
    p.add_argument("system")
    _add_convention(p)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("jacobi", help="assignment maximum of the order matrix")
    p.add_argument("system")
    _add_convention(p)
    p.set_defaults(fn=_cmd_jacobi)

    p = sub.add_parser("reduce", help="Ritt-divide one equation by the others")
    p.add_argument("system")
    p.add_argument("--target", required=True, metavar="NAME", help="equation to divide")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("linearize", help="tangent system, symbolically or at a point")
    p.add_argument("system")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--at", metavar="POINT", help="a point named in the system file")
    g.add_argument(
        "--generic",
        metavar="FILE",
        help="component file; use the generic point of its first component block",
    )
    _add_convention(p)
    p.set_defaults(fn=_cmd_linearize)

    p = sub.add_parser("decompose", help="split into characteristic-set components")
    p.add_argument("system")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("jbc-check", help="dimension-vs-assignment-maximum check")
    p.add_argument("system")
    p.add_argument("--components", metavar="FILE", help="externally computed components")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_jbc_check)

    p = sub.add_parser("member", help="truncated ideal membership with certificate")
    p.add_argument("system")
    p.add_argument("expr", metavar="EXPR")
    _add_oracle_bounds(p)
    p.set_defaults(fn=lambda a: _cmd_member(a, radical=False))

    p = sub.add_parser("radical-member", help="membership of some power f^e")
    p.add_argument("system")
    p.add_argument("expr", metavar="EXPR")
    _add_oracle_bounds(p)
    p.set_defaults(fn=lambda a: _cmd_member(a, radical=True))

    return top


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, and
    building it costs about as much as a small query."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand.  Its stdout is held back until it returns, so a
    run that ends in an error prints nothing on stdout."""
    args = _parser().parse_args(argv)
    held = io.StringIO()
    stdout, sys.stdout = sys.stdout, held
    try:
        code = args.fn(args)
    except (ParseError, SysFileError) as exc:
        print(f"diffalg: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except _DOMAIN_ERRORS as exc:
        print(f"diffalg: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        sys.stdout = stdout
    stdout.write(held.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
