"""Checks of one command's exit code and stdout against the known answer.

``check(expect, code, stdout)`` returns a ``Verdict``.  ``ok`` is false when
the query failed: a wrong answer, or no answer at all (an unexpected exit
code).  ``wrong`` marks the first kind only: the program printed an answer
that contradicts the one the generator planted.  ``decided`` marks a
definite answer: Member, HOLDS on a complete decomposition, a verified
certificate, or an order value.

Only the lines that carry the answer are read, so the checks hold for any
output layout that keeps those lines.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

EXIT_OK, EXIT_NEGATIVE = 0, 1


@dataclass(frozen=True)
class Verdict:
    ok: bool
    decided: bool
    wrong: bool = False
    reason: str = ""


PASS = Verdict(True, True)
UNDECIDED = Verdict(True, False)


def _wrong(reason: str) -> Verdict:
    return Verdict(False, False, True, reason)


def _no_answer(code) -> Verdict:
    return Verdict(False, False, False, f"exit code {code}")


def _member(expect, code, out) -> Verdict:
    power = expect[1]
    if code == EXIT_OK and out.startswith(f"Member (e = {power}):"):
        return PASS
    if code in (EXIT_OK, EXIT_NEGATIVE):
        return _wrong(f"expected Member with e = {power}, got {out[:60]!r}")
    return _no_answer(code)


def _inconclusive(expect, code, out) -> Verdict:
    # The generators vanish at a point where f does not: f is no member.
    if code == EXIT_NEGATIVE and out.startswith("Inconclusive ("):
        return UNDECIDED
    if code in (EXIT_OK, EXIT_NEGATIVE):
        return _wrong(f"expected Inconclusive, got {out[:60]!r}")
    return _no_answer(code)


def _jbc_summary(out: str) -> dict:
    """Verdict, completeness, the weak Jacobi number and per-component
    dimensions (None = infinite), from any of the three report formats."""
    if out.lstrip().startswith("{"):
        data = json.loads(out)
        return {
            "verdict": data["verdict"],
            "complete": data["complete"],
            "jacobi": data["system"]["jacobi_weak"],
            "dims": [None if c["dimension"] == "infinite" else c["dimension"] for c in data["components"]],
            "equality": [bool(c["equality"]) for c in data["components"]],
        }
    dims, equality = [], []
    summary = {"verdict": None, "complete": None, "jacobi": None}
    for line in out.splitlines():
        m = re.match(r"\s*(?:# component \d+ )?dimension: (\S+)$", line)
        if m:
            dims.append(None if m.group(1) == "infinite" else int(m.group(1)))
        elif line.startswith("  dim <= J:"):
            equality.append("(equality)" in line)
        elif line.startswith("verdict: "):
            summary["verdict"] = line.split()[1]
        elif line.startswith("# complete: "):
            summary["complete"] = line.endswith("yes")
        elif line.startswith("decomposition: "):
            summary["complete"] = "(complete)" in line
        elif line.startswith("jacobi weak (maxplus): "):
            summary["jacobi"] = int(line.split()[3])
    summary["dims"] = dims
    summary["equality"] = equality
    return summary


def _jbc_known(expect, code, out) -> Verdict:
    """A structured system: complete decomposition, HOLDS, weak Jacobi
    number J, and components as the generator built them.  ``jbc``
    carries the exact finite dimensions; ``jbc-equal`` asks only for a
    component whose dimension equals J."""
    kind, jac = expect[0], expect[1]
    if code not in (EXIT_OK, EXIT_NEGATIVE):
        return _no_answer(code)
    s = _jbc_summary(out)
    finite = sorted(d for d in s["dims"] if d is not None)
    if not s["complete"]:
        return _wrong("decomposition reported incomplete")
    if kind == "jbc":
        if finite != sorted(expect[2]):
            return _wrong(f"dimensions {finite}, expected {sorted(expect[2])}")
    elif jac not in finite:
        return _wrong(f"no component of dimension {jac}: {finite}")
    if "# complete: " in out:  # the decompose command prints no verdict
        return PASS if code == EXIT_OK else _wrong(f"exit {code} on a complete decomposition")
    if s["jacobi"] != jac:
        return _wrong(f"weak Jacobi number {s['jacobi']}, expected {jac}")
    if s["verdict"] != "HOLDS" or code != EXIT_OK:
        return _wrong(f"verdict {s['verdict']}, expected HOLDS")
    if kind == "jbc-equal" and not any(
        eq for d, eq in zip(s["dims"], s["equality"]) if d == jac
    ):
        return _wrong("the component of dimension J is not marked as equality")
    return PASS


def _jbc_random(expect, code, out) -> Verdict:
    """A random square system: FAILS would put a component above the
    Jacobi bound and counts as wrong; HOLDS and INCONCLUSIVE are both
    right, only HOLDS is decided."""
    if code not in (EXIT_OK, EXIT_NEGATIVE):
        return _no_answer(code)
    verdict = _jbc_summary(out)["verdict"]
    if code == EXIT_OK and verdict == "HOLDS":
        return PASS
    if code == EXIT_NEGATIVE and verdict == "INCONCLUSIVE":
        return UNDECIDED
    return _wrong(f"verdict {verdict} with exit {code}")


def _reduce(expect, code, out) -> Verdict:
    planted = expect[1]
    lines = out.splitlines()
    if code not in (EXIT_OK, EXIT_NEGATIVE):
        return _no_answer(code)
    if code != EXIT_OK or "verified: yes" not in lines:
        return _wrong("certificate not verified")
    if planted and "remainder: 0" not in lines:
        return _wrong("nonzero remainder for a planted member of [A]")
    return PASS


def _matrix_rows(lines) -> list:
    return [[int(x) for x in ln.strip("[]").split()] for ln in lines if ln.startswith("[")]


def _line_value(out: str, label: str):
    for line in out.splitlines():
        if line.startswith(label):
            return line[len(label):].strip()
    return None


def _order(expect, code, out) -> Verdict:
    if code != EXIT_OK:
        return _no_answer(code)
    rows = _matrix_rows(out.splitlines())
    if rows != [list(r) for r in expect[1]]:
        return _wrong("order matrix differs from the planted orders")
    return PASS


def _jacobi(expect, code, out) -> Verdict:
    _, value, sigma, ritt = expect
    if code != EXIT_OK:
        return _no_answer(code)
    got = _line_value(out, "jacobi number:")
    if got != str(value):
        return _wrong(f"jacobi number {got}, expected {value}")
    witness = _line_value(out, "witness:")
    pairs = [p.split(" <- ") for p in (witness or "").split(", ")]
    got_sigma = tuple(int(eq[1:]) - 1 for _var, eq in pairs) if witness else None
    if got_sigma != tuple(sigma):
        return _wrong(f"witness {witness}, expected {sigma}")
    if _line_value(out, "ritt bound:") != str(ritt):
        return _wrong("ritt bound differs from the column maxima")
    return PASS


def _linearize(expect, code, out) -> Verdict:
    if code != EXIT_OK:
        return _no_answer(code)
    orig = _line_value(out, "original jacobi number:")
    lin = _line_value(out, "linearized jacobi number:")
    if orig != str(expect[1]):
        return _wrong(f"original jacobi number {orig}, expected {expect[1]}")
    if lin is None or (lin != "-inf" and int(lin) > expect[1]):
        return _wrong(f"linearized jacobi number {lin} above {expect[1]}")
    return PASS


_CHECKS = {
    "member": _member,
    "inconclusive": _inconclusive,
    "jbc": _jbc_known,
    "jbc-equal": _jbc_known,
    "jbc-random": _jbc_random,
    "reduce": _reduce,
    "order": _order,
    "jacobi": _jacobi,
    "linearize": _linearize,
}


def check(expect: tuple, code, out: str) -> Verdict:
    """Judge one completed query; ``code`` is the command's exit code."""
    try:
        return _CHECKS[expect[0]](expect, code, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return _wrong(f"unreadable output ({type(exc).__name__}: {exc})")
