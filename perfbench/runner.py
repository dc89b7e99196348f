"""Runs queries in process, one after another, as a single closed-loop client.

Each query is one ``diffalg.cli.main(argv)`` call with stdout and stderr
captured.  The per-query wall limit is enforced from here with a real-time
interval timer: when it fires, ``QueryTimeout`` is raised inside whatever
the program is computing and the query counts as over the limit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import signal
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import verdicts
from jetpoly import JetPoly

# Well above the slowest query of any workload that completes (about 0.7 s
# on a 2-core x86 container); the random dense systems that swell run for
# minutes.
QUERY_LIMIT_S = 2.0


# A fixed computation of the kind the program does most -- sparse products
# and derivatives of polynomials with rational coefficients -- in the
# benchmark's own code, so no change to diffalg changes its time.
_REFERENCE_POLY = JetPoly()
for _k in range(6):
    _REFERENCE_POLY = _REFERENCE_POLY + JetPoly.jet(_k % 2, _k % 3) * JetPoly.const(Fraction(_k + 1, _k + 2))


def reference_seconds() -> float:
    """Wall time of the fixed reference computation (about 20 ms on an
    x86 core that nothing else slows down)."""
    t0 = time.perf_counter()
    p = _REFERENCE_POLY
    for _ in range(3):
        p = (p * _REFERENCE_POLY).derive()
    return time.perf_counter() - t0


class QueryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout


@dataclass(frozen=True)
class Outcome:
    """One executed query.  ``code`` is None when there was no exit code:
    over the limit or an exception, named in ``error``."""

    index: int
    code: Optional[int]
    latency_s: float
    digest: str
    stdout_bytes: int
    verdict: verdicts.Verdict
    error: str = ""

    @property
    def timed_out(self) -> bool:
        return self.error == "over limit"


def _digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


class QueryRunner:
    """Executes the queries of one generated workload.  ``cli`` is the
    ``diffalg.cli`` module; ``main`` is looked up on every call so that
    tracing wrappers installed on it take effect."""

    def __init__(self, cli, queries, workdir: Path):
        self.cli = cli
        self.queries = queries
        self.argvs = [
            [str(workdir / a) if a.endswith(".sys") else a for a in q.args] for q in queries
        ]

    def run(self, index: int, limit_s: Optional[float] = None) -> Outcome:
        q = self.queries[index]
        out, err = io.StringIO(), io.StringIO()
        code, error = None, ""
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s or QUERY_LIMIT_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = self.cli.main(self.argvs[index])
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except QueryTimeout:
            error = "over limit"
        except Exception as exc:  # any other exception is a failed query
            error = f"exception {type(exc).__name__}: {exc}"[:200]
        finally:
            latency = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        text = out.getvalue()
        if error:
            verdict = verdicts.Verdict(False, False, False, error)
            digest = _digest(error, "")
        else:
            verdict = verdicts.check(q.expect, code, text)
            digest = _digest(code, text)
        return Outcome(index, code, latency, digest, len(text.encode()), verdict, error)
