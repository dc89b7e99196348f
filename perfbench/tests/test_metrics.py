"""Failed runs stay out of the latencies; ok_frac counts them instead."""

import pytest

import run
import verdicts
from runner import Outcome


def _outcome(index, latency_s, ok=True):
    verdict = verdicts.PASS if ok else verdicts.Verdict(False, False, False, "over limit")
    return Outcome(index, 0 if ok else None, latency_s, "", 0, verdict, "" if ok else "over limit")


def test_failed_runs_are_left_out_of_latencies():
    outcomes = [
        _outcome(0, 0.010),
        _outcome(1, 2.0, ok=False),
        _outcome(2, 0.030),
        _outcome(0, 0.020),
        _outcome(1, 0.050),
        _outcome(2, 0.040),
        _outcome(0, 0.030),
        _outcome(1, 2.0, ok=False),
        _outcome(2, 0.050),
    ]
    assert run.answered_latencies(outcomes, 2.0) == pytest.approx([0.024, 0.064, 0.100])


def test_a_query_never_answered_has_no_latency():
    outcomes = [_outcome(0, 0.010), _outcome(1, 2.0, ok=False), _outcome(0, 0.030), _outcome(1, 2.0, ok=False)]
    assert run.answered_latencies(outcomes, 1.0) == pytest.approx([0.012])
