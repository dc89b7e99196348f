"""The query-by-query comparison of scripts/stdout_digests.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stdout_digests.py"
_spec = importlib.util.spec_from_file_location("stdout_digests", SCRIPT)
stdout_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stdout_digests)
compare = stdout_digests.compare
timing_summary = stdout_digests.timing_summary


def test_identical_runs_have_no_differences():
    run = {"q1": [0, "ab", ""], "q2": [1, "cd", ""]}
    assert compare(run, dict(run)) == {"differ": [], "over_limit": []}


def test_exit_code_or_digest_change_is_a_difference():
    a = {"q1": [0, "ab", ""], "q2": [1, "cd", ""], "q3": [0, "ef", ""]}
    b = {"q1": [1, "ab", ""], "q2": [1, "cx", ""], "q3": [0, "ef", ""]}
    assert compare(a, b)["differ"] == ["q1", "q2"]


def test_over_the_limit_is_listed_apart_on_either_side():
    a = {"q1": [None, "x", "over limit"], "q2": [0, "ab", ""], "q3": [None, "y", "over limit"]}
    b = {"q1": [None, "x", "over limit"], "q2": [None, "z", "over limit"], "q3": [2, "ab", ""]}
    res = compare(a, b)
    assert res["over_limit"] == ["q1", "q2", "q3"]
    assert res["differ"] == []


def test_an_exception_is_compared_like_output():
    a = {"q1": [None, "d1", "exception ValueError: boom"]}
    b = {"q1": [0, "d2", ""]}
    assert compare(a, b)["differ"] == ["q1"]



def test_timing_sums_the_per_query_minima_of_shared_queries():
    a = {"q1": [0.30, 0.10, 0.20], "q2": [0.05], "only_a": [9.0]}
    b = {"q1": [0.08, 0.09], "q2": [0.06, 0.04], "only_b": [9.0]}
    sm = timing_summary(a, b)
    assert sm["queries"] == 2
    assert abs(sm["a_s"] - 0.15) < 1e-12
    assert abs(sm["b_s"] - 0.12) < 1e-12
    assert abs(sm["ratio"] - 0.8) < 1e-12


def test_timing_reads_the_median_and_90th_percentile_of_the_minima():
    # per-query minima: A 1..10 ms, B 2..20 ms; the inclusive quantiles
    # put p50 at 5.5 and p90 at 9.1 of ten evenly spaced values
    a = {f"q{i}": [i / 1e3, 1.0] for i in range(1, 11)}
    b = {f"q{i}": [2 * i / 1e3] for i in range(1, 11)}
    sm = timing_summary(a, b)
    assert abs(sm["a_p50_s"] - 5.5e-3) < 1e-12
    assert abs(sm["a_p90_s"] - 9.1e-3) < 1e-12
    assert abs(sm["b_p50_s"] - 11e-3) < 1e-12
    assert abs(sm["b_p90_s"] - 18.2e-3) < 1e-12


def test_timing_of_one_shared_query_is_its_minimum():
    sm = timing_summary({"q1": [0.3, 0.2]}, {"q1": [0.4], "q2": [9.0]})
    assert sm["a_p50_s"] == sm["a_p90_s"] == 0.2
    assert sm["b_p50_s"] == sm["b_p90_s"] == 0.4
