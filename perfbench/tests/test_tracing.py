"""Tracing leaves no trace: digests match untraced runs, and every diffalg
function is the original object again once the wrappers are removed."""

import shutil
import subprocess
import sys
from pathlib import Path

import diffalg
import runner
import tracing
import workloads
from diffalg import cli


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "diffalg" or name.startswith("diffalg."):
            out[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if isinstance(obj, type) and obj.__module__ == name:
                    out[f"{name}.{attr}"] = dict(vars(obj))
    return out


def _runner(tmp_path, name, seed, count):
    wl = workloads.GENERATORS[name](seed)
    for fname, text in wl.files.items():
        (tmp_path / fname).write_text(text, encoding="utf-8")
    return runner.QueryRunner(cli, wl.queries[:count], tmp_path)


def test_wrappers_are_removed(tmp_path):
    before = _bindings()
    rq = _runner(tmp_path, "certify-qt", 1, 4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert diffalg.cli.main is not before["diffalg.cli"]["main"]
        assert diffalg.decompose.ritt_reduce_seq is not before["diffalg.decompose"]["ritt_reduce_seq"]
        for i in range(4):
            tracer.start_query(i)
            assert rq.run(i).verdict.ok
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        for attr, obj in attrs.items():
            assert after[key][attr] is obj, f"{key}.{attr} was not restored"
    agg = tracer.aggregate()
    assert agg["calls"]["cli.main"] == 4
    assert agg["calls"]["reduction.ritt_reduce_seq"] == 4
    assert agg["calls"]["fields.ratfunc.mul"] > 0
    assert tracer.counts["diffpoly.monomial_make.calls"] > 0


def test_digests_repeat_traced_and_untraced(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    rq = _runner(tmp_path / "a", "membership", 2, 12)
    first = [rq.run(i).digest for i in range(12)]
    # a second generation of the same seed, in another directory
    second = [o.digest for o in map(_runner(tmp_path / "b", "membership", 2, 12).run, range(12))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for i in range(12):
            tracer.start_query(i)
            traced.append(rq.run(i).digest)
    finally:
        tracer.remove()
    assert first == second == traced


def test_over_limit_query_is_cut_off(tmp_path):
    rq = _runner(tmp_path, "membership", 2, 1)
    o = rq.run(0, limit_s=0.001)
    assert o.timed_out and not o.verdict.ok and not o.verdict.wrong


def test_refuses_to_run_without_sources(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "membership", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
