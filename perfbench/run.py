#!/usr/bin/env python3
"""Verdict benchmark for diffalg: seeded workloads, closed loop, in process.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``all`` runs each workload in a process of its own, one after another, and
prints every workload's metrics prefixed with its name.

Run from the root of a source checkout; ``src/diffalg`` is imported from
there.  One client sends one query at a time, the next only when the last
verdict is back.  A query is one ``diffalg.cli.main([...])`` call on a
system file the generator wrote during set-up; stdout is captured and the
exit code and answer are checked against what the generator planted.

With ``--trace 0`` the run makes whole passes over the workload's queries
(at least MIN_PASSES) until ``--seconds`` have gone by, and reports the
end-to-end metrics:

    setup_s          median wall time of fresh interpreters that import
                     diffalg and build the CLI parser, one after another
    queries_per_s    queries answered correctly per second they took:
                     one over the mean of the per-query latencies
    latency_p50_ms   percentiles over the queries of each query's
    latency_p90_ms   latency: the lower decile of its times over the passes
    peak_rss_mb      peak resident memory of this process
    ok_frac          share of attempted queries that did not fail
    decided_frac     share of attempted queries with a definite answer

Latencies are those of queries answered correctly; a failed query's time
(up to the benchmark's own per-query limit) is left out, and ok_frac
counts the failure instead.

On a shared machine other work slows a core down, for seconds at a time:
on a 2-vCPU VM a fixed computation took from 20 to 84 ms within one 15-s
run.  So every time metric is scaled to one machine speed with a fixed
reference computation in the benchmark's own code
(``runner.reference_seconds``).  Such interference only ever adds time, so
query times are read at the machine's fast state: each query's time is the
lower decile of its times over the passes, and it is multiplied by
REFERENCE_S over the lower decile of the reference times, taken every
REFERENCE_EVERY_S during the passes.  Set-up is the median of its probes,
each scaled by REFERENCE_S over the median reference time just before and
after it.  A change to diffalg cannot change the reference time, so it
moves the scaled metrics as it moves the raw ones.

With ``--trace 1`` the run makes one untraced pass, then runs each query
untraced and traced, one right after the other.  It reports per-layer
metrics from spans recorded around each ``diffalg`` module's public
functions (see ``tracing``), the tracing overhead over the paired runs, and
the ``python -X importtime`` breakdown of set-up.  Spans are written to
``.bench_work/trace/``.

Every query's exit code and stdout digest must repeat exactly between
passes, traced or not; a mismatch or a wrong answer makes ``correct``
false.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
REFERENCES_PER_PROBE = 3
# The reference computation's time on a 2-vCPU x86 VM in its fast state;
# scaled times read as if every run had that speed.
REFERENCE_S = 0.021
REFERENCE_EVERY_S = 0.5
IMPORTTIME_PROBES = 3
MIN_PASSES = 3
PROBE_CODE = "import diffalg.cli; diffalg.cli.build_parser()"
# In the traced pass a query that finished untraced gets this multiple of
# the limit, so tracing overhead alone cannot push it over.
TRACED_LIMIT_FACTOR = 20

sys.path.insert(0, str(BENCH_DIR))

import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here."""


def _import_diffalg():
    if not (SRC / "diffalg" / "__init__.py").is_file():
        raise BenchError(f"no diffalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diffalg.cli

    if Path(diffalg.cli.__file__).resolve().parent != (SRC / "diffalg").resolve():
        raise BenchError(f"imported diffalg from {diffalg.cli.__file__}, not from {SRC}")
    return diffalg.cli


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------


def _probe(extra_flags=()) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra_flags, "-c", PROBE_CODE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return wall, proc.stderr


def setup_seconds() -> float:
    """Median over the probes, one after another, of each probe's wall time
    scaled by the median of the reference times just before and after it."""
    before = [runner.reference_seconds() for _ in range(REFERENCES_PER_PROBE)]
    scaled = []
    for _ in range(SETUP_PROBES):
        wall = _probe()[0]
        after = [runner.reference_seconds() for _ in range(REFERENCES_PER_PROBE)]
        scaled.append(wall * REFERENCE_S / statistics.median(before + after))
        before = after
    return statistics.median(scaled)


def _importtime(stderr: str) -> dict:
    """Seconds for `import diffalg` (cumulative) and the self time of every
    scipy and numpy module."""
    out = {"diffalg": 0.0, "scipy": 0.0, "numpy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = (x.strip() for x in line[len("import time:"):].split("|"))
        if name == "diffalg":
            out["diffalg"] = int(cum_us) / 1e6
        for pkg in ("scipy", "numpy"):
            if name == pkg or name.startswith(pkg + "."):
                out[pkg] += int(self_us) / 1e6
    return out


def importtime_seconds() -> dict:
    runs = [_importtime(_probe(("-X", "importtime"))[1]) for _ in range(IMPORTTIME_PROBES)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def low(values) -> float:
    """The lower decile: the time of the machine's fast state."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def answered_latencies(outcomes, scale: float) -> list:
    """Each query's latency, times `scale`: the lower decile of the runs in
    which it was answered correctly.  A query that was never answered
    correctly has none."""
    runs: dict = {}
    for o in outcomes:
        if o.verdict.ok:
            runs.setdefault(o.index, []).append(o.latency_s * scale)
    return [low(v) for v in runs.values()]


def _digest_mismatches(outcome_lists, queries) -> list:
    """Query ids whose completed runs did not all give the same exit code
    and stdout.  Runs cut off by the limit or by an exception are left out:
    they have no output to compare."""
    seen: dict = {}
    bad = set()
    for outcomes in outcome_lists:
        for o in outcomes:
            if o.error:
                continue
            if seen.setdefault(o.index, o.digest) != o.digest:
                bad.add(queries[o.index].qid)
    return sorted(bad)


def _failures(outcomes, queries) -> list:
    seen = set()
    lines = []
    for o in outcomes:
        qid = queries[o.index].qid
        if not o.verdict.ok and qid not in seen:
            seen.add(qid)
            kind = "WRONG" if o.verdict.wrong else "failed"
            lines.append(f"  {kind} {qid}: {o.verdict.reason}")
    return lines


def timed_run(rq, order, seconds: float, refs: list) -> tuple:
    """Whole passes over the queries until `seconds` have gone by; returns
    the outcomes and the wall time of each pass.  Reference times are
    appended to `refs` between queries, every REFERENCE_EVERY_S."""
    outcomes, pass_walls = [], []
    t0 = time.perf_counter()
    last_ref = t0 - REFERENCE_EVERY_S
    while True:
        tp = time.perf_counter()
        for i in order:
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(runner.reference_seconds())
                last_ref = time.perf_counter()
            outcomes.append(rq.run(i))
        pass_walls.append(time.perf_counter() - tp)
        if time.perf_counter() - t0 >= seconds and len(pass_walls) >= MIN_PASSES:
            return outcomes, pass_walls


def _prepare(name: str, seed: int, cli, workdir: Path) -> tuple:
    """Generate the workload, write its files, and fix the query order."""
    wl = workloads.GENERATORS[name](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    order = list(range(len(wl.queries)))
    random.Random(seed).shuffle(order)
    return wl, runner.QueryRunner(cli, wl.queries, workdir), order


def measure(name: str, seed: int, seconds: float, cli, workdir: Path, setup_s: float) -> dict:
    wl, rq, order = _prepare(name, seed, cli, workdir)
    refs: list = []
    outcomes, pass_walls = timed_run(rq, order, seconds, refs)

    # Times are scaled to the reference speed.
    scale = REFERENCE_S / low(refs)
    n, per_pass = len(outcomes), len(order)
    ok = sum(o.verdict.ok for o in outcomes)
    if not ok:
        raise BenchError(f"workload {name}: no query was answered correctly")
    per_query = answered_latencies(outcomes, scale)
    p50, p90 = statistics.median(per_query), _percentile(per_query, 90)
    rates = []
    for k in range(0, n, per_pass):
        done = [o.latency_s * scale for o in outcomes[k : k + per_pass] if o.verdict.ok]
        rates.append(len(done) / sum(done))
    qps = len(per_query) / sum(per_query)
    mismatches = _digest_mismatches([outcomes], wl.queries)
    wrong = sum(o.verdict.wrong for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (qps, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (ok / n, "ratio"),
        "decided_frac": (sum(o.verdict.decided for o in outcomes) / n, "ratio"),
    }
    report = [
        f"workload {name}: seed {seed}, {per_pass} queries x {len(pass_walls)} passes "
        f"= {n} attempted in {sum(pass_walls):.2f} s, {n - ok} failed, {wrong} wrong",
        f"  reference computation: lower decile {low(refs) * 1e3:.2f} ms, median "
        f"{statistics.median(refs) * 1e3:.2f} ms of {len(refs)}, times scaled by {scale:.3f}",
        f"  queries/s of each pass: {' '.join(f'{r:.2f}' for r in rates)}",
        f"  latency samples: {len(per_query)} per-query lower deciles of {len(pass_walls)} runs each, "
        f"{sum(x > p90 for x in per_query)} above p90",
    ]
    report += _failures(outcomes, wl.queries)
    report += [f"  digest MISMATCH {qid}" for qid in mismatches]
    return {
        "correct": wrong == 0 and not mismatches,
        "attempted": n,
        "failed": n - ok,
        "metrics": metrics,
        "report": report,
    }


def traced(name: str, seed: int, cli, workdir: Path) -> dict:
    wl, rq, order = _prepare(name, seed, cli, workdir)
    plain = [rq.run(i) for i in order]
    tracer = tracing.Tracer()
    again, traced_out = [], []
    for o in plain:
        # Each traced run right after an untraced one, so that the overhead
        # compares runs made at much the same machine speed.
        if not o.timed_out:
            again.append(rq.run(o.index))
        tracer.start_query(o.index)
        limit = runner.QUERY_LIMIT_S * (1 if o.timed_out else TRACED_LIMIT_FACTOR)
        tracer.install()
        try:
            traced_out.append(rq.run(o.index, limit))
        finally:
            tracer.remove()

    done = {o.index: o for o in traced_out if not o.timed_out}
    pairs = [(a, done[a.index]) for a in again if not a.timed_out and a.index in done]
    untraced_s = sum(a.latency_s for a, _ in pairs)
    overhead = sum(b.latency_s for _, b in pairs) / untraced_s - 1 if untraced_s else 0.0
    agg = tracer.aggregate()
    tracer.write(WORK / "trace" / f"{name}-seed{seed}.tsv.gz", [q.qid for q in wl.queries])
    metrics = layer_metrics(agg, tracer.counts, importtime_seconds())
    metrics["cli.stdout_bytes"] = (sum(o.stdout_bytes for o in traced_out), "bytes")
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    both = plain + again + traced_out
    mismatches = _digest_mismatches([plain, again, traced_out], wl.queries)
    wrong = sum(o.verdict.wrong for o in both)
    failed = sum(not o.verdict.ok for o in both)
    report = [
        f"workload {name} (traced): seed {seed}, {len(wl.queries)} queries, one untraced pass, "
        f"then each query untraced and traced, {tracer.span_count()} spans, overhead {overhead:+.1%}",
    ]
    report += _layer_table(agg, traced_out, wl.queries)
    report += _failures(both, wl.queries)
    report += [f"  digest MISMATCH {qid}" for qid in mismatches]
    report += [f"  timed out in one pass only: {wl.queries[a.index].qid}" for a, b in zip(plain, traced_out) if a.timed_out != b.timed_out]
    consistent = all(a.timed_out == b.timed_out for a, b in zip(plain, traced_out))
    return {
        "correct": wrong == 0 and not mismatches and consistent,
        "attempted": len(both),
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def _layer_table(agg, traced_out, queries) -> list:
    """Self and inclusive time per layer, the layers' shares of the queries
    above p90, then the slowest traced queries with the layers that did
    their work."""
    self_s, incl = agg["layer_self"], agg["layer_incl"]
    total = sum(self_s.values()) or 1.0
    lines = [
        f"  layer {layer:<10} self {s:7.3f} s {s / total:6.1%}   inclusive {incl[layer]:7.3f} s"
        for layer, s in self_s.most_common()
    ]
    p90 = _percentile([o.latency_s for o in traced_out], 90)
    tail = {o.index for o in traced_out if o.latency_s > p90}
    tail_self = Counter()
    for (q, layer), s in agg["query_layer"].items():
        if q in tail:
            tail_self[layer] += s
    tail_total = sum(tail_self.values()) or 1.0
    busy = ", ".join(f"{layer} {s / tail_total:.0%}" for layer, s in tail_self.most_common(4))
    lines.append(f"  {len(tail)} queries above p90: {busy}")
    for o in sorted(traced_out, key=lambda o: -o.latency_s)[:3]:
        shares = sorted(
            ((s, layer) for (q, layer), s in agg["query_layer"].items() if q == o.index), reverse=True
        )
        busy = ", ".join(f"{layer} {s / o.latency_s:.0%}" for s, layer in shares[:3])
        lines.append(f"  slow query {queries[o.index].qid} {o.latency_s * 1e3:.0f} ms: {busy}")
    return lines


def layer_metrics(agg, counts, imports: dict) -> dict:
    calls, self_s, layer_self = agg["calls"], agg["self"], agg["layer_self"]

    def frac(num, den) -> float:
        return num / den if den else 0.0

    return {
        "setup.import.diffalg_s": (imports["diffalg"], "s"),
        "setup.import.scipy_s": (imports["scipy"], "s"),
        "setup.import.numpy_s": (imports["numpy"], "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.self_s": (layer_self["cli"], "s"),
        "sysfile.parse_system.calls": (calls["sysfile.parse_system"], "count"),
        "sysfile.self_s": (layer_self["sysfile"], "s"),
        "decompose.split_decompose.calls": (calls["decompose.split_decompose"], "count"),
        "decompose.self_s": (layer_self["decompose"], "s"),
        "decompose.components": (counts["decompose.components"], "count"),
        "decompose.incomplete": (counts["decompose.incomplete"], "count"),
        "reduction.ritt_reduce_seq.calls": (calls["reduction.ritt_reduce_seq"], "count"),
        "reduction.ritt_reduce_seq.self_s": (self_s["reduction.ritt_reduce_seq"], "s"),
        "reduction.steps": (counts["reduction.steps"], "count"),
        "reduction.zero_remainder_frac": (
            frac(counts["reduction.zero_remainders"], calls["reduction.ritt_reduce_seq"]),
            "ratio",
        ),
        "reduction.remainder_terms": (counts["reduction.remainder_terms"], "count"),
        "reduction.verify_certificate.calls": (calls["reduction.verify_certificate"], "count"),
        "reduction.verify_certificate.self_s": (self_s["reduction.verify_certificate"], "s"),
        "reduction.self_s": (layer_self["reduction"], "s"),
        "ranking.is_autoreduced.calls": (calls["ranking.is_autoreduced"], "count"),
        "ranking.analyze.calls": (calls["ranking.analyze"], "count"),
        "ranking.self_s": (layer_self["ranking"], "s"),
        "jacobi.jacobi_assign.calls": (calls["jacobi.jacobi_assign"], "count"),
        "jacobi.jacobi_assign.self_s": (self_s["jacobi.jacobi_assign"], "s"),
        "jacobi.order_matrix.self_s": (self_s["jacobi.order_matrix"], "s"),
        "jacobi.self_s": (layer_self["jacobi"], "s"),
        "linearize.linearize_at.calls": (calls["linearize.linearize_at"], "count"),
        "linearize.self_s": (layer_self["linearize"], "s"),
        "linearize.jacobi_after_linearization.self_s": (
            self_s["linearize.jacobi_after_linearization"],
            "s",
        ),
        "oracle.truncated_member.calls": (calls["oracle.truncated_member"], "count"),
        "oracle.self_s": (layer_self["oracle"], "s"),
        "oracle.member_frac": (frac(counts["oracle.members"], calls["oracle.truncated_member"]), "ratio"),
        "oracle.radical.powers_tried": (
            agg["direct"][("oracle.radical_member", "oracle.truncated_member")],
            "count",
        ),
        "oracle.radical.witness_power": (counts["oracle.radical.witness_power"], "count"),
        "oracle.cap_skips": (counts["oracle.cap_skips"], "count"),
        "oracle.verify_witness.self_s": (self_s["oracle.verify_witness"], "s"),
        "diffpoly.mul.calls": (calls["diffpoly.mul"], "count"),
        "diffpoly.mul.self_s": (self_s["diffpoly.mul"], "s"),
        "diffpoly.mul.terms_out": (counts["diffpoly.mul.terms_out"], "count"),
        "diffpoly.derive.calls": (calls["diffpoly.derive"], "count"),
        "diffpoly.derive.self_s": (self_s["diffpoly.derive"], "s"),
        "diffpoly.monomial_make.calls": (counts["diffpoly.monomial_make.calls"], "count"),
        "diffpoly.self_s": (layer_self["diffpoly"], "s"),
        "fields.ratfunc.calls": (sum(v for k, v in calls.items() if k.startswith("fields.ratfunc.")), "count"),
        "fields.ratfunc.self_s": (sum(v for k, v in self_s.items() if k.startswith("fields.ratfunc.")), "s"),
        "fields.self_s": (layer_self["fields"], "s"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _json_metrics(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_all(args) -> int:
    """Every workload in a fresh process of its own, so that peak memory
    and caches belong to one workload only."""
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in sorted(workloads.GENERATORS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"benchmark: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    name = args.workload
    workdir = WORK / f"run-{os.getpid()}"
    try:
        cli = _import_diffalg()
        if args.trace:
            res = traced(name, args.seed, cli, workdir)
        else:
            res = measure(name, args.seed, args.seconds, cli, workdir, setup_seconds())
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("\n".join(res["report"]))
    for key, (value, unit) in res["metrics"].items():
        print(f"  {name} {key} = {value:.6g} {unit}")
    line = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": _json_metrics(res["metrics"]),
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
