#!/usr/bin/env python3
"""Compare two source trees query by query on the benchmark's workloads.

    python3 scripts/stdout_digests.py TREE_A TREE_B --seed 7
    python3 scripts/stdout_digests.py TREE_A TREE_B --seed 7 --workload certify-qt
    python3 scripts/stdout_digests.py TREE_A TREE_B --seed 7 --timing 9

A tree is a checkout with ``src/diffalg``.  Each tree runs, in a process of
its own, every query of each workload as the benchmark generates it for the
seed: one ``diffalg.cli.main`` call through the benchmark's query runner,
with the runner's per-query limit.  The generators and the runner are this
checkout's ``perfbench`` modules, used as they are, so both trees answer
the same queries.

A query differs when its exit code or the digest of its stdout differs
between the trees.  A query over the limit in either tree has no output to
compare; it is listed apart.  The exit status is 0 when no query differs.

With ``--timing PASSES`` both trees run in this one process: each tree's
``src/diffalg`` is loaded under a module name of its own (every import in
the package is relative), and each query runs once in each tree, the order
of the two alternating, in each of PASSES passes.  Per workload this prints
the sum over the queries of each tree's minimum time and the B/A ratio, and
the median (p50) and 90th percentile (p90) of those minima, the latency
tail side by side; queries over the limit in either tree are run once and
left out.  The digests of the first pass are compared as above.  Two runs of
one benchmark command on a shared machine swing far more than two trees
timed side by side in one process, query by query.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_work"
WORKLOADS = ("membership", "decompose", "certify-qt", "order-bounds")


def compare(a: dict, b: dict) -> dict:
    """Compare two runs of the same queries, each mapping a query id to
    [exit code, stdout digest, error] (error is "over limit", an exception
    text, or "").  Returns the ids that differ and those over the limit in
    either run."""
    differ, over = [], []
    for qid in sorted(a):
        if "over limit" in (a[qid][2], b[qid][2]):
            over.append(qid)
        elif a[qid] != b[qid]:
            differ.append(qid)
    return {"differ": differ, "over_limit": over}


def _percentile(values: list, q: int) -> float:
    """The q-th percentile as the benchmark reads its latencies."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_summary(a: dict, b: dict) -> dict:
    """Sum, median and 90th percentile, over the queries timed in both runs,
    of each run's minimum time per query; a and b map a query id to its
    times in seconds.  Returns {"queries", "a_s", "b_s", "ratio", "a_p50_s",
    "b_p50_s", "a_p90_s", "b_p90_s"} with ratio = b_s / a_s; the
    percentiles are nan when no query is shared."""
    shared = sorted(set(a) & set(b))
    out = {"queries": len(shared)}
    for tag, run in (("a", a), ("b", b)):
        mins = [min(run[q]) for q in shared]
        out[f"{tag}_s"] = sum(mins)
        out[f"{tag}_p50_s"] = statistics.median(mins) if mins else float("nan")
        out[f"{tag}_p90_s"] = _percentile(mins, 90) if mins else float("nan")
    out["ratio"] = out["b_s"] / out["a_s"] if out["a_s"] else float("nan")
    return out


def _load_tree(tree: Path, name: str):
    """tree's src/diffalg imported as the package `name`; its cli module."""
    pkg = tree / "src" / "diffalg"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed(trees, seed: int, names, passes: int) -> dict:
    """Run every query of each named workload in both trees, alternating,
    for `passes` passes; {workload: (runs of tree A, runs of tree B, times
    of A, times of B)}, a run as emit gives it and times as timing_summary
    takes them."""
    sys.path.insert(0, str(BENCH))
    import runner
    import workloads

    clis = [_load_tree(tree, f"diffalg_tree_{tag}") for tag, tree in zip("ab", trees)]
    out = {}
    workdir = WORK / f"timing-{os.getpid()}"
    try:
        for name in names:
            wl = workloads.GENERATORS[name](seed)
            workdir.mkdir(parents=True, exist_ok=True)
            for fname, text in wl.files.items():
                (workdir / fname).write_text(text, encoding="utf-8")
            rqs = [runner.QueryRunner(cli, wl.queries, workdir) for cli in clis]
            runs, times = ({}, {}), ({}, {})
            over = set()
            for p in range(passes):
                for i, q in enumerate(wl.queries):
                    if q.qid in over:
                        continue
                    for t in (0, 1) if (p + i) % 2 == 0 else (1, 0):
                        o = rqs[t].run(i)
                        runs[t].setdefault(q.qid, [o.code, o.digest, o.error])
                        times[t].setdefault(q.qid, []).append(o.latency_s)
                        if o.timed_out:
                            over.add(q.qid)
            for t in (0, 1):
                for qid in over:
                    times[t].pop(qid, None)
            out[name] = (runs[0], runs[1], times[0], times[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def emit(tree: Path, seed: int, names) -> dict:
    """Run every query of each named workload against the tree's diffalg;
    {workload: {query id: [code, digest, error]}}."""
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(BENCH))
    import diffalg.cli
    import runner
    import workloads

    if Path(diffalg.cli.__file__).resolve().parent != (tree / "src" / "diffalg").resolve():
        raise SystemExit(f"imported diffalg from {diffalg.cli.__file__}, not from {tree}")
    out = {}
    workdir = WORK / f"digests-{os.getpid()}"
    try:
        for name in names:
            wl = workloads.GENERATORS[name](seed)
            workdir.mkdir(parents=True, exist_ok=True)
            for fname, text in wl.files.items():
                (workdir / fname).write_text(text, encoding="utf-8")
            rq = runner.QueryRunner(diffalg.cli, wl.queries, workdir)
            runs = {}
            for i, q in enumerate(wl.queries):
                o = rq.run(i)
                runs[q.qid] = [o.code, o.digest, o.error]
            out[name] = runs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def _run_tree(tree: Path, seed: int, names) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", str(tree), "--seed", str(seed)]
    for name in names:
        cmd += ["--workload", name]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument(
        "--timing",
        type=int,
        metavar="PASSES",
        help="run both trees in this process, alternating query by query, and report their times",
    )
    ap.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.emit is not None:
        print(json.dumps(emit(args.emit.resolve(), args.seed, names)))
        return 0
    if len(args.trees) != 2:
        ap.error("give two source trees")
    if args.timing is not None and args.timing < 1:
        ap.error("--timing needs at least one pass")
    trees = [t.resolve() for t in args.trees]
    if args.timing is None:
        a, b = (_run_tree(t, args.seed, names) for t in trees)
        summaries = {}
    else:
        res = timed(trees, args.seed, names, args.timing)
        a = {name: r[0] for name, r in res.items()}
        b = {name: r[1] for name, r in res.items()}
        summaries = {name: timing_summary(r[2], r[3]) for name, r in res.items()}
    total = 0
    for name in names:
        res = compare(a[name], b[name])
        total += len(res["differ"])
        print(
            f"workload {name}, seed {args.seed}: {len(a[name])} queries, "
            f"{len(res['differ'])} differ, {len(res['over_limit'])} over the limit"
        )
        for qid in res["differ"]:
            print(f"  DIFFER {qid}: {a[name][qid]} vs {b[name][qid]}")
        for qid in res["over_limit"]:
            print(f"  over the limit {qid}: {a[name][qid][2] or 'ok'} vs {b[name][qid][2] or 'ok'}")
        if name in summaries:
            sm = summaries[name]
            print(
                f"  timing, {args.timing} passes, sum of per-query minima over {sm['queries']} "
                f"queries: A {sm['a_s']:.4f} s, B {sm['b_s']:.4f} s, B/A {sm['ratio']:.3f}"
            )
            print(
                f"  per-query minima, p50: A {sm['a_p50_s'] * 1e3:.3f} ms, B {sm['b_p50_s'] * 1e3:.3f} ms; "
                f"p90: A {sm['a_p90_s'] * 1e3:.3f} ms, B {sm['b_p90_s'] * 1e3:.3f} ms"
            )
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
