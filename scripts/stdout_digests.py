#!/usr/bin/env python3
"""Compare two source trees query by query on the benchmark's workloads.

    python3 scripts/stdout_digests.py TREE_A TREE_B --seed 7
    python3 scripts/stdout_digests.py TREE_A TREE_B --seed 7 --workload certify-qt

A tree is a checkout with ``src/diffalg``.  Each tree runs, in a process of
its own, every query of each workload as the benchmark generates it for the
seed: one ``diffalg.cli.main`` call through the benchmark's query runner,
with the runner's per-query limit.  The generators and the runner are this
checkout's ``perfbench`` modules, used as they are, so both trees answer
the same queries.

A query differs when its exit code or the digest of its stdout differs
between the trees.  A query over the limit in either tree has no output to
compare; it is listed apart.  The exit status is 0 when no query differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
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
    ap.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.emit is not None:
        print(json.dumps(emit(args.emit.resolve(), args.seed, names)))
        return 0
    if len(args.trees) != 2:
        ap.error("give two source trees")
    a, b = (_run_tree(t.resolve(), args.seed, names) for t in args.trees)
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
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
