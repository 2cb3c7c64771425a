"""Compare a parent commit with the working tree by alternating perfbench runs.

    python3 scripts/bench_pairs.py --parent REF [--workload NAME ...] [--pairs 10]
        [--seed 1] [--corpus-seed N] [--seconds 20] [--out FILE]

The committed files of REF are unpacked (``git archive``) into a temporary
directory, so nothing is added to the repository's .git.  For each
workload (default: every workload of BENCHMARK.json), ``perfbench/run.py
--trace 0`` runs ``--pairs`` times in the parent's copy and as often in
the working tree, alternating within each pair which side runs first.
Every run has ``PYTHONDONTWRITEBYTECODE=1``.  Prints, per end-to-end
metric of BENCHMARK.json, each side's median and quartiles and the
number of pairs the change won; ``--out`` also writes every run's final
JSON line and the summary.  The temporary directory is removed in
``finally``, also when a run fails or the script is interrupted.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric of ``better`` (name -> "higher" or "lower"): each side's
    median and quartiles over its runs, the pairs (parent[i], change[i])
    the change won strictly, and the relative change of the median."""
    out = {}
    for name, direction in better.items():
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        sign = 1 if direction == "higher" else -1
        won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        pm, cm = statistics.median(a), statistics.median(b)
        out[name] = {
            "parent_median": round(pm, 4),
            "change_median": round(cm, 4),
            "parent_quartiles": _quartiles(a),
            "change_quartiles": _quartiles(b),
            "change_won": f"{won}/{len(a)}",
            "change_vs_parent": round((cm - pm) / pm, 4) if pm else 0.0,
        }
    return out


def _quartiles(values: list[float]) -> list[float]:
    """[Q1, median, Q3]; a single value is its own quartiles."""
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return [round(q, 4) for q in qs]


def unpack(ref: str, dest: str) -> None:
    """The committed files of ``ref`` under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(checkout: str, workload: str, seed: int, corpus_seed: int | None,
             seconds: float) -> dict:
    """perfbench/run.py in ``checkout``: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if corpus_seed is not None:
        cmd += ["--corpus-seed", str(corpus_seed)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="alternating parent/change perfbench pairs")
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--corpus-seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", help="write every run and the summary to this JSON file")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    command = (f"PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload <workload>"
               f" --seconds {args.seconds:g} --trace 0 --seed {args.seed}"
               + ("" if args.corpus_seed is None else f" --corpus-seed {args.corpus_seed}"))
    record = {"parent": args.parent, "command": command, "first": {}, "runs": {}, "summary": {}}
    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        unpack(args.parent, tmp)
        sides = {"parent": tmp, "change": str(ROOT)}
        for workload in workloads:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            first = []
            for i in range(args.pairs):
                order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
                first.append(order[0])
                for side in order:
                    runs[side].append(run_once(sides[side], workload, args.seed,
                                               args.corpus_seed, args.seconds))
            summary = summarize(runs["parent"], runs["change"], better)
            record["first"][workload], record["runs"][workload] = first, runs
            record["summary"][workload] = summary
            print(f"{workload}  ({args.pairs} pairs)")
            for name, s in summary.items():
                print(f"  {name:16} parent {s['parent_median']:<11} {s['parent_quartiles']}"
                      f"  change {s['change_median']:<11} {s['change_quartiles']}"
                      f"  won {s['change_won']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["all_correct"] = all(run["correct"] for runs in record["runs"].values()
                                for side in runs.values() for run in side)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
