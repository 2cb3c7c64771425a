"""Compare a parent commit with the working tree by alternating perfbench runs.

    python3 scripts/bench_pairs.py --parent REF [--workload NAME ...] [--pairs 10]
        [--seed 1] [--corpus-seed N] [--seconds 20] [--out FILE]

The committed files of REF are unpacked (``git archive``) into a temporary
directory, so nothing is added to the repository's .git, and the working
tree's files that git tracks or would track (``git ls-files --cached
--others --exclude-standard``) are copied beside them.  ``__pycache__/``
is ignored, so neither copy holds one.  In a tree that is not a git
checkout (no ``.git``, e.g. a ``git archive`` export) REF cannot be
unpacked, and the script stops with one line that says so.  For each
workload (default: every workload of BENCHMARK.json), ``perfbench/run.py
--trace 0`` runs ``--pairs`` times in each copy, alternating within each
pair which side runs first.  Every run has ``PYTHONDONTWRITEBYTECODE=1`` and no
``PYTHONPYCACHEPREFIX``, so both sides compile ``knotsig`` and perfbench
from source and read the standard library's bytecode, as a run in a
fresh checkout does.  Prints, per end-to-end metric of BENCHMARK.json,
each side's median and quartiles and the number of pairs the change won;
``--out`` also writes every run's final JSON line and the summary.  A run
that is not ``correct`` or has a ``failed`` request is printed to stderr,
and the script then exits 1.  The temporary directory is removed in
``finally``, also when a run fails or the script is interrupted: SIGTERM
raises ``SystemExit`` as Ctrl-C raises ``KeyboardInterrupt``.  Each run
starts in a session of its own, and an interrupted run's process group
is killed, so no perfbench worker outlives the script.  Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
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


def copy_worktree(dest: str) -> None:
    """The working tree's files that git tracks or would track under
    ``dest``; a tracked file deleted from the tree is skipped."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], check=True, capture_output=True).stdout
    for name in listed.decode().split("\0"):
        source, target = ROOT / name, Path(dest) / name
        if name and source.is_file():
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def unpack(ref: str, dest: str) -> None:
    """The committed files of ``ref`` under ``dest``; outside a checkout,
    SystemExit with one line that names the tree."""
    if not (ROOT / ".git").exists():
        raise SystemExit(f"bench_pairs: {ROOT} is not a git checkout, so {ref} cannot be unpacked")
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
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    done = run_in_session(cmd, checkout, dict(env, PYTHONDONTWRITEBYTECODE="1"))
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_in_session(cmd: list[str], cwd: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """``cmd`` with its output captured, in a new session; when the wait is
    interrupted, its whole process group is killed before the exception
    goes on."""
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
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
        sides = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        for path in sides.values():
            os.mkdir(path)
        unpack(args.parent, sides["parent"])
        copy_worktree(sides["change"])
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
    bad = [f"bad run: {workload} {side} run {i + 1}: correct {run['correct']}, failed {run['failed']}"
           for workload, runs in record["runs"].items() for side, side_runs in runs.items()
           for i, run in enumerate(side_runs) if not run["correct"] or run["failed"]]
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
