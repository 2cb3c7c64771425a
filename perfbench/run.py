"""Benchmark for knotsig: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

Steps, all from the root of a checkout:

1. set-up: ``SETUP_REPEATS`` fresh interpreters each import knotsig and
   make one warm-up request; ``setup_s`` is the median time from spawn to
   ready, each scaled by the machine's speed around it;
2. the timed run: the seed and ``--seconds`` fix the requests (a whole
   number of the workload's cycles, ``request_count``).  ``PASSES`` fresh
   worker interpreters in turn send all of them, one at a time (see
   worker.py); every pass must give byte-identical outcomes and reports
   (the determinism check).  Each request's time is scaled by the
   machine's speed around it (``request_speeds``), and its latency is
   the median over the passes;
3. the oracles (oracles.py) check every outcome, outside the timed run;
4. with ``--trace 1`` one worker traces every layer (tracing.py) and a
   second, untraced worker replays the same requests: the replay must
   give byte-identical reports, and the time difference is the tracing
   overhead.

Every metric is printed as a line ``name value unit (n=...)``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPEATS = 11
PASSES = 3
PASS_TIMEOUT_S = 50
# A request still running after this long is stopped and counted as
# failed.  It is far above the slowest request seen (about 4 s), so that
# no outcome depends on the speed of the machine.
DEADLINE_S = 30.0

# Times are scaled to a machine on which one reference unit (worker.py)
# takes this long; see request_speeds().
REFERENCE_UNIT_S = 180e-6

# Requests per second of --seconds: PASSES passes over that many requests
# take about --seconds at the parent on a 2-vCPU machine.
OPS_PER_SECOND = {
    "sweep_small": 16.0,
    "factor_heavy": 1.0,
    "seifert_forms": 0.4,
}

# End-to-end metric units, as in BENCHMARK.json.
UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "answered_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def request_count(workload: str, seconds: float) -> int:
    """Requests in one run: whole cycles of the workload, at least one."""
    import workloads

    cycle = workloads.CYCLE_OPS[workload]
    return cycle * max(1, round(seconds * OPS_PER_SECOND[workload] / cycle))


def spawn_worker(extra: list[str]) -> tuple[list[dict], dict]:
    """Run a worker to completion: (one record per request, summary)."""
    cmd = [sys.executable, WORKER] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    if not lines or not lines[-1].get("summary"):
        raise RuntimeError("worker output has no summary line")
    return lines[:-1], lines[-1]


def measure_setup() -> tuple[list[float], list[float]]:
    """Spawn-to-ready times of fresh interpreters that import knotsig and
    make one warm-up request: (scaled, as measured)."""
    import worker

    scaled_times, raw_times = [], []
    for _ in range(SETUP_REPEATS):
        before = worker.reference_speed(worker.SETUP_REFERENCE_S)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, "--setup-only"], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-2000:]}")
        after = json.loads(out)
        raw_times.append(elapsed)
        scaled_times.append(elapsed / speed(before[0] + after["reference_s"],
                                            before[1] + after["reference_units"]))
    return scaled_times, raw_times


def speed(reference_s: float, units: int) -> float:
    """How much slower than nominal the machine ran while ``units``
    reference units took ``reference_s``."""
    return reference_s / units / REFERENCE_UNIT_S


def request_speeds(records: list[dict], summary: dict) -> list[float]:
    """The machine's speed around each request of a pass, from the
    reference samples right before and right after it."""
    prev = (summary["lead_reference_s"], summary["lead_reference_units"])
    out = []
    for rec in records:
        out.append(speed(prev[0] + rec["reference_s"], prev[1] + rec["reference_units"]))
        prev = (rec["reference_s"], rec["reference_units"])
    return out


def pass_speed(records: list[dict], summary: dict) -> float:
    return speed(summary["lead_reference_s"] + sum(r["reference_s"] for r in records),
                 summary["lead_reference_units"] + sum(r["reference_units"] for r in records))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[k]


def classify(ops: list[dict], records: list[dict]) -> tuple[list[bool], list[str], list[str]]:
    """Run the oracles: (answered correctly, per request), oracle
    problems, failure messages.  An answer or input rejection that fails
    an oracle is a failure."""
    import oracles

    ok: list[bool] = []
    problems: list[str] = []
    failures: list[str] = []
    for i, (op, rec) in enumerate(zip(ops, records)):
        found = oracles.check(op, rec) if rec["outcome"] in ("answered", "rejected") else []
        problems += [f"op {i} ({op['kind']}, {op['input']}): {p}" for p in found]
        ok.append(rec["outcome"] in ("answered", "rejected") and not found)
        if rec["outcome"] == "failed":
            failures.append(rec["error"])
    return ok, problems, failures


def report_line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:44s} {value:14.6g} {unit:8s} {note}".rstrip())


def timed_out(rec: dict) -> bool:
    return (rec["error"] or "").startswith("DeadlineExceeded")


def merge_passes(passes: list[list[dict]]) -> tuple[list[dict], list[str]]:
    """One record per request from several passes over the same requests,
    and the requests whose outcome or report differs between passes.  A
    request stopped at the limit in any pass counts as failed; the per-
    request limit is a matter of time, not of the answer, so it is not a
    difference."""
    merged, problems = [], []
    for i, recs in enumerate(zip(*passes)):
        late = [r for r in recs if timed_out(r)]
        merged.append(late[0] if late else recs[0])
        answers = {(r["outcome"], r["result"], r["error"]) for r in recs if not timed_out(r)}
        if len(answers) > 1:
            problems.append(f"op {i}: passes differ ({sorted(a[0] for a in answers)})")
    return merged, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="knotsig benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True, choices=sorted(OPS_PER_SECOND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=None,
                    help="seed of the request corpus (default: the fixed one)")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "knotsig", "__init__.py")):
        return fail(f"no knotsig sources under {os.path.join(ROOT, 'src')}; run from a checkout")
    sys.path.insert(0, HERE)
    import workloads

    corpus_seed = workloads.CORPUS_SEED if args.corpus_seed is None else args.corpus_seed
    n = request_count(args.workload, args.seconds)
    ops = workloads.operations(args.workload, args.seed, n, corpus_seed)
    # set-up is an end-to-end metric; the traced run reports per-layer ones
    setup, setup_raw = ([], []) if args.trace else measure_setup()
    base = ["--workload", args.workload, "--seed", str(args.seed), "--count", str(n),
            "--corpus-seed", str(corpus_seed), "--deadline", str(DEADLINE_S)]
    t0 = time.perf_counter()
    if args.trace:
        # the replay is untraced: its time is the baseline of the tracing
        # overhead, and its reports must match the traced pass byte for byte
        runs = [spawn_worker(base + ["--trace", "1"]), spawn_worker(base)]
    else:
        runs = [spawn_worker(base) for _ in range(PASSES)]
    measured_s = time.perf_counter() - t0
    if any(len(recs) != n for recs, _ in runs):
        return fail("a worker did not report every request")
    records, problems = merge_passes([recs for recs, _ in runs])

    ok, oracle_problems, failures = classify(ops, records)
    problems += oracle_problems
    answered = sum(ok)
    refused = sum(1 for r in records if r["outcome"] == "refused")
    failed = n - answered - refused
    scaled = [[r["latency_s"] / f for r, f in zip(recs, request_speeds(recs, summary))]
              for recs, summary in runs]
    typical = [statistics.median(column) for column in zip(*scaled)]
    typical_raw = [statistics.median(recs[i]["latency_s"] for recs, _ in runs) for i in range(n)]
    e2e, notes = {}, {}
    if not args.trace:
        e2e = {
            "ops_per_s": answered / sum(typical),
            "latency_p50_ms": 1e3 * statistics.median(typical),
            "answered_frac": answered / n,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(summary["peak_rss_mb"] for _, summary in runs),
        }
        notes = {
            "ops_per_s": f"(n={n}, each request's median of {len(runs)} passes, scaled)",
            "latency_p50_ms": f"(n={n}, each request's median of {len(runs)} passes, scaled)",
            "answered_frac": f"(n={n})",
            "setup_s": f"(median of n={len(setup)} fresh interpreters, scaled)",
            "peak_rss_mb": f"(largest of {len(runs)} worker processes)",
        }

    print(f"workload {args.workload}  seed {args.seed}  requests {n}  passes {len(runs)}  "
          f"measured {measured_s:.3f} s  closed loop, 1 client{'  TRACED' if args.trace else ''}")
    print(f"corpus seed {corpus_seed}")
    print(f"outcomes: answered {answered}, refused {refused}, failed {failed} "
          f"(wrong answers {len(set(p.split(':')[0] for p in oracle_problems))})")
    for name, value in e2e.items():
        report_line(name, value, UNITS[name], notes[name])
    # printed for reading only; not BENCHMARK.json metrics
    info = {"pass wall times": (" ".join(f"{s['wall_s']:.3f}" for _, s in runs), "s", ""),
            "pass speeds": (" ".join(f"{pass_speed(*run):.3f}" for run in runs), "x nominal",
                            "(time per reference unit)"),
            "failed_frac": (f"{failed / n:.6g}", "ratio", f"(n={n})"),
            "refused_frac": (f"{refused / n:.6g}", "ratio", f"(n={n})")}
    if not args.trace:
        info.update({
            "ops_per_s as measured": (f"{answered / sum(typical_raw):.6g}", "1/s", "(not scaled)"),
            "latency_p50_ms as measured": (f"{1e3 * statistics.median(typical_raw):.6g}", "ms",
                                           "(not scaled)"),
            "setup_s as measured": (f"{statistics.median(setup_raw):.6g}", "s", "(not scaled)"),
        })
        if n >= 100:
            info["latency_p90_ms"] = (f"{1e3 * percentile(typical, 0.9):.6g}", "ms", f"(n={n}, scaled)")
    for name, (value, unit, note) in info.items():
        print(f"  info {name}: {value} {unit} {note}".rstrip())
    for msg in sorted(set(failures)):
        print(f"failure x{failures.count(msg)}: {msg[:200]}")
    tracebacks = [r["traceback"] for r in records if "traceback" in r]
    if tracebacks:
        print(tracebacks[0], file=sys.stderr)
    for p in problems[:20]:
        print(f"problem: {p}")

    if args.trace:
        import tracing

        (traced, summary), (replay, _) = runs
        layers = dict(summary["layers"])
        layers["trace.overhead_frac"] = sum(scaled[0]) / sum(scaled[1]) - 1.0
        layers["trace.ops"] = n
        units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
        units.update({"trace.overhead_frac": "ratio", "trace.ops": "count"})
        bases = summary["hit_bases"]
        for name, value in layers.items():
            report_line(name, value, units[name], f"(calls={bases[name]})" if name in bases else "")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    print(json.dumps({"correct": not problems, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
