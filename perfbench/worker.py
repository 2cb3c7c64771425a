"""Closed-loop worker: one fresh interpreter, one thread, one request at
a time.

It imports only the program and the input generator, makes one untimed
warm-up request, then sends the first ``--count`` requests of the
workload one after another.  Each request is classified at this boundary
as answered, rejected (an input rejection, which is a correct answer),
refused (a named budget ran out) or failed (anything else; the traceback
is kept).  A request still running at ``--deadline`` seconds is stopped
and counted as failed.  Each outcome is printed as one JSON line when its
request completes, so the records do not grow the process; the last line
holds the peak resident memory and wall time.  Before the first request
and after each one the worker times a fixed piece of reference work
(``reference_unit``), which tells how fast the shared machine ran just
then.

    python3 perfbench/worker.py --workload sweep_small --seed 1 --count 80
    python3 perfbench/worker.py --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside a request that ran too long.
    A BaseException, so that no handler in the program swallows it."""


# The machine's speed is sampled before the first request and after every
# request, for this share of the request's time (at least
# REFERENCE_MIN_S), and for SETUP_REFERENCE_S after a set-up probe is
# ready.
REFERENCE_SHARE = 0.1
REFERENCE_MIN_S = 0.002
SETUP_REFERENCE_S = 0.05


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def warm_up(knotsig) -> None:
    """The one untimed request every process makes after import."""
    knotsig.analyze(knotsig.AnalysisRequest(delta=knotsig.IntPoly((1, 0, -1, 0, 1)), m=7, signature=0))


def execute(knotsig, op: dict) -> dict:
    """Run one request through the public API.  Names are looked up on
    the package at call time, so the tracer's wrappers see the calls."""
    kind = op["kind"]
    if kind == "analyze":
        req = knotsig.AnalysisRequest(delta=knotsig.IntPoly(op["delta"]), m=op["m"], signature=op["s"])
        return {"report": knotsig.analyze(req).to_dict()}
    if kind == "analyze_tau":
        req = knotsig.AnalysisRequest(delta=knotsig.IntPoly(op["delta"]), m=op["m"], tau=tuple(op["tau"]))
        return {"report": knotsig.analyze_tau(req).to_dict()}
    if kind == "seifert":
        form = op["form"]
        pair = knotsig.form_to_pair(form)
        delta = knotsig.alexander_of_form(form)
        n = int(delta.degree) // 2
        if delta.evaluate(1) != (-1) ** n:
            delta = -delta  # sign-normalise for the Alexander conditions
        mil = knotsig.milnor_signatures(pair.s, pair.a)
        out = {
            "delta": list(delta.coeffs),
            "milnor": {"values": list(mil.values), "total": mil.total,
                       "kernel_dims": list(mil.kernel_dims)},
        }
        req = knotsig.AnalysisRequest(delta=delta, m=7, signature=op["signature"])
        out["report"] = knotsig.analyze(req).to_dict()
        out["tau_report"] = None
        if all(v in (-2, 2) for v in mil.values):
            req = knotsig.AnalysisRequest(delta=delta, m=7, tau=tuple(mil.values))
            out["tau_report"] = knotsig.analyze_tau(req).to_dict()
        return out
    raise ValueError(f"unknown operation kind {kind!r}")


def run_one(knotsig, op: dict, deadline: float) -> dict:
    """One request, classified.  ``result`` is the canonical JSON text of
    an answered request; ``error`` describes any other outcome."""
    refusals = (knotsig.BudgetExceededError, knotsig.CertificationError)
    rejections = (ValueError, knotsig.PolyParseError)
    rec = {"outcome": "answered", "latency_s": 0.0, "result": None, "error": None}
    t0 = time.perf_counter()
    if deadline > 0:
        signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        try:
            result = execute(knotsig, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        rec["outcome"] = "failed"
        rec["error"] = f"DeadlineExceeded: still running after {deadline:g} s"
    except refusals as exc:
        rec["outcome"] = "refused"
        rec["error"] = f"{type(exc).__name__}: {exc}"
    except rejections as exc:
        rec["outcome"] = "rejected"
        rec["error"] = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # the boundary: record and keep running
        rec["outcome"] = "failed"
        rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["traceback"] = traceback.format_exc()
    else:
        rec["result"] = json.dumps(result, sort_keys=True, separators=(",", ":"))
    rec["latency_s"] = time.perf_counter() - t0
    return rec


def reference_unit() -> int:
    """A fixed piece of pure-Python work of the kinds the program does:
    an integer polynomial product, a remainder modulo a prime, and some
    tuple and dict traffic."""
    a = [(i * 7919 + 13) % 1000003 for i in range(24)]
    b = [(i * 104729 + 7) % 999983 for i in range(24)]
    prod = [0] * 47
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    p = 2147483647
    f = [c % p for c in prod]
    inv = pow(b[-1], p - 2, p)
    while len(f) >= len(b):
        q = f[-1] * inv % p
        shift = len(f) - len(b)
        for i, c in enumerate(b):
            f[shift + i] = (f[shift + i] - q * c) % p
        f.pop()
    seen: dict[tuple[int, int], int] = {}
    for i, c in enumerate(f):
        key = (i % 7, c % 11)
        seen[key] = seen.get(key, 0) + c
    return len(seen)


def reference_speed(target: float) -> tuple[float, int]:
    """Run reference units for at least ``target`` seconds: (seconds,
    units).  Their time per unit is the machine's speed just then."""
    units = 0
    t0 = time.perf_counter()
    while True:
        reference_unit()
        units += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= target:
            return elapsed, units


def run_loop(knotsig, ops: list[dict], deadline: float, tracer=None) -> tuple[float, tuple[float, int]]:
    """Closed loop over ``ops``, printing one JSON line per request as it
    completes.  Returns the wall time in s and the reference sample taken
    before the first request."""
    start = time.perf_counter()
    lead = reference_speed(REFERENCE_MIN_S)
    for op_id, op in enumerate(ops):
        if tracer is None:
            rec = run_one(knotsig, op, deadline)
        else:
            with tracer.operation(op_id):
                rec = run_one(knotsig, op, deadline)
        # sample the machine's speed for a share of the time just spent;
        # each request lies between two samples
        target = max(REFERENCE_MIN_S, REFERENCE_SHARE * rec["latency_s"])
        rec["reference_s"], rec["reference_units"] = reference_speed(target)
        print(json.dumps(rec))
    return time.perf_counter() - start, lead


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=1, help="requests to run")
    ap.add_argument("--corpus-seed", type=int, default=None, help="request corpus (see workloads.py)")
    ap.add_argument("--deadline", type=float, default=0.0, help="per-request limit in s (0: none)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import knotsig

    warm_up(knotsig)
    if args.setup_only:
        print("ready", flush=True)
        ref_s, units = reference_speed(SETUP_REFERENCE_S)
        print(json.dumps({"reference_s": ref_s, "reference_units": units}))
        return 0

    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    corpus_seed = workloads.CORPUS_SEED if args.corpus_seed is None else args.corpus_seed
    ops = workloads.operations(args.workload, args.seed, args.count, corpus_seed)
    out: dict = {"summary": True}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer:
            wall, lead = run_loop(knotsig, ops, args.deadline, tracer)
        out["layers"] = tracing.layer_metrics(tracer.spans, len(ops))
        out["hit_bases"] = tracing.hit_bases(tracer.spans)
    else:
        wall, lead = run_loop(knotsig, ops, args.deadline)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["wall_s"] = wall
    out["lead_reference_s"], out["lead_reference_units"] = lead
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
