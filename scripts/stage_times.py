"""Time named stages of the program on one workload's requests, in one interpreter.

    python3 scripts/stage_times.py [--workload factor_heavy] [--seed 1]
        [--corpus-seed 0] [--count 20]

Empties every memo (`knotsig.memos.clear`), then sends the first
``--count`` requests of the workload (perfbench/workloads.py) one after
another through perfbench's ``worker.execute``, with a timing wrapper
around each stage of STAGES, in every module that holds it.  Of
`_good_primes`, a generator, only the first draw is timed.  Prints, per
stage, its calls, its inclusive milliseconds (a call inside a call of the
same stage counts once) and its self milliseconds (less the stages called
inside it), then the requests' total.  The table goes out through
`knotsig.cli.write_lines`, the CLI's one writer, so when stdout is closed
before it is written (``... | head -1``), this exits 141, as a shell
reports SIGPIPE, with nothing on stderr.  These stages include layers that
perfbench does not trace.  Every patched name is restored in ``finally``.
Standard library only.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "perfbench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import knotsig  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from knotsig import memos  # noqa: E402
from knotsig.cli import write_lines  # noqa: E402

STAGES = (
    "zfactor._hensel_lift",
    "zfactor._hensel_step",
    "zfactor._good_primes",
    "modp._distinct_degree",
    "modp._equal_degree_factors",
    "obstruction._pair_primes",
    "zfactor._lift_facts",
)
FIRST_DRAW = {"zfactor._good_primes"}


class Clock:
    """Calls, inclusive and self seconds per stage, from a stack of open calls."""

    def __init__(self):
        self.calls, self.inclusive, self.own = Counter(), Counter(), Counter()
        self.stack: list[list] = []  # [stage, start, seconds in stages called inside]

    def enter(self, stage: str) -> None:
        self.stack.append([stage, time.perf_counter(), 0.0])

    def leave(self) -> None:
        stage, start, inner = self.stack.pop()
        elapsed = time.perf_counter() - start
        self.calls[stage] += 1
        self.own[stage] += elapsed - inner
        if self.stack:
            self.stack[-1][2] += elapsed
        if all(frame[0] != stage for frame in self.stack):
            self.inclusive[stage] += elapsed


def timed(clock: Clock, stage: str, original):
    def wrapper(*args, **kwargs):
        clock.enter(stage)
        try:
            return original(*args, **kwargs)
        finally:
            clock.leave()
    return wrapper


def timed_first_draw(clock: Clock, stage: str, original):
    def wrapper(*args, **kwargs):
        draws = original(*args, **kwargs)
        clock.enter(stage)
        try:
            first = next(draws)
        finally:
            clock.leave()
        yield first
        yield from draws
    return wrapper


def patch(clock: Clock) -> list[tuple[object, str, object]]:
    """Replace every attribute of every loaded knotsig module that holds a
    stage with its timing wrapper; returns (module, name, original) per
    replaced attribute."""
    modules = [m for n, m in list(sys.modules.items()) if m and n.split(".")[0] == "knotsig"]
    replaced = []
    for stage in STAGES:
        layer, _, name = stage.partition(".")
        original = getattr(sys.modules[f"knotsig.{layer}"], name)
        wrap = timed_first_draw if stage in FIRST_DRAW else timed
        wrapper = wrap(clock, stage, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, key, original))
                    setattr(module, key, wrapper)
    return replaced


def run(workload: str, seed: int, corpus_seed: int, count: int) -> tuple[Clock, Counter, float]:
    """The stage clock, the outcome counts and the total seconds of the
    first ``count`` requests, from empty memos."""
    ops = workloads.operations(workload, seed, count, corpus_seed)
    memos.clear()
    clock, outcomes = Clock(), Counter()
    replaced = patch(clock)
    start = time.perf_counter()
    try:
        for op in ops:
            try:
                worker.execute(knotsig, op)
                outcomes["answered"] += 1
            except (ValueError, knotsig.KnotsigError) as exc:  # rejections and refusals count too
                outcomes[type(exc).__name__] += 1
    finally:
        total = time.perf_counter() - start
        for module, key, original in replaced:
            setattr(module, key, original)
    return clock, outcomes, total


def table(clock: Clock, outcomes: Counter, total: float) -> list[str]:
    rows = [f"{'stage':32} {'calls':>7} {'incl ms':>9} {'self ms':>9}"]
    for stage in STAGES:
        label = stage + (" (first draw)" if stage in FIRST_DRAW else "")
        rows.append(f"{label:32} {clock.calls[stage]:>7} {1e3 * clock.inclusive[stage]:>9.3f}"
                    f" {1e3 * clock.own[stage]:>9.3f}")
    counts = ", ".join(f"{n} {kind}" for kind, n in sorted(outcomes.items()))
    rows.append(f"{sum(outcomes.values())} requests ({counts}): {1e3 * total:.3f} ms")
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="per-stage times of one workload's requests")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default="factor_heavy")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--corpus-seed", type=int, default=workloads.CORPUS_SEED)
    ap.add_argument("--count", type=int, default=20)
    args = ap.parse_args(argv)
    return write_lines(table(*run(args.workload, args.seed, args.corpus_seed, args.count)))


if __name__ == "__main__":
    sys.exit(main())
