"""The names the benchmark in perfbench/ looks up on knotsig.

perfbench/ drives the program from outside: its tracer wraps every
function of ``tracing.TRACED`` by name, and its worker sends requests
through the public API.  A name it reads that leaves the program breaks
the benchmark, not the program's own tests, so these check that surface
here.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import knotsig

# appended, so that ``oracles`` still names tests/oracles.py
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _snapshot() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "knotsig" or name.startswith("knotsig."))
        for attr, value in vars(mod).items()
    }


@pytest.mark.parametrize("layer, name", [(layer, fn) for layer, fns in tracing.TRACED.items() for fn in fns])
def test_traced_name_resolves(layer, name):
    assert callable(getattr(getattr(knotsig, layer), name))


def test_tracer_installs_and_restores():
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracer:
        patched = set(tracer.patched)
        assert {("knotsig.pipeline", "factor_z"), ("knotsig.seifert", "factor_z")} <= patched
        for layer, fns in tracing.TRACED.items():
            for fn in fns:
                assert (f"knotsig.{layer}", fn) in patched
                assert getattr(getattr(knotsig, layer), fn) is not before[(f"knotsig.{layer}", fn)]
    assert not tracer.patched
    assert _snapshot() == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_worker_answers_the_first_request(workload):
    (op,) = workloads.operations(workload, 0, 1)
    rec = worker.run_one(knotsig, op, 0)
    assert rec["outcome"] == "answered", rec["error"]
    result = json.loads(rec["result"])
    assert result["report"]["verdict"] in ("REALIZABLE", "NOT_ADMISSIBLE", "OBSTRUCTION_UNKNOWN", "OUT_OF_SCOPE")
    if op["kind"] == "seifert":
        assert result["milnor"]["kernel_dims"] == [2] * len(result["milnor"]["values"])
