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

# appended after tests/, whose module names perfbench/ does not reuse (checked below)
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_tests_and_perfbench_share_no_module_name():
    """Both directories are put on sys.path, so in one pytest session a
    module name in both would import whichever of the two came first."""
    here = os.path.dirname(os.path.abspath(__file__))

    def names(directory):
        return {name[:-3] for name in os.listdir(directory) if name.endswith(".py")}

    assert not names(here) & names(os.path.join(here, "..", "perfbench"))


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


def test_warm_up_traces_the_factor_stage():
    """The warm-up analyze, traced as perfbench traces it, records the
    analysis, the factorization of P and the rho count as spans, the rho
    count inside the factorization.

    perfbench's own tests need a ``realroots.rho_delta`` span in the
    warm-up, so each factor's rho is counted by `rho_delta` on the trace
    model of its Delta_f, once, in the record of its v-model
    (`zfactor._lift_facts`), which `factor_z` builds.  Once the benchmark
    no longer needs that span, the record may count rho as
    ``2 * v_root_count(q)`` instead, and this test changes with it."""
    tracer = tracing.Tracer()
    with tracer:
        with tracer.operation(0):
            worker.warm_up(knotsig)
    names = {s.name for s in tracer.spans}
    assert {"pipeline.analyze", "zfactor.factor_z", "realroots.rho_delta"} <= names

    def ancestors(span):
        while span.parent >= 0:
            span = tracer.spans[span.parent]
            yield span.name

    for span in tracer.spans:
        if span.name == "realroots.rho_delta":
            assert "zfactor.factor_z" in ancestors(span)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_worker_answers_the_first_request(workload):
    (op,) = workloads.operations(workload, 0, 1)
    rec = worker.run_one(knotsig, op, 0)
    assert rec["outcome"] == "answered", rec["error"]
    result = json.loads(rec["result"])
    assert result["report"]["verdict"] in ("REALIZABLE", "NOT_ADMISSIBLE", "OBSTRUCTION_UNKNOWN", "OUT_OF_SCOPE")
    if op["kind"] == "seifert":
        assert result["milnor"]["kernel_dims"] == [2] * len(result["milnor"]["values"])


def _real_calls(f1, f2) -> dict[str, tuple]:
    """Arguments of one real call of each function whose result a
    perfbench extractor reads, keyed by its traced name."""
    a, b = (knotsig.PolyModP.from_int_poly(f, 2) for f in (f1, f2))
    return {
        "polys.divides": (f1, f1 * f2),
        "obstruction.pi_set": (f1, f2),
        "modp.symmetric_common_factor": (a, b),
        "modp.factor_mod_p": (a,),
        "intfactor.integer_factor": (knotsig.resultant(f1, f2),),
    }


@pytest.mark.parametrize("name", sorted(tracing.HIT.keys() | tracing.SIZE.keys()))
def test_extractors_read_the_result_shapes(name, f1, f2):
    """Each hit extractor gives a bool and each size extractor an int on
    a real result of its traced function, so a change of result shape
    fails here and not only in a traced benchmark run."""
    layer, _, fn = name.partition(".")
    args = _real_calls(f1, f2)[name]
    result = getattr(getattr(knotsig, layer), fn)(*args)
    if name in tracing.HIT:
        assert type(tracing.HIT[name](args, result)) is bool
    if name in tracing.SIZE:
        assert type(tracing.SIZE[name](args, result)) is int
