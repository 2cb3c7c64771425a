"""Tests of the benchmark itself (not of knotsig).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import knotsig  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def take(workload: str, seed: int, n: int) -> list[dict]:
    return workloads.operations(workload, seed, n)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    n = workloads.CYCLE_OPS[workload]
    first, again, other = take(workload, 7, n), take(workload, 7, n), take(workload, 8, n)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_sweep_small_mix():
    ops = take("sweep_small", 3, 16 * 24)
    kinds = {op["input"] for op in ops}
    assert kinds == {"well_formed", "squared", "perturbed", "nonsymmetric"}
    degrees = {len(op["delta"]) - 1 for op in ops}
    assert min(degrees) >= 4 and max(degrees) <= 18
    assert {op["kind"] for op in ops} == {"analyze", "analyze_tau"}
    # many requests share one Delta
    assert len({tuple(op["delta"]) for op in ops}) * 8 < len(ops)
    for op in ops:
        if op["input"] == "well_formed":
            assert oracles.conditions(tuple(op["delta"]))
        if op["input"] == "perturbed":
            assert not oracles.conditions(tuple(op["delta"]))


def test_factor_heavy_degrees():
    ops = take("factor_heavy", 3, 30)
    assert {len(op["delta"]) - 1 for op in ops} == {24, 30, 36}
    assert len({tuple(op["a_values"]) for op in ops}) == len(ops)
    for op in ops:
        assert len(set(op["a_values"])) == len(op["a_values"])
        assert set(op["a_values"]) <= set(workloads.IN_SCOPE_A)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corpus_is_fixed_and_seed_sets_order(workload):
    def inputs(ops):
        return [json.dumps({k: v for k, v in op.items() if k != "tau"}, sort_keys=True) for op in ops]

    n = 2 * workloads.CYCLE_OPS[workload]
    one, two = inputs(take(workload, 1, n)), inputs(take(workload, 2, n))
    assert sorted(one) == sorted(two) and one != two
    held_out = inputs(workloads.operations(workload, 1, n, corpus_seed=1))
    assert sorted(held_out) != sorted(one)


def test_seifert_forms_are_unimodular_with_named_lattice():
    ops = take("seifert_forms", 3, 9)
    assert {op["lattice"] for op in ops} == set(workloads.LATTICES)
    for op in ops:
        a = op["form"]
        n = len(a)
        gram, sig = workloads.LATTICES[op["lattice"]]
        s = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        assert s == [list(r) for r in gram]
        assert abs(workloads.int_det(s)) == 1
        assert workloads.int_det(a) != 0
        assert sig == oracles.numpy_signature(op["lattice"])


def test_rho_table_matches_exact_count():
    for name, coeffs in workloads.BASE_FACTORS.items():
        assert workloads.BASE_RHO[name] == oracles.rho(coeffs), name


def _snapshot():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "knotsig" or name.startswith("knotsig.")
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_every_attribute_after_an_exception():
    before = _snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert ("knotsig.pipeline", "factor_z") in tracer.patched
            assert ("knotsig.seifert", "factor_z") in tracer.patched
            assert knotsig.pipeline.factor_z is not before[("knotsig.pipeline", "factor_z")]
            with tracer.operation(0):
                worker.warm_up(knotsig)
            raise RuntimeError("boom")
    assert _snapshot() == before
    assert not tracer.patched
    names = {s.name for s in tracer.spans}
    assert {"op", "pipeline.analyze", "zfactor.factor_z", "realroots.rho_delta"} <= names


def test_layer_metrics_self_time_and_counts():
    S = tracing.Span
    spans = [
        S("op", "", 0, -1, 0.0, 1.0, child_s=0.8),
        S("zfactor.factor_z", "pipeline", 0, 0, 0.1, 0.9, child_s=0.5),
        S("polys.divides", "zfactor", 0, 1, 0.2, 0.7, hit=True),
        S("polys.divides", "zfactor", 1, -1, 0.0, 0.1, hit=False),
    ]
    m = tracing.layer_metrics(spans, n_ops=2)
    assert m["zfactor.factor_z.ms"] == pytest.approx(400.0)
    assert m["zfactor.factor_z.self_ms"] == pytest.approx(150.0)
    assert m["polys.divides.calls"] == 1.0
    assert m["polys.divides.hit_ratio"] == 0.5
    assert set(m) == set(tracing.LAYER_METRICS)


def test_oracle_catches_a_wrong_report():
    op = next(op for op in take("sweep_small", 1, 40)
              if op["input"] == "well_formed" and op["kind"] == "analyze")
    rec = worker.run_one(knotsig, op, deadline=0)
    assert rec["outcome"] == "answered"
    assert oracles.check(op, rec) == []
    result = json.loads(rec["result"])
    result["report"]["rho"] += 2
    bad = dict(rec, result=json.dumps(result))
    assert oracles.check(op, bad)


def test_request_count_is_whole_cycles():
    for workload in workloads.WORKLOADS:
        cycle = workloads.CYCLE_OPS[workload]
        assert run.request_count(workload, 0.01) == cycle
        assert run.request_count(workload, 20) % cycle == 0


def test_passes_that_differ_are_reported():
    def rec(outcome, result, error=None):
        return {"outcome": outcome, "result": result, "error": error, "latency_s": 0.1}

    same = [rec("answered", "{}"), rec("refused", None, "BudgetExceededError: cap")]
    merged, problems = run.merge_passes([same, list(same)])
    assert merged == same and problems == []
    late = rec("failed", None, "DeadlineExceeded: still running after 30 s")
    merged, problems = run.merge_passes([same, [rec("answered", '{"x":1}'), late]])
    assert problems == ["op 0: passes differ (['answered', 'answered'])"]
    assert merged[1] is late  # stopped at the limit in one pass: failed


def test_each_request_is_scaled_by_the_samples_around_it():
    unit = run.REFERENCE_UNIT_S
    summary = {"lead_reference_s": 10 * unit, "lead_reference_units": 10}
    records = [{"reference_s": 20 * 2 * unit, "reference_units": 20},
               {"reference_s": 10 * 4 * unit, "reference_units": 10}]
    # before the first request the machine ran at nominal speed, after it
    # at half speed, after the second at a quarter
    assert run.request_speeds(records, summary) == pytest.approx([50 / 30, 80 / 30])
    assert run.pass_speed(records, summary) == pytest.approx(90 / 40)


def _bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_the_benchmark_metrics(trace):
    cfg = _bench_config()
    proc = _run("--workload", "sweep_small", "--seed", "1", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = cfg["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert [w["name"] for w in cfg["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep_small", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
