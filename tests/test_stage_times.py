"""scripts/stage_times.py on two requests of each workload."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import run_with_closed_stdout

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stage_times.py"


@pytest.fixture(scope="module")
def stage_times():
    spec = importlib.util.spec_from_file_location("stage_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def knotsig_attributes() -> dict:
    return {(name, key): value for name, module in list(sys.modules.items())
            if module and name.split(".")[0] == "knotsig" for key, value in vars(module).items()}


@pytest.mark.parametrize("workload", ["sweep_small", "factor_heavy", "seifert_forms"])
def test_two_requests_of_each_workload(stage_times, capsys, workload):
    before = knotsig_attributes()
    assert stage_times.main(["--workload", workload, "--count", "2"]) == 0
    assert knotsig_attributes() == before  # every patched name is restored
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["stage", "calls", "incl", "ms", "self", "ms"]
    rows = {line.split()[0]: line.split()[-3:] for line in lines[1:-1]}
    assert list(rows) == list(stage_times.STAGES)
    for calls, inclusive, own in rows.values():
        assert int(calls) >= 0 and float(inclusive) >= float(own) >= 0
    assert lines[-1].startswith("2 requests (")
    if workload == "factor_heavy":
        assert all(int(rows[stage][0]) > 0 for stage in stage_times.STAGES)


@pytest.mark.parametrize("workload, count, steps", [
    ("factor_heavy", 20, 25), ("sweep_small", 320, 24), ("seifert_forms", 8, 11)])
def test_hensel_steps_of_a_cold_pass(stage_times, workload, count, steps):
    """One 20 s perfbench pass of each workload (seed 1, corpus 0) takes
    this many quadratic steps of the split tree: the linear modular
    factors lift as roots and take none (85, 59 and 30 when every factor
    was a leaf of the tree)."""
    clock, _, _ = stage_times.run(workload, 1, 0, count)
    assert clock.calls["zfactor._hensel_step"] == steps


def test_self_time_leaves_out_nested_stages(stage_times, monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(stage_times.time, "perf_counter", lambda: next(ticks))
    clock = stage_times.Clock()
    clock.enter("outer")      # 0
    clock.enter("inner")      # 1
    clock.enter("inner")      # 2
    clock.leave()             # 3: inner 1 s
    clock.leave()             # 4: inner 3 s, of them 1 s inside itself
    clock.leave()             # 5: outer 5 s
    assert clock.calls == {"outer": 1, "inner": 2}
    assert clock.inclusive == {"outer": 5, "inner": 3}
    assert clock.own == {"outer": 2, "inner": 3}


def test_a_closed_stdout_exits_141_silently():
    """As ``stage_times.py ... | head -1`` does once head has read its line."""
    command = (sys.executable, str(SCRIPT), "--workload", "sweep_small", "--count", "2")
    assert run_with_closed_stdout(*command) == (141, "")
