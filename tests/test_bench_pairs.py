"""The summary of scripts/bench_pairs.py on fake perfbench records."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records(ops, p50):
    return [{"correct": True, "metrics": {"ops_per_s": {"value": o, "unit": "1/s"},
                                          "latency_p50_ms": {"value": ms, "unit": "ms"}}}
            for o, ms in zip(ops, p50)]


def test_summary_counts_wins_by_direction(bench_pairs):
    parent = records([100, 110, 90, 105, 95], [1.0, 0.9, 1.1, 1.0, 1.2])
    change = records([120, 100, 91, 130, 96], [0.8, 0.9, 1.0, 1.1, 1.0])
    s = bench_pairs.summarize(parent, change, {"ops_per_s": "higher", "latency_p50_ms": "lower"})
    ops, p50 = s["ops_per_s"], s["latency_p50_ms"]
    assert (ops["parent_median"], ops["change_median"]) == (100, 100)
    # a tie (0.9 against 0.9) is no win
    assert (ops["change_won"], p50["change_won"]) == ("4/5", "3/5")
    assert ops["parent_quartiles"] == [92.5, 100, 107.5]
    assert ops["change_quartiles"] == [93.5, 100, 125]
    assert p50["change_vs_parent"] == 0.0


def test_summary_of_one_pair(bench_pairs):
    s = bench_pairs.summarize(records([10], [2.0]), records([12], [2.5]),
                              {"ops_per_s": "higher", "latency_p50_ms": "lower"})
    assert s["ops_per_s"] == {"parent_median": 10, "change_median": 12,
                              "parent_quartiles": [10, 10, 10], "change_quartiles": [12, 12, 12],
                              "change_won": "1/1", "change_vs_parent": 0.2}
    assert s["latency_p50_ms"]["change_won"] == "0/1"
    assert s["latency_p50_ms"]["change_vs_parent"] == 0.25
