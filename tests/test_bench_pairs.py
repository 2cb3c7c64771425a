"""The summary of scripts/bench_pairs.py on fake perfbench records, and
its clean-up when it is stopped by SIGTERM."""

from __future__ import annotations

import contextlib
import importlib.util
import os
import signal
import subprocess
import sys
import time
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


# bench_pairs.main with no git and no perfbench: the parent's tree holds
# one file, and the run is a child that records its pid and sleeps
DRIVER = """
import importlib.util, os, sys
spec = importlib.util.spec_from_file_location("bench_pairs", {script!r})
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def unpack(ref, dest):
    open(os.path.join(dest, "unpacked"), "w").close()


def run_once(checkout, *args):
    child = ("import os, time; open({pidfile!r} + '.tmp', 'w').write(str(os.getpid()));"
             " os.replace({pidfile!r} + '.tmp', {pidfile!r}); time.sleep(60)")
    bench_pairs.run_in_session([sys.executable, "-c", child], checkout)
    raise AssertionError("the run was not interrupted")


bench_pairs.unpack, bench_pairs.run_once = unpack, run_once
sys.exit(bench_pairs.main(["--parent", "HEAD", "--pairs", "1", "--workload", "sweep_small"]))
"""


def test_sigterm_removes_the_tree_and_stops_the_run(tmp_path):
    tmpdir, pidfile, driver = tmp_path / "tmp", tmp_path / "run.pid", tmp_path / "driver.py"
    tmpdir.mkdir()
    driver.write_text(DRIVER.format(script=str(SCRIPT), pidfile=str(pidfile)))
    proc = subprocess.Popen([sys.executable, str(driver)], env=dict(os.environ, TMPDIR=str(tmpdir)),
                            stderr=subprocess.PIPE, text=True)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pidfile.exists():
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "the run never started"
            time.sleep(0.05)
        child = int(pidfile.read_text())
        trees = list(tmpdir.glob("bench_pairs_*"))
        assert len(trees) == 1 and (trees[0] / "unpacked").exists()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        assert not list(tmpdir.glob("bench_pairs_*"))
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)
