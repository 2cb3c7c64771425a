"""The summary of scripts/bench_pairs.py on fake perfbench records, its
exit status on a bad run, the bytecode its runs read, and its clean-up
when it is stopped by SIGTERM."""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import py_compile
import signal
import subprocess
import sys
import tempfile
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


def test_a_run_compiles_from_source(bench_pairs, monkeypatch, tmp_path):
    """A stale .pyc in the working tree's src/knotsig/__pycache__ is not
    read: the change side runs in a copy of the files git tracks or would
    track, and __pycache__/ is ignored.  No run's environment sets
    PYTHONPYCACHEPREFIX.  The working tree is a fresh git repository whose
    module has cached bytecode holding an older value than its source."""
    monkeypatch.setattr(sys, "pycache_prefix", None)  # the stale .pyc goes in the tree
    tree = tmp_path / "tree"
    package = tree / "src" / "knotsig"
    package.mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(tree)], check=True)
    (tree / ".gitignore").write_text("__pycache__/\n")
    (package / "__init__.py").write_text("")
    module = package / "probe.py"
    module.write_text("VALUE = 1\n")
    py_compile.compile(str(module), cfile=importlib.util.cache_from_source(str(module)),
                       invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
    stat = module.stat()
    module.write_text("VALUE = 2\n")  # same size and, below, the same mtime
    os.utime(module, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    probe = ("import json, sys; sys.path.insert(0, 'src'); from knotsig import probe;"
             " print(json.dumps({'value': probe.VALUE}))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    stale = subprocess.run([sys.executable, "-c", probe], cwd=tree, env=env, capture_output=True,
                           text=True)
    assert stale.stdout.strip() == '{"value": 1}'

    monkeypatch.setattr(bench_pairs, "ROOT", tree)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    envs = []
    real = bench_pairs.run_in_session

    def run_in_session(cmd, cwd, env=None):
        envs.append(env)
        return real([sys.executable, "-c", probe], cwd, env)

    monkeypatch.setattr(bench_pairs, "run_in_session", run_in_session)
    copy = tmp_path / "change"
    bench_pairs.copy_worktree(str(copy))
    assert sorted(p.relative_to(copy).as_posix() for p in copy.rglob("*") if p.is_file()) == [
        ".gitignore", "src/knotsig/__init__.py", "src/knotsig/probe.py"]
    runs = [bench_pairs.run_once(str(copy), "sweep_small", 1, None, 1.0) for _ in range(2)]
    assert runs == [{"value": 2}] * 2
    assert [("PYTHONPYCACHEPREFIX" in env, env["PYTHONDONTWRITEBYTECODE"]) for env in envs] == [
        (False, "1")] * 2


def test_unpack_outside_a_checkout_stops_with_one_line(bench_pairs, monkeypatch, tmp_path):
    """In a tree with no .git, as in a ``git archive`` export, the parent
    cannot be unpacked: the script stops with one line that names the tree."""
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    with pytest.raises(SystemExit, match=f"^bench_pairs: {tmp_path} is not a git checkout, so HEAD"
                                         " cannot be unpacked$"):
        bench_pairs.unpack("HEAD", str(tmp_path / "parent"))


@pytest.mark.parametrize("bad, code", [({}, 0), ({"correct": False}, 1), ({"failed": 2}, 1)])
def test_a_bad_run_fails_the_script(bench_pairs, monkeypatch, tmp_path, capsys, bad, code):
    """main exits 1 when a run is not correct or failed a request, and
    names the run; with every run clean it exits 0 and prints nothing to
    stderr.  The third of four fake runs, the parent's of pair 2, is the
    bad one."""
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    calls = []

    def run_once(checkout, *args):
        calls.append(checkout)
        return dict({"correct": True, "attempted": 20, "failed": 0, "metrics": metrics},
                    **(bad if len(calls) == 3 else {}))

    monkeypatch.setattr(bench_pairs, "unpack", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "out.json"
    argv = ["--parent", "HEAD", "--pairs", "2", "--workload", "sweep_small", "--out", str(out)]
    assert bench_pairs.main(argv) == code
    assert [Path(c).name for c in calls] == ["change", "parent", "parent", "change"]
    err = capsys.readouterr().err
    if bad:
        correct, failed = bad.get("correct", True), bad.get("failed", 0)
        assert err == f"bad run: sweep_small parent run 2: correct {correct}, failed {failed}\n"
    else:
        assert err == ""
    assert json.loads(out.read_text())["all_correct"] is (bad != {"correct": False})
    assert not list(tmp_path.glob("bench_pairs_*"))


# bench_pairs.main with no perfbench, in a git tree that holds only the
# script and BENCHMARK.json: the parent's tree holds one file, and the run
# is a child that records its pid and sleeps
DRIVER = """
import importlib.util, os, pathlib, sys
spec = importlib.util.spec_from_file_location("bench_pairs", {script!r})
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
bench_pairs.ROOT = pathlib.Path({root!r})


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
    tree = tmp_path / "tree"
    (tree / "scripts").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(tree)], check=True)
    for name in ("scripts/bench_pairs.py", "BENCHMARK.json"):
        (tree / name).write_bytes((SCRIPT.parent.parent / name).read_bytes())
    driver.write_text(DRIVER.format(script=str(SCRIPT), root=str(tree), pidfile=str(pidfile)))
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
        assert len(trees) == 1 and (trees[0] / "parent" / "unpacked").exists()
        assert (trees[0] / "change" / "scripts" / "bench_pairs.py").is_file()
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
