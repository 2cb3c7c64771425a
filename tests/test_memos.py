"""Every memo of the package is made and cleared through `memos`, is
listed in its table and is used.

`tests/test_pipeline.py` checks that the registry holds every module-level
memo and that each evicts at its bound; this module checks the sources: no
module but `memos` names ``lru_cache`` or calls ``cache_clear``.  It also
checks that the table in the `memos` docstring lists exactly the
registered memos, and that each ``lru_cache`` memo is hit on some
workload of the benchmark in perfbench/.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path

import knotsig
from knotsig import memos

# appended after tests/, as in test_benchmark_surface.py
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SOURCES = {p.stem: p.read_text() for p in sorted(Path(knotsig.__file__).parent.glob("*.py"))}


def names(source: str) -> set[str]:
    """Every imported name, name and attribute that ``source`` uses."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_only_memos_makes_and_clears_memos():
    bypass = {module: sorted(names(source) & {"lru_cache", "cache_clear"})
              for module, source in SOURCES.items() if module != "memos"}
    assert {module: used for module, used in bypass.items() if used} == {}


def test_the_check_sees_a_bypass():
    assert names("from functools import lru_cache\n") >= {"lru_cache"}
    assert names("import functools\n\nf = functools.lru_cache(maxsize=4)(len)\n") >= {"lru_cache"}
    assert names("_memo.cache_clear()\n") >= {"cache_clear"}
    assert not names("def cache_clear(self):\n    self.entries.clear()\n") & {"cache_clear"}


def test_the_per_factor_bound_follows_the_per_input_bound():
    """One setting: PER_FACTOR leaves 16 parts per remembered input, room
    for the 6 factors and 15 pairs of the largest benchmark Delta."""
    assert knotsig.memos.PER_FACTOR == 16 * knotsig.memos.PER_INPUT == 1024


def defined_memos() -> dict[str, object]:
    """Every module-level memo of knotsig (an object with ``cache_clear``,
    classes aside, as `tests/test_pipeline.py::test_the_fixture_clears_every_memo`
    finds them), as ``module.name`` of the module that defines it."""
    found = {}
    for info in pkgutil.iter_modules(knotsig.__path__):
        module = importlib.import_module(f"knotsig.{info.name}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_clear") and not isinstance(value, type)
                    and value.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = value
    return found


def test_the_table_lists_every_memo():
    listed = re.findall(r"^    (\w+\.\w+) ", memos.__doc__, re.MULTILINE)
    found = defined_memos()
    assert sorted(listed) == sorted(found)
    assert sorted(map(id, found.values())) == sorted(map(id, memos.MEMOS))


def test_every_lru_cache_memo_is_hit_on_some_workload():
    """One pass of each workload's first ``run.request_count(w, 20)``
    requests at seed 1, corpus seed 0, from empty memos, through
    perfbench's ``worker.run_one``: a memo that no workload hits costs
    its misses and holds nothing a request reads again."""
    lru = {name: memo for name, memo in defined_memos().items() if hasattr(memo, "cache_info")}
    hits = Counter()
    for workload in workloads.WORKLOADS:
        memos.clear()
        for op in workloads.operations(workload, 1, run.request_count(workload, 20), 0):
            assert worker.run_one(knotsig, op, 0)["outcome"] != "failed"
        hits.update({name: memo.cache_info().hits for name, memo in lru.items()})
    assert [name for name in lru if not hits[name]] == []
