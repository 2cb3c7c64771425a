"""Every memo of the package is made and cleared through `memos`.

`tests/test_pipeline.py` checks that the registry holds every module-level
memo and that each evicts at its bound; this module checks the sources: no
module but `memos` names ``lru_cache`` or calls ``cache_clear``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import knotsig

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
