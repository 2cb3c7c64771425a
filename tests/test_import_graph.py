"""The package's import graph: every import of one knotsig module by
another is a module-level statement, and the graph has no cycle, so each
module can be read after the modules it imports.  ``polys``, the ring
that everything else computes in, imports no package module but
``errors``."""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import knotsig

SOURCES = {p.stem: p.read_text() for p in sorted(Path(knotsig.__file__).parent.glob("*.py"))}


def package_imports(source: str) -> list[tuple[str, bool]]:
    """(imported module, at module level) for each relative import of
    ``source``; ``from . import memos`` imports ``memos``."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            out += [(name.split(".")[0], id(node) in top) for name in names]
    return out


def import_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    return {module: {name for name, _ in package_imports(source)} for module, source in sources.items()}


def test_every_package_import_is_at_module_level():
    nested = [f"{module} imports {name}" for module, source in SOURCES.items()
              for name, top in package_imports(source) if not top]
    assert nested == []


def test_the_import_graph_has_no_cycle():
    graph = import_graph(SOURCES)
    assert set().union(*graph.values()) <= set(graph)
    list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_polys_imports_only_errors():
    assert import_graph(SOURCES)["polys"] == {"errors"}


def test_the_checks_see_a_nested_import_and_a_cycle():
    sources = {
        "a": "from .b import f\n\ndef g():\n    from .c import h\n    return h\n",
        "b": "from . import a\n\nf = 1\n",
        "c": "h = 2\n",
    }
    assert package_imports(sources["a"]) == [("b", True), ("c", False)]
    graph = import_graph(sources)
    assert graph == {"a": {"b", "c"}, "b": {"a"}, "c": set()}
    with pytest.raises(CycleError):
        list(TopologicalSorter(graph).static_order())
