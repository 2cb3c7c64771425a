"""No private module-level name of the package is dead code.

A module-level ``_name`` of ``src/knotsig`` (a function, a class or an
assigned name; dunders aside) is live when some module of the package
uses it outside its own definition: as a name, an attribute or through
an import alias.  A use inside another private definition counts only
once that definition is live, so liveness spreads from public code to a
fixed point, and a helper that only dead code uses is dead too.  Tests
and perfbench do not count as uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

import knotsig

SOURCES = {p.stem: p.read_text() for p in sorted(Path(knotsig.__file__).parent.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Each private module-level name with the nodes of its definition."""
    defs: dict[str, list[ast.AST]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names, body = [node.name], node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names, body = [t.id for t in targets if isinstance(t, ast.Name)], node.value
        else:
            continue
        for name in filter(_private, names):
            defs.setdefault(name, []).append(body)
    return defs


def _uses(node: ast.AST, aliases: dict[str, str]) -> set[str]:
    """The names that the nodes under ``node`` use, aliases resolved."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(aliases.get(sub.id, sub.id))
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for every private module-level name of ``sources``
    (module name -> source text) that no live code uses."""
    owners: dict[tuple[str, str], set[str]] = {}  # (module, name) -> names its body uses
    used_by_public: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.asname
        }
        defs = _definitions(tree)
        private_bodies = {id(body) for bodies in defs.values() for body in bodies}
        for name, bodies in defs.items():
            owners[module, name] = set().union(*(_uses(b, aliases) for b in bodies)) - {name}
        for node in tree.body:
            parts = [node.value] if isinstance(node, (ast.Assign, ast.AnnAssign)) else [node]
            for part in parts:
                if part is not None and id(part) not in private_bodies:
                    used_by_public |= _uses(part, aliases)
    live: set[tuple[str, str]] = set()
    while True:
        reached = used_by_public.union(*(owners[key] for key in live))
        grown = {key for key in owners if key[1] in reached}
        if grown == live:
            break
        live = grown
    return sorted(f"{module}.{name}" for module, name in owners.keys() - live)


def test_no_dead_private_names():
    assert dead_private_names(SOURCES) == []


def test_the_check_follows_dead_helpers():
    """A helper used only by a dead helper is dead; one that live code or
    another module uses is live; a recursive call keeps nothing alive."""
    sources = {
        "a": (
            "_LEAVES = (list,)\n"
            "def _copy(x):\n    return [_copy(v) if type(v) in _LEAVES else v for v in x]\n"
            "def _used():\n    return 1\n"
            "def public():\n    return _used()\n"
            "def _shared():\n    return 2\n"
        ),
        "b": "from .a import _shared as _s\n\nX = _s()\n",
    }
    assert dead_private_names(sources) == ["a._LEAVES", "a._copy"]
