"""No private module-level name of the package is dead code.

A module-level ``_name`` of ``src/knotsig`` (a function, a class or an
assigned name; dunders aside) is live when some module of the package
uses it outside its own definition: as a name, an attribute or through
an import alias.  A use inside another private definition counts only
once that definition is live, so liveness spreads from public code to a
fixed point, and a helper that only dead code uses is dead too.  Tests
and perfbench do not count as uses.

A public module-level name needs a caller too, in another module-level
statement of the package (``__init__``'s re-exports aside), unless the
allow-list NO_CALLER_NEEDED names it with a reason.  And no function
takes a ``seed`` or ``max_rho_iterations``: no answer depends on either.
"""

from __future__ import annotations

import ast
from pathlib import Path

import knotsig

SOURCES = {p.stem: p.read_text() for p in sorted(Path(knotsig.__file__).parent.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined_names(node: ast.AST) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    the plain targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _definitions(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Each private module-level name with the nodes of its definition."""
    defs: dict[str, list[ast.AST]] = {}
    for node in tree.body:
        body = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else node
        for name in filter(_private, _defined_names(node)):
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


# Public names that no code of the package calls, each kept for a reader
# outside it.
NO_CALLER_NEEDED = {
    # traced by perfbench/tracing.py
    "modp.symmetric_common_factor",
    "obstruction.pi_set",
    "polys.is_squarefree_q",
    "realroots.isolate_roots",
    "realroots.sign_at_root",
    "realroots.sturm_count",
    "seifert.charpoly",
    # raised nowhere; perfbench/worker.py counts it as a refusal
    "errors.CertificationError",
    # the toolkit's constructors of forms and pairs, for its users
    "seifert.block_diag",
    "seifert.charpoly_of_pair",
    "seifert.e8_gram",
    "seifert.half_form",
    "seifert.pair_to_form",
    # the public inverse of report_render
    "pipeline.report_from_json",
}


def public_names_without_caller(sources: dict[str, str]) -> list[str]:
    """``module.name`` for every public module-level name of ``sources``
    (``__init__``'s re-exports aside) that no other module-level statement
    of any of them uses: a definition calling itself is no caller."""
    defined: list[tuple[str, str, tuple[str, int]]] = []  # (module, name, its statement)
    users: dict[str, set[tuple[str, int]]] = {}  # name -> (module, index) of each statement using it
    for module, source in sources.items():
        if module == "__init__":
            continue
        tree = ast.parse(source)
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.asname
        }
        for i, node in enumerate(tree.body):
            defined += [(module, name, (module, i)) for name in _defined_names(node)
                        if not name.startswith("_")]
            for name in _uses(node, aliases):
                users.setdefault(name, set()).add((module, i))
    return sorted(f"{module}.{name}" for module, name, stmt in defined
                  if not users.get(name, set()) - {stmt})


def test_every_public_name_has_a_caller():
    assert public_names_without_caller(SOURCES) == sorted(NO_CALLER_NEEDED)


def test_the_caller_check_ignores_self_use_and_reexports():
    sources = {
        "a": "def walk(x):\n    return walk(x)\n\ndef used():\n    return 1\n",
        "b": "from .a import used as u\n\nLIMIT = u()\n",
        "__init__": "from .a import walk\nfrom .b import LIMIT\n\nwalk(LIMIT)\n",
    }
    assert public_names_without_caller(sources) == ["a.walk", "b.LIMIT"]


def test_no_function_takes_a_seed():
    """No answer depends on a random stream or a budget's setting, so no
    function or method, private ones included, takes either as a knob."""
    knobs = []
    for module, source in SOURCES.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if arg.arg in ("seed", "max_rho_iterations"):
                        knobs.append(f"{module}.{getattr(node, 'name', 'lambda')}({arg.arg})")
    assert knobs == []
