"""No module of the package, and no script, test or demo, imports a name
it never uses.

No linter runs on the repository, so this is its unused-import check:
each module of the package except ``__init__`` (which re-exports) and
each .py file of ``scripts``, ``tests`` and ``demos`` is parsed with
`ast`, and every name bound by an import must occur as a name somewhere
in the file.  An import on a line marked ``# noqa: F401`` is exempt, as
are ``from __future__`` imports.  ``perfbench`` is not scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import knotsig

PACKAGE = Path(knotsig.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BESIDE = sorted(p for folder in ("scripts", "tests", "demos") for p in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names of ``source`` that it never uses, with lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES + BESIDE,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_a_leftover():
    source = "from .realroots import rho_delta, rho_p\nimport math\n\nrho_delta(math.pi)\n"
    assert unused_imports(source) == ["rho_p (line 1)"]
    assert unused_imports("from .zfactor import factor_z  # noqa: F401  patched by tests\n") == []
