"""Every name a ``traceform`` module imports is used in that module.

This is the unused-import check of a linter, written on ``ast`` so that it
needs nothing past the standard library: an import that a change leaves
behind fails here.  ``__init__.py`` is exempt, because its imports are its
``__all__`` exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "traceform"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_named():
    source = ("from __future__ import annotations\nimport csv\nimport io\nimport os.path\n"
              "from .errors import PreconditionError, ValidationError as VE\n"
              "def f(x: VE) -> None:\n    return io.StringIO(x)\n")
    assert unused_imports(source) == ["PreconditionError", "csv", "os"]
