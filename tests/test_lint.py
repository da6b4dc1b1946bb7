"""Every name a ``traceform`` module imports is used in that module, every
private helper it defines and every private member of its classes is read
somewhere in the package, and every helper of ``tests/helpers.py`` is read by
the tests or the scripts.

These are the unused-import and dead-code checks of a linter, written on
``ast`` so that they need nothing past the standard library: an import, a
``_name`` helper or a ``_name`` method or property that a change leaves
behind fails here.  ``__init__.py`` is exempt from the import check, because
its imports are its ``__all__`` exports.
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


def read_names(trees) -> set[str]:
    """Every name the trees read, as a name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def defined_names(tree) -> list[str]:
    """The module-level functions, classes and constants a tree defines,
    dunder names left out."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    return [d for d in defined if not d.startswith("__")]


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level ``_name`` functions, classes and constants of the
    sources, by module name, that no source reads as a name or an attribute,
    sorted as "module._name"."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = read_names(trees.values())
    return sorted(f"{name}.{d}" for name, tree in trees.items() for d in defined_names(tree)
                  if d.startswith("_") and d not in read)


def test_every_private_helper_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert dead_helpers(sources) == []


def test_dead_helpers_are_named():
    sources = {"a": "_K = 1\n_J: int = 2\n__all__ = []\ndef _f():\n    return _K\n"
                    "class _C:\n    pass\ndef g(x):\n    return x._m()\ndef _m():\n    pass\n",
               "b": "from .a import _f\n_f()\n_L = _L2 = 3\n"}
    assert dead_helpers(sources) == ["a._C", "a._J", "b._L", "b._L2"]


def dead_members(sources: dict[str, str]) -> list[str]:
    """The ``_name`` methods, properties and cached properties of the classes
    of the sources, dunder names left out, that no source reads as a name or
    an attribute, sorted as "module.Class._name"."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = read_names(trees.values())
    return sorted(f"{name}.{cls.name}.{f.name}" for name, tree in trees.items()
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for f in cls.body if isinstance(f, ast.FunctionDef)
                  and f.name.startswith("_") and not f.name.startswith("__") and f.name not in read)


def test_every_private_member_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert dead_members(sources) == []


def test_dead_members_are_named():
    sources = {"a": "class A:\n    def _m(self):\n        return self._p\n"
                    "    @property\n    def _p(self):\n        return 1\n"
                    "    @cached_property\n    def _t(self):\n        return 2\n"
                    "    @cached_property\n    def _u(self):\n        return 3\n"
                    "    def __eq__(self, other):\n        return True\n"
                    "    def f(self):\n        return self._m()\n"
                    "    class _B:\n        def _n(self):\n            pass\n",
               "b": "def g(a):\n    return a._t\n"}
    assert dead_members(sources) == ["a.A._u", "a._B._n"]


def test_every_test_helper_is_read():
    """Every function, class and constant of ``tests/helpers.py`` is read in
    some file of ``tests/`` or ``scripts/``: a retired oracle leaves none of
    its parts behind."""
    tests = Path(__file__).resolve().parent
    sources = [*tests.glob("*.py"), *(tests.parent / "scripts").glob("*.py")]
    read = read_names(ast.parse(p.read_text()) for p in sources)
    helpers = defined_names(ast.parse((tests / "helpers.py").read_text()))
    assert [name for name in helpers if name not in read] == []
