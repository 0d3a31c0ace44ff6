"""Every module uses each name it imports, and the package reads each private
name it defines."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "zsretrieval").glob("*.py"))
MODULES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names an import binds that no expression of the module reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import a.b binds a
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os.path\nimport sys as s\nfrom x import y, z\nz()\n") == [
        "os", "s", "y"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """The private names (``_name``, not ``__dunder__``) that a module of
    ``sources`` defines as a function, class, method or module constant, and
    that no expression of any of them reads, as a name or an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    private = {name for name in defined
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
    return sorted(private - read)


def test_the_scan_finds_an_unread_private_name():
    module = ("_K, _UNREAD = 1, 2\n_T: int = 3\ndef _f():\n    return _K\n"
              "class _C:\n    def __init__(self):\n        self._m()\n"
              "    def _m(self):\n        self._x = 1\n    def _n(self):\n        pass\n")
    assert unread_private_names([module]) == ["_C", "_T", "_UNREAD", "_f", "_n"]
    reader = "from .m import _C, _T, _UNREAD, _f\n_C._n(_f, _T, _UNREAD)\n"
    assert unread_private_names([module, reader]) == []


def test_the_package_reads_each_private_name_it_defines():
    assert unread_private_names([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


SQUARE_LOSS_KINDS = {"STL", "ZSL_ME", "ZSL_TE"}


def kinds_named_in_functions(source: str) -> list[str]:
    """``function:NAME`` for each square-loss kind constant that the body of a
    function or method of ``source`` names, bare or as an attribute."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in (n for stmt in fn.body for n in ast.walk(stmt)):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name in SQUARE_LOSS_KINDS:
                    found.add(f"{fn.name}:{name}")
    return sorted(found)


def test_the_scan_finds_a_kind_named_in_a_function():
    module = ("from .store import STL, ZSL_TE\nTABLE = {STL: 1}\n"
              "def f(kind=ZSL_TE):\n    return kind == store.ZSL_ME\n"
              "class C:\n    kind = STL\n    def m(self):\n        return [STL]\n")
    assert kinds_named_in_functions(module) == ["f:ZSL_ME", "m:STL"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_function_names_a_square_loss_kind(path):
    """A kind's tasks and blocks are read from store.TASKS, never by comparing with the kind."""
    assert kinds_named_in_functions(path.read_text(encoding="utf-8")) == []
