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


CALLERS = sorted(p for d in ("src/zsretrieval", "tests", "perfbench")
                 for p in (ROOT / d).glob("*.py"))


def unpassed_defaults(package: list[str], callers: list[str]) -> list[str]:
    """``function(param=)`` for each parameter with a default of a function or
    method that ``package`` defines, where no call in ``callers`` passes it,
    by keyword or by position. A call is matched by the name it calls (a
    class's for ``__init__``), and one that unpacks ``*`` or ``**`` passes
    every parameter."""
    defaults = {}  # (function, parameter) -> its position after self, or None
    for source in package:
        tree = ast.parse(source)
        owner = {f: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name, positional = fn.name, fn.args.posonlyargs + fn.args.args
            decorators = {getattr(d, "id", None) for d in fn.decorator_list}
            if fn in owner and "staticmethod" not in decorators:
                positional = positional[1:]  # self or cls
                name = owner[fn].name if name == "__init__" else name
            first = len(positional) - len(fn.args.defaults)
            defaults.update({(name, a.arg): first + i
                             for i, a in enumerate(positional[first:])})
            defaults.update({(name, a.arg): None for a, value in
                             zip(fn.args.kwonlyargs, fn.args.kw_defaults) if value is not None})
    passed, unpacks = set(), set()
    for source in callers:
        for call in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                unpacks.add(name)
            passed.update((name, k.arg) for k in call.keywords)
            passed.update((name, i) for i in range(len(call.args)))
    return sorted(f"{name}({param}=)" for (name, param), at in defaults.items()
                  if name not in unpacks and (name, param) not in passed
                  and (name, at) not in passed)


def test_the_scan_finds_a_default_no_call_passes():
    module = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
              "class C:\n    def __init__(self, x=0):\n        pass\n"
              "    def m(self, y=0, z=0):\n        pass\n"
              "    @staticmethod\n    def s(y=0):\n        pass\n"
              "def g(h=0):\n    pass\n")
    calls = "f(0, 1, e=5)\nC()\nobj.m(1)\nC.s(2)\ng(*args)\n"
    assert unpassed_defaults([module], [module, calls]) == ["C(x=)", "f(c=)", "f(d=)", "m(z=)"]


def test_every_default_is_passed_by_some_call():
    """A default no call overrides is a constant in disguise, or an option nothing uses."""
    sources = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unpassed_defaults([p.read_text(encoding="utf-8") for p in PACKAGE], sources) == []


def repeated_string_tuples(sources: dict[str, str]) -> list[str]:
    """Each tuple, list or set literal of two or more strings that ``sources``
    (by file name) write more than once, in any order, with where each stands."""
    places = {}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and len(node.elts) >= 2 and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
                key = tuple(sorted(e.value for e in node.elts))
                places.setdefault(key, []).append(f"{name}:{node.lineno}")
    return sorted(f"{key}: {', '.join(at)}" for key, at in places.items() if len(at) > 1)


def test_the_scan_finds_a_string_tuple_written_twice():
    sources = {"a.py": 'MODES = ("x", "y")\ndef f(m):\n    return m in ["y", "x"]\n',
               "b.py": 'ONE = ("x",)\nMIXED = ("x", 1)\nNAMES = {"x", "y", "z"}\nf(("x", "y"))\n'}
    assert repeated_string_tuples(sources) == ["('x', 'y'): a.py:1, a.py:3, b.py:4"]


def test_no_string_tuple_is_written_twice():
    """A set of names the package spells out twice can drift apart: name it once."""
    assert repeated_string_tuples({p.name: p.read_text(encoding="utf-8") for p in PACKAGE}) == []
