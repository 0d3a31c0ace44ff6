"""Every module uses each name it imports."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "zsretrieval").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py")


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
