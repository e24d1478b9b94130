"""Every name a library module imports, at module or function level, is read
somewhere in that module.  `from __future__` imports and the re-exports of
`__init__.py` are exempt."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "toryang").glob("*.py"))


def unused_imports(tree):
    """(line, name) of every imported name the module never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_guard_sees_an_unused_import():
    assert SOURCES, "no sources found"
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport sys as system\n"
                     "def f():\n    from json import dumps, loads\n    return loads(system.argv)\n")
    assert unused_imports(tree) == [(2, "os"), (5, "dumps")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []
