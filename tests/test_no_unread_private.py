"""Every private function, method and class the library defines (a name with
one leading underscore, dunders exempt) is read somewhere in the library.
A read from the tests does not count: private names are not API."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "toryang").glob("*.py"))


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private(trees):
    """(file, line, name) of every private def or class in the trees, a
    {file: ast} map, whose name no tree reads as a name or an attribute."""
    defined, read = [], set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and is_private(node.name):
                defined.append((path, node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [(path, line, name) for path, line, name in defined if name not in read]


def test_the_guard_sees_an_unread_helper():
    assert SOURCES, "no sources found"
    trees = {"a.py": ast.parse("def _used():\n    pass\ndef _dead():\n    pass\n"
                               "class _Box:\n    def _hook(self):\n        pass\n"
                               "    def _stale(self):\n        pass\n"
                               "    def __len__(self):\n        return 0\n"),
             "b.py": ast.parse("from a import _used, _Box\n"
                               "def run():\n    _used()\n    return _Box()._hook()\n")}
    assert unread_private(trees) == [("a.py", 3, "_dead"), ("a.py", 8, "_stale")]


def test_every_private_definition_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert unread_private(trees) == []
