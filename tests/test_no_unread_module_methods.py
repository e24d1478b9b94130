"""Every method that `repbase.Module` or a library subclass of it defines is
read as an attribute somewhere in the library, or is a traced layer named
in `perfbench/layers.py`, or is listed in KEPT with the reason it stays.

A method is read as `obj.name`, so a plain name does not count (a loop
variable `level` does not read a `level` method), and neither does a read
inside a method of the same name: a wrapper or a tensor product that passes
a hook on to its factors (`self.base.hook(...)`) does not make the hook
used.  A read from the tests does not count either."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "toryang").glob("*.py"))
LAYERS = ROOT / "perfbench" / "layers.py"

# method name -> the reason it is kept although nothing above reads it
KEPT = {}


def reads(tree):
    """Every name the tree reads as an attribute, except a read inside a
    function of that same name."""
    out = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def layer_names(tree):
    """Every dotted part of every string in the tree: the layer
    'Module.apply_e' names Module and apply_e."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")}


def unread_methods(trees, named=frozenset()):
    """(file, line, class, method) of every method, dunders exempt, that a
    class deriving from `Module` in the trees (a {file: ast} map) defines and
    that no tree reads (`reads`) and `named` does not name."""
    classes, read = {}, set()
    for path, tree in trees.items():
        read |= reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))}
                classes[node.name] = (path, node, bases)
    family, grown = {"Module"}, True
    while grown:
        grown = False
        for name, (_, _, bases) in classes.items():
            if name not in family and bases & family:
                family.add(name)
                grown = True
    return [(path, item.lineno, name, item.name)
            for name, (path, node, _) in classes.items() if name in family
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))
            and item.name not in read and item.name not in named]


def test_the_guard_sees_an_unread_hook():
    assert SOURCES, "no sources found"
    trees = {"a.py": ast.parse("class Module:\n"
                               "    def size(self, v):\n        return 0\n"
                               "    def rows(self, v):\n        return self.size(v)\n"
                               "    def level(self, v):\n        return 0\n"
                               "class Wrapper(Module):\n"
                               "    def level(self, v):\n        return self.base.level(v)\n"
                               "    def traced(self):\n        return 0\n"
                               "class Other:\n    def stale(self):\n        pass\n"),
             "b.py": ast.parse("def run(m):\n    for level in range(2):\n"
                               "        m.rows(level)\n")}
    assert unread_methods(trees, {"traced"}) == [("a.py", 6, "Module", "level"),
                                                 ("a.py", 9, "Wrapper", "level")]


def test_every_module_method_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    named = layer_names(ast.parse(LAYERS.read_text(), str(LAYERS))) | set(KEPT)
    assert unread_methods(trees, named) == []
