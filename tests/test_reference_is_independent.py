"""The Fraction schoolbook in `tests/reference.py` stays independent of the
engine it checks: it imports from `toryang` only the plain-dict vector
helpers and the suffix recursion, and reads no compiled row (`sweep_row`,
`_mode_table`, any `_int_*` name).  No library module imports it.

The test-local schoolbooks of the exact-sum kernels stay independent of
them too: `sb_*` in `test_shift_op_schoolbook.py`, `ref_*` in
`test_multipoly.py` and `schoolbook` in `test_relation_kernel.py` read no
`_int_*` name, `_mpoly`, `_op` or `_div_vandermonde_int`, nor do the
functions of their file that they call."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "toryang").glob("*.py"))
ALLOWED = {"vec", "vsum", "_suffix_images"}
FORBIDDEN = {"sweep_row", "_mode_table"}
SCHOOLBOOKS = {
    "test_shift_op_schoolbook.py": lambda name: name.startswith("sb_"),
    "test_multipoly.py": lambda name: name.startswith("ref_"),
    "test_relation_kernel.py": lambda name: name == "schoolbook",
}
KERNELS = {"_mpoly", "_op", "_div_vandermonde_int"}


def read_name(node):
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def engine_reads(tree):
    """(line, name) of every import from `toryang` other than ALLOWED, and
    of every name or attribute read that is FORBIDDEN or starts `_int_`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "toryang":
            found += [(node.lineno, a.name) for a in node.names if a.name not in ALLOWED]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] == "toryang"]
        name = read_name(node)
        if name is not None and (name in FORBIDDEN or name.startswith("_int_")):
            found.append((node.lineno, name))
    return found


def kernel_reads(tree, is_schoolbook):
    """(function, line, name) of every kernel name (`_int_*` or KERNELS) that
    a schoolbook of the tree reads, by its own name or an import alias, or
    that a module-level function it calls, directly or not, reads."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    alias = {a.asname or a.name: a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names}
    todo = [name for name in defs if is_schoolbook(name)]
    seen, found = set(todo), []
    while todo:
        fn = todo.pop()
        for node in ast.walk(defs[fn]):
            name = read_name(node)
            if name is None:
                continue
            real = alias.get(name, name)
            if real.startswith("_int_") or real in KERNELS:
                found.append((fn, node.lineno, name))
            elif name in defs and name not in seen:
                seen.add(name)
                todo.append(name)
    return sorted(found)


def reference_imports(tree):
    """(line, name) of every import of a module named `reference`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if "reference" in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            if "reference" in (node.module or "").split("."):
                found.append((node.lineno, node.module))
            found += [(node.lineno, a.name) for a in node.names if a.name == "reference"]
    return found


def test_the_guards_see_a_planted_violation():
    assert SOURCES, "no sources found"
    planted = ast.parse("from toryang.repbase import vec, _int_row\n"
                        "import toryang.repbase\n"
                        "def f(m, label):\n"
                        "    return m.sweep_row(('e', 0), label), _int_stepper(m), vec(label)\n")
    assert engine_reads(planted) == [(1, "_int_row"), (2, "toryang.repbase"),
                                     (4, "sweep_row"), (4, "_int_stepper")]
    planted = ast.parse("import reference\nfrom . import reference as r\n"
                        "def f():\n    from reference import apply_word\n    return apply_word\n")
    assert reference_imports(planted) == [(1, "reference"), (2, "reference"),
                                          (4, "reference")]


def test_the_kernel_guard_sees_a_planted_violation():
    planted = ast.parse("from toryang.scalars import _int_sum as add, _over\n"
                        "from toryang import diffops\n"
                        "def helper(p):\n    return _mpoly(1, p.nums, p.den)\n"
                        "def sb_sum(a, b):\n    return add([a, b]), _over(1, 2)\n"
                        "def ref_product(p, q):\n    return helper(p), diffops._op\n"
                        "def schoolbook(t):\n    return M._int_reduce(t, 1), deeper(t)\n"
                        "def deeper(t):\n    return _div_vandermonde_int(t, ())\n"
                        "def kernel_route(t):\n    return add(t), _int_reduce(t, 1)\n")
    assert kernel_reads(planted, lambda name: name.startswith(("sb_", "ref_"))
                        or name == "schoolbook") == [
        ("deeper", 12, "_div_vandermonde_int"), ("helper", 4, "_mpoly"),
        ("ref_product", 8, "_op"), ("sb_sum", 6, "add"), ("schoolbook", 10, "_int_reduce")]
    assert kernel_reads(planted, lambda name: name == "sb_sum") == [("sb_sum", 6, "add")]


@pytest.mark.parametrize("name", sorted(SCHOOLBOOKS))
def test_the_test_schoolbooks_read_no_kernel(name):
    path = TESTS / name
    tree = ast.parse(path.read_text(), str(path))
    assert any(SCHOOLBOOKS[name](node.name) for node in tree.body
               if isinstance(node, ast.FunctionDef)), "no schoolbook found"
    assert kernel_reads(tree, SCHOOLBOOKS[name]) == []


def test_the_reference_reads_no_compiled_row():
    path = TESTS / "reference.py"
    assert engine_reads(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_library_module_imports_the_reference(path):
    assert reference_imports(ast.parse(path.read_text(), str(path))) == []
