"""The Fraction schoolbook in `tests/reference.py` stays independent of the
engine it checks: it imports from `toryang` only the plain-dict vector
helpers and the suffix recursion, and reads no compiled row (`sweep_row`,
`_mode_table`, any `_int_*` name).  No library module imports it."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "toryang").glob("*.py"))
ALLOWED = {"vec", "vsum", "_suffix_images"}
FORBIDDEN = {"sweep_row", "_mode_table"}


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
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and (name in FORBIDDEN or name.startswith("_int_")):
            found.append((node.lineno, name))
    return found


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


def test_the_reference_reads_no_compiled_row():
    path = TESTS / "reference.py"
    assert engine_reads(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_library_module_imports_the_reference(path):
    assert reference_imports(ast.parse(path.read_text(), str(path))) == []
