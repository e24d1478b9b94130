"""The library has no floating point: no float literal and no `float(...)`
call anywhere in `src/toryang`, so every value it computes stays exact."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "toryang").glob("*.py"))


def float_sites(tree):
    """(line, text) of every float literal and every `float(...)` call."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            out.append((node.lineno, "float(...)"))
    return out


def test_the_guard_sees_both_kinds():
    assert SOURCES, "no sources found"
    tree = ast.parse("x = 0.5\ny = float(x) + 2j\nz = 3\n")
    assert sorted(float_sites(tree)) == [(1, "0.5"), (2, "2j"), (2, "float(...)")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_in_source(path):
    assert float_sites(ast.parse(path.read_text(), str(path))) == []
