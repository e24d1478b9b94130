"""The library checks nothing with `assert`: no assert statement anywhere in
`src/toryang`, since `python -O` strips them and a check that can vanish
is not a check.  A violated invariant raises an exception of its own."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "toryang").glob("*.py"))


def assert_sites(tree):
    """The line of every assert statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_the_guard_sees_nested_asserts_and_not_docstrings():
    assert SOURCES, "no sources found"
    tree = ast.parse('"""assert x"""\nassert 1\ndef f():\n    if 1:\n        assert 0, "m"\n')
    assert assert_sites(tree) == [2, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_source(path):
    assert assert_sites(ast.parse(path.read_text(), str(path))) == []
