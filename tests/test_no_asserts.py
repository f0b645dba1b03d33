"""`python -O` strips assert statements, so no check in the package may be
one: every guarantee has to hold with and without the flag.

The same holds for the test helpers that the guarantee tests call: pytest
rewrites the asserts of test modules only, so `-O` would strip any that
`guarantees.py` or `lp_oracle.py` held. And the package must not read
whether the flag is set (`__debug__`, `sys.flags.optimize`): then one
`python -O` run shows that it behaves the same under the flag.
"""
import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "bnbapprox"
HELPERS = (TESTS / "guarantees.py", TESTS / "lp_oracle.py")


def _nodes(paths):
    """(path, node) for every AST node of every file."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def assert_statements(paths) -> list[str]:
    return [f"{path.name}:{node.lineno}" for path, node in _nodes(paths)
            if isinstance(node, ast.Assert)]


def _reads_optimize_flag(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "__debug__"
    if isinstance(node, ast.Attribute) and node.attr == "optimize":
        owner = node.value  # sys.flags, or flags imported from sys
        return getattr(owner, "attr", getattr(owner, "id", None)) == "flags"
    return False


def optimize_flag_reads(paths) -> list[str]:
    return [f"{path.name}:{node.lineno}" for path, node in _nodes(paths)
            if _reads_optimize_flag(node)]


def test_package_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert assert_statements(files) == []


def test_test_helpers_have_no_assert_statements():
    assert all(path.is_file() for path in HELPERS)
    assert assert_statements(HELPERS) == []


def test_package_does_not_read_the_optimize_flag():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert optimize_flag_reads(files) == []
