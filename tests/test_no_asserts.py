"""`python -O` strips assert statements, so no check in the package may be
one: every guarantee has to hold with and without the flag."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bnbapprox"


def test_package_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
