"""Code that only the tests use belongs in tests/, not in the package.

Every public top-level function and class of src/bnbapprox must be used
somewhere in the package or in solverbench/: by a name or attribute in
some module's code. Its own definition, an `__all__` entry (a string) and
an import line do not count, as none of them uses it. And every `__all__`
entry must name an attribute its module defines, so that a deleted name
does not linger there.
"""
import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _definition_name(node: ast.stmt) -> str | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    return None


def _used_names(tree: ast.Module) -> set[tuple[str, str | None]]:
    """(name, top-level definition it is used in, or None) for every name
    and attribute in the module's code."""
    used = set()
    for statement in tree.body:
        owner = _definition_name(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                used.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                used.add((node.attr, owner))
    return used


def unused_public_names(root: pathlib.Path) -> list[str]:
    """The public top-level defs and classes of root/src/bnbapprox that no
    module of the package or of root/solverbench uses outside their own
    body."""
    package = sorted((root / "src" / "bnbapprox").glob("*.py"))
    users = package + sorted((root / "solverbench").glob("*.py"))
    defined = []
    for path in package:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [_definition_name(node) for node in tree.body]
        defined += [f"{path.stem}.{name}" for name in names if name and name[0] != "_"]
    used = set()
    for path in users:
        used |= {name for name, owner in _used_names(ast.parse(path.read_text(encoding="utf-8")))
                 if name != owner}
    return sorted(name for name in defined if name.split(".")[1] not in used)


def test_no_public_helper_is_used_only_by_the_tests():
    assert unused_public_names(ROOT) == []


def test_every_export_is_defined():
    stale = []
    for path in sorted((ROOT / "src" / "bnbapprox").glob("*.py")):
        name = "bnbapprox" if path.stem == "__init__" else f"bnbapprox.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{e}" for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert stale == []
