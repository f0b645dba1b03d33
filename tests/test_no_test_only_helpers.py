"""Code that only the tests use belongs in tests/, not in the package.

Every public top-level function and class of src/bnbapprox must be used
somewhere in the package or in solverbench/: by a name or attribute in
some module's code. Its own definition, an `__all__` entry (a string) and
an import line do not count, as none of them uses it. And every `__all__`
entry must name an attribute its module defines, so that a deleted name
does not linger there. Likewise every field of every dataclass in the
package must be read as an attribute somewhere in the package or in
solverbench/.

A field read is matched by its name only: the AST does not say which class
an attribute's receiver is, so a read of `x.parent` counts for every field
called `parent`, whatever x is. A field that shares its name with a field
of another class, or with any other attribute read in the package (say
`Path.parent`), can go unread without this check seeing it; the limit is
the price of a check that needs no type inference. One case is told apart:
a read that is called, `x.f(...)`, counts only for a field `f` annotated
`Callable` (as `Algorithm.run` is), so a method that shares a field's name
does not read the field.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _is_callable(annotation: ast.expr) -> bool:
    """Whether an annotation is `Callable` or `Callable[...]`."""
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return getattr(target, "id", getattr(target, "attr", None)) == "Callable"


def unread_dataclass_fields(root: pathlib.Path) -> list[str]:
    """The fields of the dataclasses of root/src/bnbapprox that no module of
    the package or of root/solverbench reads as an attribute, matched by
    field name alone (see the module docstring for what that misses). A
    called read counts only for a field annotated `Callable`."""
    package = sorted((root / "src" / "bnbapprox").glob("*.py"))
    fields, read, called = [], set(), set()
    for path in package + sorted((root / "solverbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                (called if id(node) in callees else read).add(node.attr)
            elif path in package and isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [(f"{path.stem}.{node.name}.{item.target.id}", item.target.id,
                            _is_callable(item.annotation)) for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return sorted(name for name, attr, is_callable in fields
                  if attr not in read and not (is_callable and attr in called))


def test_no_public_helper_is_used_only_by_the_tests():
    assert unused_public_names(ROOT) == []


def test_every_export_is_defined():
    stale = []
    for path in sorted((ROOT / "src" / "bnbapprox").glob("*.py")):
        name = "bnbapprox" if path.stem == "__init__" else f"bnbapprox.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{e}" for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert stale == []


def test_every_dataclass_field_is_read_outside_the_tests():
    assert unread_dataclass_fields(ROOT) == []
