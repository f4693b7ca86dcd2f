"""Every module-level import of a package or test module is used in that module."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "urlab"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [name for name in bound if name not in used] == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree):
    """(name, node) for each module-level private function, class or constant of a module,
    and each private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _private(name))
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and _private(m.name))


def test_every_private_name_is_read_in_the_package():
    # no dead helpers: each private definition, and each private method, is read outside
    # its own body, by name or as an attribute, somewhere in src/urlab
    readers: dict[str, set] = {}
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                readers.setdefault(n.id, set()).add(id(n))
            elif isinstance(n, ast.Attribute):
                readers.setdefault(n.attr, set()).add(id(n))
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if not readers.get(name, set()) - {id(n) for n in ast.walk(node)}
    ]
    assert dead == []
