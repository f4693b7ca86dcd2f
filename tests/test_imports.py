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
