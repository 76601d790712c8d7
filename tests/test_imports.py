"""Module boundaries: no decoyqkd module imports another's private names."""

import ast
from pathlib import Path

import pytest

import decoyqkd

MODULES = sorted(Path(decoyqkd.__file__).parent.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """Each underscore-prefixed name that ``path`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        within = isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "decoyqkd"
        )
        if within:
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_no_private_name(path):
    assert private_imports(path) == []
