"""Module boundaries: no decoyqkd module imports another's private names, and
importing the package loads no third-party module but numpy."""

import ast
import subprocess
import sys
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


def test_runtime_imports_only_numpy():
    # a fresh interpreter, as this one has loaded pytest, mpmath and hypothesis;
    # modules that site loads at start-up (from .pth files) are not counted
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import decoyqkd, decoyqkd.cli, decoyqkd.exact\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names))))\n"
    )
    # -c puts the working directory first on sys.path: the child imports this package
    src = str(Path(decoyqkd.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, cwd=src
    ).stdout
    assert out.split() == ["decoyqkd", "numpy"]
