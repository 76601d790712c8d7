"""Module boundaries: no decoyqkd module imports another's private names,
importing the package loads no third-party module but numpy, no module
shares a writable array, and no constant array is defined twice. The tests
import no third-party module that the `test` extra does not declare."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decoyqkd

MODULES = sorted(Path(decoyqkd.__file__).parent.glob("*.py"))
TESTS = Path(__file__).parent


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


def test_test_extra_declares_every_third_party_test_import():
    # the suite has one configuration, with the extra installed, and no test
    # skips for a missing module; a regex, as Python 3.10 has no tomllib
    pyproject = (TESTS.parent / "pyproject.toml").read_text()
    extra = re.search(r"^test\s*=\s*\[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL).group(1)
    declared = {re.match(r"[\w.-]+", name).group() for name in re.findall(r'"([^"]+)"', extra)}
    paths, imported = list(TESTS.rglob("*.py")), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    local = {"decoyqkd"} | {path.stem for path in paths}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"hypothesis", "mpmath"} <= third_party
    assert sorted(third_party - declared - {"numpy", "pytest"}) == []


def test_module_arrays_are_read_only():
    # every call shares them: an out= that hit a writable one would change
    # every later result
    shared = {}
    for path in MODULES:
        name = "decoyqkd" if path.stem == "__init__" else f"decoyqkd.{path.stem}"
        module = importlib.import_module(name)
        for attribute, value in vars(module).items():
            if isinstance(value, np.ndarray):
                shared[f"{name}.{attribute}"] = value.flags.writeable
    expected = {
        "decoyqkd.channel.ONE",
        "decoyqkd.bounds._ERROR_CAPS",
        "decoyqkd.bounds._FACTORIALS",
        "decoyqkd.rates._MU_CELL",
        "decoyqkd.rates._TINY",
        "decoyqkd.sweeps._COARSE_GRID",
        "decoyqkd.sweeps._LATTICE_OFFSETS",
    }
    assert expected <= shared.keys()
    assert [name for name, writable in shared.items() if writable] == []


def test_module_arrays_are_defined_once():
    # a constant that several modules use is built in one and imported by the
    # others, so an imported name is the same object and counts once
    arrays = {}
    for path in MODULES:
        name = "decoyqkd" if path.stem == "__init__" else f"decoyqkd.{path.stem}"
        for attribute, value in vars(importlib.import_module(name)).items():
            if isinstance(value, np.ndarray):
                arrays.setdefault(id(value), (f"{name}.{attribute}", value))
    names = {}
    for name, value in arrays.values():
        names.setdefault((value.dtype.str, value.shape, value.tobytes()), []).append(name)
    assert [same for same in names.values() if len(same) > 1] == []
