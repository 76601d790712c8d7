"""README's Python sketch runs as written, so it names only live exports."""

import re
import subprocess
import sys
from pathlib import Path

import decoyqkd

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    # a fresh interpreter with every warning an error; -c puts the working
    # directory first on sys.path, so the child imports this package
    src = str(Path(decoyqkd.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]], capture_output=True, text=True, cwd=src
    )
    assert result.returncode == 0, result.stderr
