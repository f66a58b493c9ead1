"""The README's library tour runs as printed."""

import re
from pathlib import Path

from conftest import run_python

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    proc = run_python("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 3
