"""Each narrative script under ``demos/`` prints what it printed when its golden was recorded,
and the README's examples run.

The expected stdout of ``demos/<name>.py`` is ``tests/golden/demos/<name>.txt``.
A difference means a demo's output changed; update the file only when that
change is intended.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, cwd=ROOT)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()


def test_readme_examples_run_in_order():
    """The README's python blocks, run in order as one script in a fresh interpreter: later blocks use
    the ``doc`` the first one loads."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", "\n".join(blocks)], capture_output=True, text=True, cwd=ROOT,
                            env=env)
    assert result.returncode == 0, result.stderr
