"""Each narrative script under ``demos/`` prints what it printed when its golden was recorded.

The expected stdout of ``demos/<name>.py`` is ``tests/golden/demos/<name>.txt``.
A difference means a demo's output changed; update the file only when that
change is intended.
"""

from __future__ import annotations

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
