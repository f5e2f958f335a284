"""Byte-for-byte golden reports on the bundled Sleman ring.

Each file under ``tests/golden/`` is the stdout of one command, text and JSON,
recorded before a refactor that must not change any report. A difference here
means a report changed; update the file only when that change is intended.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from fiberplan.cli import main
from fiberplan.data import sleman_path

GOLDEN = Path(__file__).parent / "golden"
PARTIAL = "seyegan,tempel,pakem"

# name -> (arguments after --network, exit code)
COMMANDS = {
    "plan": (["plan", "--standard", "gpon-onu-endpoint"], 0),
    "plan-as-built": (["plan", "--standard", "gpon-onu-endpoint", "--as-built"], 0),
    "plan-partial": (["plan", "--standard", "gpon-onu-endpoint", "--path", PARTIAL], 0),
    "trace-ber": (["trace", "--ber"], 0),
    "trace-ber-power": (["trace", "--ber", "--power", "3"], 0),
    "trace-partial": (["trace", "--path", PARTIAL], 0),
    "validate": (["validate"], 0),
    "forecast": (["forecast"], 0),
}

CASES = [
    (name, fmt, args, rc)
    for name, (args, rc) in COMMANDS.items()
    for fmt in ("text", "json")
]


def golden_file(name: str, fmt: str) -> Path:
    return GOLDEN / f"sleman-{name}.{'txt' if fmt == 'text' else 'json'}"


@pytest.mark.parametrize("name, fmt, args, rc", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_report_bytes_match_the_golden(capsysbinary, name, fmt, args, rc):
    argv = [*args, "--network", str(sleman_path()), "--format", fmt]
    assert main(argv) == rc
    out = capsysbinary.readouterr().out
    assert out == golden_file(name, fmt).read_bytes()
