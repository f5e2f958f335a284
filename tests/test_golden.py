"""Byte-for-byte golden reports on the bundled Sleman ring, a small GPON tree and a 12-node ring,
and the digests of a seeded 1,000-node ring's reports.

Each report file under ``tests/golden/`` is the stdout of one command, text
and JSON, recorded before a refactor that must not change any report. The
tree plant is ``tests/golden/tree-network.json``: two 1x8 splitter stages, an
EDFA on one feeder and one drop whose rise time fails. The ring plant is
``tests/golden/ring-network.json``: 12 nodes, two EDFA spans (one with two
units), three identical 1x2 splitters beside a 1x4, a span with no connectors
and no splices, and explicit splice counts beside drum-derived ones. The broken plant is
``tests/golden/broken-network.json``: the Sleman ring without its closing span
and with one span ending at an unknown node, so ``validate`` fails. The unamplified plant is
``tests/golden/sleman-unamplified-network.json``: the Sleman ring without its two inventory EDFAs, whose
trace ends at -25.92 dBm (acceptance criterion 11). A
difference here means a report changed; update the file only when that change
is intended.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from fiberplan.cli import main
from fiberplan.data import sleman_path

from test_scaling import write_ring

GOLDEN = Path(__file__).parent / "golden"
TREE = GOLDEN / "tree-network.json"
RING = GOLDEN / "ring-network.json"
BROKEN = GOLDEN / "broken-network.json"
UNAMPLIFIED = GOLDEN / "sleman-unamplified-network.json"
PARTIAL = "seyegan,tempel,pakem"
REVISIT = "seyegan,tempel,seyegan"  # one span crossed twice: one plan row, its losses counted twice
NORTH, SOUTH = "olt,d0,d0.1", "olt,d1,d1.1"
ONU = ("--standard", "gpon-onu-endpoint")

# plant -> (network file, {name -> (arguments after --network, exit code)})
PLANTS = {
    "sleman": (sleman_path(), {
        "plan": (["plan", *ONU], 0),
        "plan-as-built": (["plan", *ONU, "--as-built"], 0),
        "plan-partial": (["plan", *ONU, "--path", PARTIAL], 0),
        "trace-ber": (["trace", "--ber"], 0),
        "trace-ber-power": (["trace", "--ber", "--power", "3"], 0),
        "trace-partial": (["trace", "--path", PARTIAL], 0),
        "plan-revisit": (["plan", *ONU, "--path", REVISIT], 0),
        "trace-ber-revisit": (["trace", "--ber", "--path", REVISIT], 0),
        "validate": (["validate"], 0),
        "forecast": (["forecast"], 0),
    }),
    "tree": (TREE, {
        "plan-north": (["plan", *ONU, "--path", NORTH], 0),
        "plan-south": (["plan", *ONU, "--path", SOUTH], 1),
        "trace-ber-north": (["trace", "--ber", "--path", NORTH], 0),
        "trace-ber-south": (["trace", "--ber", "--path", SOUTH], 0),
    }),
    "ring": (RING, {
        "plan": (["plan", *ONU], 0),
        "plan-as-built": (["plan", *ONU, "--as-built"], 1),
        "trace-ber": (["trace", "--ber"], 0),
        "trace-ber-power": (["trace", "--ber", "--power", "3"], 0),
    }),
    "broken": (BROKEN, {
        "validate": (["validate"], 1),
    }),
    "sleman-unamplified": (UNAMPLIFIED, {
        "trace-ber": (["trace", "--ber"], 0),
    }),
}

CASES = [
    (plant, name, fmt, args, rc)
    for plant, (_, commands) in PLANTS.items()
    for name, (args, rc) in commands.items()
    for fmt in ("text", "json")
]


def golden_file(plant: str, name: str, fmt: str) -> Path:
    return GOLDEN / f"{plant}-{name}.{'txt' if fmt == 'text' else 'json'}"


def golden_argv(plant: str, fmt: str, args: list[str]) -> list[str]:
    return [*args, "--network", str(PLANTS[plant][0]), "--format", fmt]


@pytest.mark.parametrize(
    "plant, name, fmt, args, rc", CASES,
    ids=[f"{c[1]}-{c[2]}" if c[0] == "sleman" else f"{c[0]}-{c[1]}-{c[2]}" for c in CASES],
)
def test_report_bytes_match_the_golden(capsysbinary, plant, name, fmt, args, rc):
    assert main(golden_argv(plant, fmt, args)) == rc
    out = capsysbinary.readouterr().out
    assert out == golden_file(plant, name, fmt).read_bytes()


# A seeded 1,000-node ring (test_scaling.write_ring, seed 1): every 10th span holds an EDFA.
# The sha256 of each report's bytes pins its ring-sized tables, 0.2-0.7 MB each.
BIG_RING = {
    ("plan", "text"): "ac08f3db7ad2cef885f3c7efaa8bf97dc3ea39f2cec3ad6d137ccdb3cbac1d2f",
    ("plan", "json"): "98b4aa0d30e3808981048e8fe752b32e879925e28103dc89a4f8b226f8de9caf",
    ("trace-ber", "text"): "525e62babdb4790c4c59c15e40ff2b5a03aeaf279e376f3603d2644cc710ddd5",
    ("trace-ber", "json"): "2b540810caa8db80746a2d781af3e4442f45ec6926e2885b7642a950df1c740d",
}


@pytest.fixture(scope="module")
def big_ring(tmp_path_factory):
    return write_ring(tmp_path_factory.mktemp("big-ring"), 1000, seed=1)


@pytest.mark.parametrize("name, fmt", list(BIG_RING), ids=[f"{name}-{fmt}" for name, fmt in BIG_RING])
def test_thousand_node_ring_reports_match_their_digests(capsysbinary, big_ring, name, fmt):
    args = ["plan", *ONU] if name == "plan" else ["trace", "--ber"]
    assert main([*args, "--network", str(big_ring), "--format", fmt]) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == BIG_RING[name, fmt]
