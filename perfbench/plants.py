"""Seeded plant generator for the benchmark workloads.

Every generator takes a seed and returns plain JSON documents (dicts) in
fiberplan's network-file format. The same seed always gives byte-identical
files; sizes are fixed per workload, so only lengths, amplifier placement,
names and probe targets vary with the seed. Standard library only.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BACKBONE_FIBER = {"attenuation": 0.3, "dispersion": 3.5, "drum_length": 3.0}
DISTRIBUTION_FIBER = {"attenuation": 0.2, "dispersion": 16.75, "drum_length": 3.0}

BACKBONE_TRANSCEIVER = {
    "tx_power": 9.0,
    "spectral_width": 0.1,
    "tx_rise_time": 60.0,
    "rx_rise_time": 35.0,
    "rx_sensitivity": -21.0,
    "responsivity": 0.9,
}
GPON_TRANSCEIVER = dict(BACKBONE_TRANSCEIVER, tx_power=3.0, rx_sensitivity=-28.0)

LOSSES = {"connector_loss": 0.3, "splice_loss": 0.05, "system_margin": 3.0, "splitter_excess_loss": 0.0}
GPON_LOSSES = dict(LOSSES, splitter_excess_loss=0.5)

RING_NODES = 1000
RING_EDFAS = 150  # too few for a 1000-span ring, so the as-built verdict fails
TREE_FANOUT = 8
TREE_LEVELS = 3
SPLITTER_LEVELS = 2  # a 1x8 splitter on each span of the first two levels

# Keys a planner might mistype; each one is unknown to the file format.
TYPO_KEYS = ("lenght", "fibre", "splice", "amplifier", "conectors")


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"fiberplan-bench/{kind}/{seed}")


def _traffic(rng: random.Random) -> dict:
    return {
        "population": rng.randrange(200_000, 2_000_000),
        "cellular_penetration": 1.5,
        "operator_share": 0.42,
        "lte_penetration": 0.2,
        "annual_growth": 0.051,
        "horizon": 5,
    }


def ring_plant(seed: int, n: int = RING_NODES) -> dict:
    """An n-node backbone ring: spans of 5-14 km, some carrying a 20 dB EDFA."""
    rng = _rng("ring", seed)
    nodes = [{"id": f"n{i:04d}", "name": f"Site {i:04d}"} for i in range(n)]
    amplified = set(rng.sample(range(n), min(RING_EDFAS, n)))
    spans = []
    for i in range(n):
        a, b = nodes[i]["id"], nodes[(i + 1) % n]["id"]
        if rng.random() < 0.1:
            a, b = b, a
        span = {"id": f"s{i:04d}", "from": a, "to": b, "length": round(rng.uniform(5.0, 14.0), 3),
                "fiber": "g652-backbone", "splices": "auto"}
        if i in amplified:
            span["amplifiers"] = [{"gain": 20.0, "kind": "edfa"}]
        spans.append(span)
    return {
        "topology": "ring",
        "nodes": nodes,
        "fiber_profiles": {"g652-backbone": dict(BACKBONE_FIBER)},
        "transceiver": dict(BACKBONE_TRANSCEIVER),
        "losses": dict(LOSSES),
        "spans": spans,
        "distribution_loss": 16.67,
        "edfa_gain": 20.0,
        "traffic": _traffic(rng),
    }


def gpon_tree(seed: int) -> dict:
    """An OLT head fanning out 8 ways over 3 levels: 584 spans, 512 leaves.

    Distribution fiber runs 0.5-4 km; spans of the first two levels carry a
    1x8 splitter each, so every leaf sits behind a 1:64 split.
    """
    rng = _rng("gpon", seed)
    nodes = [{"id": "olt", "name": "OLT"}]
    spans = []
    frontier = ["olt"]
    for level in range(1, TREE_LEVELS + 1):
        next_frontier = []
        for parent in frontier:
            for k in range(TREE_FANOUT):
                child = f"{parent}.{k}" if parent != "olt" else f"d{k}"
                nodes.append({"id": child, "name": child.upper()})
                span = {"id": f"f-{child}", "from": parent, "to": child,
                        "length": round(rng.uniform(0.5, 4.0), 3),
                        "fiber": "g984-distribution", "splices": "auto"}
                if level <= SPLITTER_LEVELS:
                    span["splitters"] = [TREE_FANOUT]
                spans.append(span)
                next_frontier.append(child)
        frontier = next_frontier
    return {
        "topology": "tree",
        "head": "olt",
        "nodes": nodes,
        "fiber_profiles": {"g984-distribution": dict(DISTRIBUTION_FIBER)},
        "transceiver": dict(GPON_TRANSCEIVER),
        "losses": dict(GPON_LOSSES),
        "spans": spans,
        "distribution_loss": 0.0,
        "edfa_gain": 20.0,
        "traffic": _traffic(rng),
    }


def tree_leaf_paths(doc: dict) -> list[list[str]]:
    """Root-to-leaf node paths of a tree document, in span order."""
    children: dict[str, list[str]] = {}
    for span in doc["spans"]:
        children.setdefault(span["from"], []).append(span["to"])
    paths = []

    def walk(path: list[str]) -> None:
        kids = children.get(path[-1], [])
        if not kids:
            paths.append(path)
        for kid in kids:
            walk(path + [kid])

    walk([doc["head"]])
    return paths


def sleman_variants(sleman: dict, seed: int) -> dict[str, dict]:
    """The bundled Sleman ring and small seeded variants of it.

    ``broken`` drops one span, ``unknown`` carries one mistyped key,
    ``parallel`` is a valid 2-node ring of parallel 10 km and 50 km spans,
    and ``nan`` has one span whose length is NaN.
    """
    rng = _rng("sleman", seed)
    broken = json.loads(json.dumps(sleman))
    del broken["spans"][rng.randrange(len(broken["spans"]))]

    unknown = json.loads(json.dumps(sleman))
    typo = rng.choice(TYPO_KEYS)
    rng.choice(unknown["spans"])[typo] = 1

    parallel = json.loads(json.dumps(sleman))
    parallel["nodes"] = [{"id": "west", "name": "West"}, {"id": "east", "name": "East"}]
    parallel["spans"] = [
        {"id": "s1", "from": "west", "to": "east", "length": 10.0, "fiber": "g652-backbone", "splices": "auto"},
        {"id": "s2", "from": "east", "to": "west", "length": 50.0, "fiber": "g652-backbone", "splices": "auto"},
    ]

    nan = json.loads(json.dumps(sleman))
    rng.choice(nan["spans"])["length"] = float("nan")
    return {"sleman": sleman, "broken": broken, "unknown": unknown, "parallel": parallel, "nan": nan}


def write_plant(doc: dict, path: Path) -> Path:
    """Write a document deterministically (sorted keys, fixed indent)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
