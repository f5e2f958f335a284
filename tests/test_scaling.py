"""Guards against quadratic path resolution and power traces.

Rings are generated here with the standard library from the bundled plant's
equipment figures. The fsum-length count is exact; the timing ratio between
a 1000-node and a 250-node ring is loose (linear code gives about 4, a
quadratic layer about 16).
"""

from __future__ import annotations

import json
import math
import random
import time
import tracemalloc

import pytest

from fiberplan.data import sleman_path
from fiberplan.model import ring_spans
from fiberplan.netfile import load_network
from fiberplan.planning import run_plan, run_trace
from fiberplan.signal_chain import propagate, route_chain


def write_ring(tmp_path, n: int, seed: int = 1):
    """A seeded n-node ring of 5-14 km spans, every tenth span with a 20 dB EDFA."""
    rng = random.Random(seed)
    doc = json.loads(sleman_path().read_text(encoding="utf-8"))
    ids = [f"n{i:05d}" for i in range(n)]
    doc["nodes"] = [{"id": node, "name": node.upper()} for node in ids]
    doc["spans"] = []
    for i, (a, b) in enumerate(zip(ids, ids[1:] + ids[:1])):
        span = {"id": f"s{i:05d}", "from": a, "to": b, "length": round(rng.uniform(5.0, 14.0), 3),
                "fiber": "g652-backbone", "splices": "auto"}
        if i % 10 == 0:
            span["amplifiers"] = [{"gain": 20.0, "kind": "edfa"}]
        doc["spans"].append(span)
    out = tmp_path / f"ring{n}.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return out


def test_trace_points_stay_small(tmp_path):
    """Memory guard: a point of the 1000-node ring's trace holds about 80 bytes (184 before
    the value classes had slots), so the whole trace fits in well under 1 MB."""
    net = load_network(write_ring(tmp_path, 1000)).network
    runs = route_chain(net, ring_spans(net))
    elements = sum(count for *_, count in runs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = propagate(net.transceiver.tx_power, runs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.points) == elements + 1
    assert held <= 100 * elements, f"{held / elements:.0f} bytes per element"


def test_propagate_hands_fsum_a_bounded_list_per_point(tmp_path, monkeypatch):
    net = load_network(write_ring(tmp_path, 1000)).network
    runs = route_chain(net, ring_spans(net))
    elements = sum(count for *_, count in runs)
    handed = []
    fsum = math.fsum

    def counting_fsum(values):
        values = list(values)
        handed.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    propagate(net.transceiver.tx_power, runs)
    assert len(handed) == elements
    assert sum(handed) <= 4 * elements


def best_of_three(fn, *args) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.mark.parametrize(
    "run",
    [lambda f: run_plan(load_network(f), "gpon-onu-endpoint"), lambda f: run_trace(load_network(f), "ring")],
    ids=["run_plan", "run_trace"],
)
def test_ring_commands_scale_linearly(tmp_path, run):
    small, large = write_ring(tmp_path, 250), write_ring(tmp_path, 1000)
    run(small)  # warm caches and lazy imports before timing
    ratio = best_of_three(run, large) / best_of_three(run, small)
    assert ratio < 8, f"4x the ring took {ratio:.1f}x the time"
