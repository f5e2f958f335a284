"""Guards against quadratic loading, validation, path resolution, power traces and rendering.

Rings and star trees are generated here with the standard library from the
bundled plant's equipment figures. The timing ratio between a 1000-span and a
250-span plant is loose (linear code gives about 4, a quadratic layer about 16).
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
import tracemalloc
from functools import partial

import pytest

from fiberplan.data import sleman_path
from fiberplan.model import Violation, ring_spans, validate_network
from fiberplan import planning
from fiberplan.netfile import load_network, parse_network
from fiberplan.planning import render_plan_json, render_plan_text, run_plan
from fiberplan.report import render_violations_json, spell
from fiberplan.signal_chain import propagate, render_trace_json, render_trace_text, route_chain, run_trace
from fiberplan.traffic import forecast_subscribers, render_forecast_json, traffic_input_from_mapping


def write_ring(tmp_path, n: int, seed: int = 1, amplifier_every: int = 10):
    """A seeded n-node ring of 5-14 km spans, every tenth (or ``amplifier_every``-th) span with a 20 dB EDFA."""
    rng = random.Random(seed)
    doc = json.loads(sleman_path().read_text(encoding="utf-8"))
    ids = [f"n{i:05d}" for i in range(n)]
    doc["nodes"] = [{"id": node, "name": node.upper()} for node in ids]
    doc["spans"] = []
    for i, (a, b) in enumerate(zip(ids, ids[1:] + ids[:1])):
        span = {"id": f"s{i:05d}", "from": a, "to": b, "length": round(rng.uniform(5.0, 14.0), 3),
                "fiber": "g652-backbone", "splices": "auto"}
        if i % amplifier_every == 0:
            span["amplifiers"] = [{"gain": 20.0, "kind": "edfa"}]
        doc["spans"].append(span)
    out = tmp_path / f"ring{n}.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return out


def write_tree(tmp_path, n: int, fanout: int = 8, leaf_first: bool = False, splitters: bool = False):
    """A tree of n 1-4 km spans joining node i to its parent, node (i - 1) // fanout: fanout 8 is the
    gpon-tree benchmark's shape and fanout 1 a chain. The spans are listed head first, each after the
    span into its parent, as a GPON plant is written, or leaf first, in the reverse order. With
    ``splitters``, every span carries a 1x8 splitter."""
    doc = json.loads(sleman_path().read_text(encoding="utf-8"))
    ids = [f"n{i:05d}" for i in range(n + 1)]
    doc.update(topology="tree", head=ids[0], nodes=[{"id": node} for node in ids])
    doc["spans"] = [{"id": f"s{i:05d}", "from": ids[(i - 1) // fanout], "to": ids[i], "length": 1.0 + i % 4,
                     "fiber": "g652-backbone"} for i in range(1, n + 1)]
    if splitters:
        for span in doc["spans"]:
            span["splitters"] = [8]
    if leaf_first:
        doc["spans"].reverse()
    out = tmp_path / f"tree{n}-{fanout}{'-leaf-first' * leaf_first}.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return out


def write_star(tmp_path, n: int):
    """A tree of n 1-4 km spans, all from the head: quadratic for union-find that links the root of a
    span's ``from`` end under the root of its ``to`` end without path compression."""
    return write_tree(tmp_path, n, fanout=n)


def test_trace_points_stay_small(tmp_path):
    """Memory guard: a point of the 1000-node ring's trace holds about 50 bytes, mostly a label
    reference and a float in two flat columns (80 as a slotted object per point, 184 before
    the value classes had slots), so the whole trace fits in well under 1 MB. A first trace
    fills CPython's free lists of small tuples, which would otherwise count as held by the one
    measured."""
    net = load_network(write_ring(tmp_path, 1000)).network
    runs = route_chain(net, ring_spans(net))
    elements = sum(count for _, _, count, _ in runs)
    propagate(net.transceiver.tx_power, runs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = propagate(net.transceiver.tx_power, runs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.labels) == len(trace.powers) == elements + 1
    assert held <= 60 * elements, f"{held / elements:.0f} bytes per element"


def held_bytes(root: object, beside: object) -> int:
    """Bytes of the distinct objects reachable from ``root`` and not from ``beside``, by sys.getsizeof,
    walking tuples, lists and value-class slots, non-field ones too. Numbers are left out: every layout holds
    the same figures."""
    seen: set[int] = set()

    def reach(obj: object) -> list:
        found, stack = [], [obj]
        while stack:
            obj = stack.pop()
            if isinstance(obj, (int, float)) or id(obj) in seen:
                continue
            seen.add(id(obj))
            found.append(obj)
            if isinstance(obj, (tuple, list)):
                stack.extend(obj)
            elif "_fields" in vars(type(obj)):
                stack.extend(getattr(obj, name) for name in type(obj).__slots__)
        return found

    reach(beside)
    return sum(map(sys.getsizeof, reach(root)))


def test_plan_rows_stay_small(tmp_path):
    """Memory guard: a rendered plan of the 1000-node ring holds about 410 bytes per span. Its flat row holds
    240: a 15-slot tuple (160 bytes), its link name (64), and its slots in the report's tuples of rows and of
    path nodes (8 each); the node and span ids are the plant's own. The verdict table the report keeps once
    rendered holds 169: a 7-slot tuple (96), its "rise time <id>" quantity (65) and its slot in the
    table (8). The bound leaves an eighth of that as headroom. One nested value object per span (a frozen
    value of four or five fields, 72-88 bytes each) breaks it; the nested rows the flat row
    replaced held 592 bytes per span."""
    doc = load_network(write_ring(tmp_path, 1000))
    report = run_plan(doc, "gpon-onu-endpoint")
    render_plan_text(report)
    held = held_bytes(report, doc)
    assert len(report.spans) == 1000
    assert held <= 461 * len(report.spans), f"{held / len(report.spans):.0f} bytes per span"


def test_a_ring_plan_makes_few_python_calls_per_span(tmp_path):
    """Noise-free speed guard: most of a plan row's time is Python call overhead, so count the Python-level
    calls a plan of the 1000-node ring makes (``sys.setprofile`` "call" events). A span costs span_row,
    span_runs, splice_count and the two rise-time functions, about 5.1 calls per span with the plan's own,
    so two more call layers per span break the bound."""
    doc = load_network(write_ring(tmp_path, 1000))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        report = run_plan(doc, "gpon-onu-endpoint")
    finally:
        sys.setprofile(previous)
    assert len(report.spans) == 1000
    assert calls <= 7 * len(report.spans), f"{calls / len(report.spans):.2f} calls per span"


def test_a_json_ring_plan_spells_few_values_per_span(tmp_path, monkeypatch):
    """Noise-free speed guard: spelling a number is most of a JSON plan's time, so count the values the JSON
    plan of the 1000-node ring spells. A span spells 9: its length, five losses, its dispersion and total rise
    time, and its verdict's margin. Its margin, ceiling and transceiver rise times are the same objects in every
    row, spelled once per report with the power verdict's three figures: 7 more (13 per span spelled each
    column of each row)."""
    report = run_plan(load_network(write_ring(tmp_path, 1000)), "gpon-onu-endpoint")
    spelled = 0

    def count(values, slots):
        nonlocal spelled
        spelled += len(values)
        return spell(values, slots)

    monkeypatch.setattr(planning, "spell", count)
    render_plan_json(report)
    spans = len(report.spans)
    assert spans == 1000
    assert spelled <= 9 * spans + 7, f"{spelled} values spelled"


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


def test_propagate_scales_linearly_with_a_subnormal_effect(tmp_path):
    """A 5e-324 dB effect scales every running sum by 2**1074, the widest integers the fold meets."""
    small, large = (
        route_chain(net, ring_spans(net)) + [("amplifier", 5e-324, 1, None)]
        for net in (load_network(write_ring(tmp_path, n)).network for n in (250, 1000))
    )
    propagate(9.0, small)
    ratio = best_of_three(propagate, 9.0, large) / best_of_three(propagate, 9.0, small)
    assert ratio < 8, f"4x the ring took {ratio:.1f}x the time"


def _load_and_validate(path) -> None:
    assert validate_network(load_network(path).network) == []


@pytest.mark.parametrize(
    "write",
    [write_star, write_ring, write_tree, partial(write_tree, leaf_first=True), partial(write_tree, fanout=1),
     partial(write_ring, amplifier_every=1), partial(write_tree, splitters=True)],
    ids=["star", "ring", "tree-head-first", "tree-leaf-first", "chain", "ring-amplified", "tree-split"],
)
def test_load_and_validate_scale_linearly(tmp_path, write):
    """Each listing order the union rule meets: a root found in one or two steps keeps validation linear.
    A ring with an amplifier and a tree with a splitter on every span keep device reading linear too."""
    small, large = write(tmp_path, 250), write(tmp_path, 1000)
    _load_and_validate(small)  # warm caches and lazy imports before timing
    ratio = best_of_three(_load_and_validate, large) / best_of_three(_load_and_validate, small)
    assert ratio < 8, f"4x the spans took {ratio:.1f}x the time"


class _Id(str):
    """A str subclass, as numpy.str_ is: a library caller's ids may be one."""


def test_parse_scales_linearly_with_str_subclass_ids(tmp_path):
    """Such an id fails the inline type test and is read by the field reader, which must not find the
    entry's index by scanning the span list before it (quadratic: 4x the spans took 12x the time)."""
    small, large = (json.loads(write_ring(tmp_path, n).read_text(encoding="utf-8")) for n in (250, 1000))
    for doc in (small, large):
        for span in doc["spans"]:
            span["id"] = _Id(span["id"])
    parse_network(small)
    ratio = best_of_three(parse_network, large) / best_of_three(parse_network, small)
    assert ratio < 8, f"4x the spans took {ratio:.1f}x the time"


def _plan(doc) -> tuple:
    return (run_plan(doc, "gpon-onu-endpoint"),)


def _trace(doc) -> tuple:
    return run_trace(doc, "ring", with_ber=True)


@pytest.mark.parametrize(
    "render, report",
    [(render_plan_text, _plan), (render_plan_json, _plan), (render_trace_text, _trace), (render_trace_json, _trace)],
    ids=["plan_text", "plan_json", "trace_text", "trace_json"],
)
def test_renderers_scale_linearly(tmp_path, render, report):
    """Each renderer alone on the report of a 250- and a 1000-span ring: a report built by
    repeated concatenation, or trimmed over the whole text once per row, is quadratic."""
    small, large = (report(load_network(write_ring(tmp_path, n))) for n in (250, 1000))
    render(*small)  # warm caches and lazy imports before timing
    ratio = best_of_three(render, *large) / best_of_three(render, *small)
    assert ratio < 8, f"4x the ring took {ratio:.1f}x the time"


def _violations(doc) -> tuple:
    return ([Violation("span:s1", "unresolved-node", "references unknown node 'x'")],)


def _forecast(doc) -> tuple:
    inputs = traffic_input_from_mapping(doc.traffic)
    return inputs, forecast_subscribers(inputs)


@pytest.mark.parametrize(
    "render, report",
    [(render_plan_json, _plan), (render_trace_json, _trace), (render_violations_json, _violations),
     (render_forecast_json, _forecast)],
    ids=["plan", "trace", "validate", "forecast"],
)
def test_json_reports_leave_no_cyclic_garbage(tmp_path, render, report):
    """A JSON report is freed by reference counting alone: json.dumps(indent=2) runs the pure-Python
    encoder, whose closures form a cycle that only the collector frees, 33 objects a call."""
    args = report(load_network(write_ring(tmp_path, 50)))
    render(*args)  # warm caches and lazy imports
    gc.collect()
    gc.disable()
    try:
        render(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()
