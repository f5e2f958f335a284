"""The JSON writers against whole-payload ``json.dumps``.

The ``render_*_json`` writers fill each report's fixed-size skeleton, written
by ``json.dumps`` at import, and splice in its plant-sized tables, formatted
row by row into indent-2 templates. The reference below is the earlier code,
kept verbatim: build a dict per report, tables included, then
``json.dumps(payload, indent=2) + "\\n"``. Every case asserts the two strings
are equal byte for byte: the Sleman golden commands, a small ring (1x8
splitter, EDFA, a span without connectors, failing rise times, a custom RZ
standard), a two-node ring of parallel spans, the golden GPON tree, names that
need JSON escaping or hold the text a skeleton stands in for a table with,
non-finite values, broken plants' violations, and a Hypothesis property over
mutated Sleman documents. Further cases reach the exact path behind the
fixed-point spelling (traces injected at 1e300 dBm, rows holding ints, nan, inf
or values beyond 1e12) or sit at its edge (-0.0 losses, powers near 1e9 and
1e11), and a Hypothesis property checks the fixed-point spelling itself against
``repr(round(x, n))``. A plan spells a column once when every span row holds
the same object in it, so further plans hold rows that share every such column,
none, or a -0.0 margin beside rows whose 0.0 margin is one object.
"""

from __future__ import annotations

import copy
import json
import math
import struct
from pathlib import Path
from typing import Any, Iterator

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fiberplan.data import sleman_path
from fiberplan.model import ConfigurationError, DomainError, validate_network
from fiberplan.netfile import NetworkDocument, NetworkFileError, parse_network
from fiberplan.planning import PlanReport, render_plan_json, run_plan, verdict_table
from fiberplan.report import render_violations_json, spell
from fiberplan.risetime import total_risetime
from fiberplan.signal_chain import PowerTrace, render_trace_json, run_trace
from fiberplan.standards import builtin_profiles
from fiberplan.traffic import TrafficInput, forecast_subscribers, render_forecast_json, traffic_input_from_mapping

from test_cli_fuzz import documents
from test_scaling import write_ring

SLEMAN = json.loads(sleman_path().read_text(encoding="utf-8"))
TREE = json.loads((Path(__file__).parent / "golden" / "tree-network.json").read_text(encoding="utf-8"))
ONU = "gpon-onu-endpoint"


# --- reference: whole-payload builders and encoder ------------------------------


def _db(x: float) -> float:
    return round(x, 2)


def _ps(x: float) -> float:
    return round(x, 3)


def _verdict_dict(row) -> dict[str, Any]:
    """A verdict row as a JSON item, its margin and pass worked out here from its value, threshold and direction."""
    quantity, value, threshold, unit, direction, _, _ = row
    digits = _ps if unit == "ps" else _db
    floor = direction == "min"
    return {
        "quantity": quantity,
        "value": digits(value),
        "threshold": digits(threshold),
        "unit": unit,
        "direction": direction,
        "margin": digits(value - threshold if floor else threshold - value),
        "pass": value >= threshold if floor else value <= threshold,
    }


def _loss_dict(connectors, fiber, splices, splitters, margin, total) -> dict[str, float]:
    return {
        "connectors": _db(connectors),
        "fiber": _db(fiber),
        "splices": _db(splices),
        "splitters": _db(splitters),
        "margin": _db(margin),
        "total": _db(total),
    }


def plan_to_dict(report) -> dict[str, Any]:
    verdicts = [_verdict_dict(row) for row in verdict_table(report)]
    return {
        "standard": {
            "name": report.standard.name,
            "bit_rate": report.standard.bit_rate,
            "line_code": report.standard.line_code.value,
            "rx_sensitivity": _db(report.standard.rx_sensitivity),
        },
        "path": list(report.path_nodes),
        "spans": [
            {
                "id": span_id,
                "link": link,
                "length": length,
                "splices": splices,
                "loss": {"connectors": _db(connectors), "fiber": _db(fiber), "splices": _db(splice),
                         "splitters": _db(splitters), "margin": _db(margin), "total": _db(loss)},
                "rise_time": {
                    "ceiling": _ps(ceiling),
                    "dispersion": _ps(dispersion),
                    "tx": _ps(tx),
                    "rx": _ps(rx),
                    "total": _ps(rise),
                    "pass": rise <= ceiling,
                },
            }
            for (span_id, link, length, splices, connectors, fiber, splice, splitters, margin, loss,
                 ceiling, dispersion, tx, rx, rise) in report.spans
        ],
        "path_loss": _loss_dict(*report.path),
        "distribution_loss": _db(report.distribution_loss),
        "planning_floor": _db(report.planning_floor),
        "max_loss": _db(report.max_loss),
        "amplifier_plan": {
            "gain_deficit": _db(report.amplifier_plan.gain_deficit),
            "unit_gain": _db(report.amplifier_plan.unit_gain),
            "edfa_count": report.amplifier_plan.edfa_count,
            "total_gain": _db(report.amplifier_plan.total_gain),
        },
        "inventory_gain": _db(report.inventory_gain),
        "applied_gain": _db(report.applied_gain),
        "received_power": {"effective": _db(report.received), "as_built": _db(report.as_built_power)},
        "verdicts": verdicts,
        "overall_pass": all(item["pass"] for item in verdicts),
    }


def trace_to_dict(trace, ber=None) -> dict[str, Any]:
    out: dict[str, Any] = {
        "points": [{"label": label, "power": _db(power)} for label, power in zip(trace.labels, trace.powers)],
        "final_power": _db(trace.final_power),
    }
    if ber is not None:
        out["ber"] = {"q_factor": round(ber.q_factor, 3), "ber": float(f"{ber.ber:.3e}")}
    return out


def forecast_to_dict(inputs, forecast) -> dict[str, Any]:
    return {
        "inputs": {
            "population": inputs.population,
            "cellular_penetration": inputs.cellular_penetration,
            "operator_share": inputs.operator_share,
            "lte_penetration": inputs.lte_penetration,
            "annual_growth": inputs.annual_growth,
            "horizon": inputs.horizon,
        },
        "mobile_subscribers": forecast.mobile_subscribers,
        "operator_subscribers": forecast.operator_subscribers,
        "lte_subscribers": forecast.lte_subscribers,
        "projected_subscribers": forecast.projected_subscribers,
    }


def violations_to_dict(violations) -> dict[str, Any]:
    return {
        "valid": not violations,
        "violations": [
            {"element": v.element, "rule": v.rule, "message": v.message} for v in violations
        ],
    }


def to_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# --- fixture plants -------------------------------------------------------------


def _span(span_id: str, a: str, b: str, length: float, fiber: str = "g652-β", **extra) -> dict[str, Any]:
    return {"id": span_id, "from": a, "to": b, "length": length, "fiber": fiber, "splices": "auto", **extra}


def _plant(nodes: list[tuple[str, str]], spans: list[dict[str, Any]], **extra) -> dict[str, Any]:
    return {
        "topology": "ring",
        "nodes": [{"id": node_id, "name": name} for node_id, name in nodes],
        "fiber_profiles": {"g652-β": {"attenuation": 0.3, "dispersion": 3.5, "drum_length": 2.5}},
        "transceiver": dict(SLEMAN["transceiver"]),
        "losses": {"connector_loss": 0.3, "splice_loss": 0.05, "system_margin": 3.0, "splitter_excess_loss": 0.5},
        "spans": spans,
        "distribution_loss": 16.67,
        "edfa_gain": 17.5,
        **extra,
    }


# Node names and ids that json.dumps escapes: non-ASCII, quotes, a backslash and control characters.
RING = _plant(
    [("a", "Sléman Hub"), ("b", 'Node "Q"'), ("c", "C:\\drop\tpoint"), ("d", "bell\x07 北 \U0001f4e1")],
    [
        _span("s-α", "a", "b", 6.0, splitters=[8], amplifiers=[{"gain": 17.5, "kind": "edfa"}]),
        _span("s-b", "b", "c", 42.0),  # its dispersion pushes the rise time past 70 ps
        _span("s-c", "c", "d", 3.3, connectors=0),
        _span("s-d", "d", "a", 12.0, splices=2),
    ],
    standards={'lab "rz" \\ 5G': {"bit_rate": 5e9, "line_code": "rz", "rx_sensitivity": -19.5}},
)
RING_PATHS = ("ring", "a,b,c", "c,d", "b,a")

PAIR = _plant(
    [("west", "West"), ("east", "East")],
    [_span("s1", "west", "east", 10.0), _span("s2", "east", "west", 50.0)],
)

# An absurd transmitter and receiver, outside the dBm range: the loss budget and a verdict margin would be inf.
HUGE = copy.deepcopy(SLEMAN)
HUGE["transceiver"].update(tx_power=1e308, rx_sensitivity=-1e308)
HUGE["standards"] = {"deaf": {"bit_rate": 1e9, "line_code": "nrz", "rx_sensitivity": -1e308}}


# A -0.0 connector loss: every span's connector total is -0.0, which json.dumps writes as -0.0.
NEGATIVE_ZERO = copy.deepcopy(SLEMAN)
NEGATIVE_ZERO["losses"]["connector_loss"] = -0.0

# A 0.0 dB system margin, the value a hand-built -0.0 margin equals.
ZERO_MARGIN = copy.deepcopy(SLEMAN)
ZERO_MARGIN["losses"]["system_margin"] = 0.0

# Lengths json.dumps writes unrounded, with more digits than any rounded field and in exponent form.
FINE_LENGTHS = copy.deepcopy(SLEMAN)
for span, length in zip(FINE_LENGTHS["spans"], (10.0945678, 1e-05, 1234.5, 0.1 + 0.2)):
    span["length"] = length


def _marker(key: str) -> str:
    """What a report's skeleton holds, in place of a table, before the table's rows are spliced in."""
    return f'\n  "{key}": []'


# Node ids and names, span ids, a fiber name (so trace labels) and a standard name that each hold markers.
MARKED_IDS = ["a" + _marker("path"), "b" + _marker("verdicts"), "c" + _marker("violations")]
MARKED_FIBER = "g652" + _marker("points")
MARKED_STANDARD = "lab" + _marker("spans") + _marker("verdicts")
MARKED = _plant(
    [(MARKED_IDS[0], "A" + _marker("spans")), (MARKED_IDS[1], "B" + _marker("points")), (MARKED_IDS[2], "C")],
    [_span("s1" + _marker("spans"), *MARKED_IDS[:2], 6.0, fiber=MARKED_FIBER),
     _span("s2" + _marker("verdicts"), *MARKED_IDS[1:], 8.0, fiber=MARKED_FIBER),
     _span("s3" + _marker("path"), MARKED_IDS[2], MARKED_IDS[0], 9.0, fiber=MARKED_FIBER)],
    fiber_profiles={MARKED_FIBER: {"attenuation": 0.3, "dispersion": 3.5, "drum_length": 2.5}},
    standards={MARKED_STANDARD: {"bit_rate": 5e9, "line_code": "rz", "rx_sensitivity": -19.5}},
)

def _leaf_paths(doc: dict[str, Any]) -> list[str]:
    children: dict[str, list[str]] = {}
    for span in doc["spans"]:
        children.setdefault(span["from"], []).append(span["to"])
    paths, stack = [], [[doc["head"]]]
    while stack:
        path = stack.pop()
        kids = children.get(path[-1], [])
        paths.extend([",".join(path)] if not kids else [])
        stack.extend(path + [kid] for kid in kids)
    return sorted(paths)


# --- cases: (what was rendered, writer output, reference output) ---------------

Case = tuple[str, str, str]


def plan_cases(doc: NetworkDocument, standards: list[str], paths: tuple[str, ...]) -> Iterator[Case]:
    for path in paths:
        for standard in standards:
            for as_built in (False, True):
                report = run_plan(doc, standard, path, as_built=as_built)
                yield f"plan {standard} {path} {as_built}", render_plan_json(report), to_json(plan_to_dict(report))


def trace_cases(doc: NetworkDocument, standards: list[str], paths: tuple[str, ...]) -> Iterator[Case]:
    for path in paths:
        for power in (None, 3.0):
            for with_ber in (False, True):
                trace, ber = run_trace(doc, path, input_power=power, with_ber=with_ber)
                reference = to_json(trace_to_dict(trace, ber))
                yield f"trace {path} {power} {with_ber}", render_trace_json(trace, ber), reference


def validate_cases(doc: NetworkDocument, standards: list[str], paths: tuple[str, ...]) -> Iterator[Case]:
    violations = validate_network(doc.network)
    yield "validate", render_violations_json(violations), to_json(violations_to_dict(violations))


def forecast_cases(doc: NetworkDocument, standards: list[str], paths: tuple[str, ...]) -> Iterator[Case]:
    if doc.traffic is not None:
        inputs = traffic_input_from_mapping(doc.traffic)
        forecast = forecast_subscribers(inputs)
        yield "forecast", render_forecast_json(inputs, forecast), to_json(forecast_to_dict(inputs, forecast))


REPORTS = (plan_cases, trace_cases, validate_cases, forecast_cases)


def assert_all_equal(cases: Iterator[Case]) -> int:
    """Assert each writer output equals its reference; returns the number of cases."""
    n = 0
    for case, ours, reference in cases:
        assert ours == reference, case
        n += 1
    return n


PLANTS = {
    "sleman": (SLEMAN, [ONU], ("ring", "seyegan,tempel,pakem")),
    "ring": (RING, [*builtin_profiles(), 'lab "rz" \\ 5G'], RING_PATHS),
    "parallel-pair": (PAIR, [ONU, "table2-receiver"], ("ring", "west,east", "east,west")),
    "tree": (TREE, [ONU], tuple(_leaf_paths(TREE))),
    "negative-zero": (NEGATIVE_ZERO, [ONU], ("ring", "seyegan,tempel,pakem")),
    "fine-lengths": (FINE_LENGTHS, [ONU], ("ring",)),
    "table-markers": (MARKED, [ONU, MARKED_STANDARD], ("ring", ",".join(MARKED_IDS[:2]), ",".join(MARKED_IDS[1:]))),
}


@pytest.mark.parametrize("plant", PLANTS)
def test_writers_match_the_reference_encoder(plant):
    raw, standards, paths = PLANTS[plant]
    doc = parse_network(copy.deepcopy(raw))
    for cases in REPORTS[:3]:
        assert assert_all_equal(cases(doc, standards, paths)) >= 1
    assert assert_all_equal(forecast_cases(doc, standards, paths)) == (doc.traffic is not None)


def test_fixtures_reach_the_cases_they_are_for():
    ring = parse_network(copy.deepcopy(RING))
    lab = run_plan(ring, 'lab "rz" \\ 5G', "ring", as_built=True)
    assert not lab.overall_pass and not verdict_table(lab)[0][6]  # as built: too little gain
    row = run_plan(ring, ONU, "b,c").spans[0]
    assert not row[14] <= row[10]  # its rise time fails
    assert '\\u00e9' in render_plan_json(lab) and '\\"Q\\"' in render_plan_json(lab)


def test_non_finite_plan_values_are_spelled_as_json_dumps_spells_them():
    with pytest.raises(NetworkFileError, match=r"^transceiver: tx_power must be in \[-100, 100\] dBm, got 1e\+308$"):
        parse_network(copy.deepcopy(HUGE))  # no plant file reaches them
    report = run_plan(parse_network(copy.deepcopy(SLEMAN)), ONU)
    fields = {name: getattr(report, name) for name in report._fields}
    deaf = copy.copy(report.standard)
    object.__setattr__(deaf, "rx_sensitivity", -1e308)  # past the profile's bound: its margin is inf
    huge = PlanReport(**{**fields, "max_loss": math.inf, "as_built_power": -math.inf, "distribution_loss": math.nan,
                         "standard": deaf, "received": 1e308})
    ours = render_plan_json(huge)
    assert ours == to_json(plan_to_dict(huge))
    # without non-finite values the check above shows nothing
    assert '"max_loss": Infinity' in ours and '"margin": Infinity' in ours
    assert '"as_built": -Infinity' in ours and '"distribution_loss": NaN' in ours


def test_broken_plants_list_their_violations():
    broken = copy.deepcopy(SLEMAN)
    del broken["spans"][3]
    cyclic = copy.deepcopy(TREE)
    cyclic["spans"].append(_span("loop", "d0.0", "olt", 1.0, fiber="g984-distribution"))
    for raw in (broken, cyclic, PAIR):
        violations = validate_network(parse_network(raw).network)
        assert render_violations_json(violations) == to_json(violations_to_dict(violations))
    assert validate_network(parse_network(broken).network)
    assert validate_network(parse_network(cyclic).network)


def test_table_markers_in_strings_stay_inside_them():
    """The skeleton of every report holds each table as a marker, and user strings may hold one too:
    in a node id, a name, a span id, a trace label, a standard name or, below, a violation."""
    broken = copy.deepcopy(MARKED)
    unknown = broken["spans"][0]["to"] = "z" + _marker("violations")
    broken["spans"][1]["id"] = broken["spans"][2]["id"]
    violations = validate_network(parse_network(broken).network)
    assert render_violations_json(violations) == to_json(violations_to_dict(violations))
    assert f"node:{MARKED_IDS[0]}" in [v.element for v in violations]
    assert f"references unknown node {unknown!r}" in [v.message for v in violations]
    doc = parse_network(copy.deepcopy(MARKED))
    trace, _ = run_trace(doc)
    assert any(_marker("points") in label for label in trace.labels)
    assert _marker("spans") in run_plan(doc, MARKED_STANDARD).standard.name

@pytest.mark.parametrize(
    "inputs",
    [
        TrafficInput(population=0, cellular_penetration=0.0, operator_share=0.0,
                     lte_penetration=0.0, annual_growth=0.0, horizon=0),
        # The largest LTE base the ranges allow, held for the longest horizon: exactly the projection ceiling.
        TrafficInput(population=10**10, cellular_penetration=10.0, operator_share=1.0,
                     lte_penetration=1.0, annual_growth=0.0, horizon=100),
    ],
    ids=["zeros", "at-the-ceiling"],
)
def test_forecast_edge_values(inputs):
    forecast = forecast_subscribers(inputs)
    assert render_forecast_json(inputs, forecast) == to_json(forecast_to_dict(inputs, forecast))


def test_no_table_row_reaches_the_pure_python_encoder(monkeypatch, tmp_path):
    """json.dumps with an indent runs json.encoder._make_iterencode, too slow for a plant-sized table.
    Rendering a 1000-node ring's reports (and a broken copy's violations), it sees nothing: each
    report's skeleton was written at import, and each table row is a %-format."""
    raw = json.loads(write_ring(tmp_path, 1000).read_text(encoding="utf-8"))
    doc = parse_network(copy.deepcopy(raw))
    del raw["spans"][500]
    report = run_plan(doc, ONU)
    trace, ber = run_trace(doc, with_ber=True)
    violations = validate_network(parse_network(raw).network)
    inputs = traffic_input_from_mapping(doc.traffic)
    forecast = forecast_subscribers(inputs)
    payloads: list[Any] = []
    make_iterencode = json.encoder._make_iterencode

    def recording(*args, **kwargs):
        encode = make_iterencode(*args, **kwargs)
        return lambda payload, level: payloads.append(payload) or encode(payload, level)

    monkeypatch.setattr(json.encoder, "_make_iterencode", recording)
    json.dumps({"probe": [1]}, indent=2)
    assert payloads == [{"probe": [1]}]  # the patch is live
    del payloads[:]
    plan, points = render_plan_json(report), render_trace_json(trace, ber)
    ours = [plan, points, render_violations_json(violations), render_forecast_json(inputs, forecast)]
    monkeypatch.undo()
    assert ours == [to_json(plan_to_dict(report)), to_json(trace_to_dict(trace, ber)),
                    to_json(violations_to_dict(violations)), to_json(forecast_to_dict(inputs, forecast))]
    # the tables are there, so they went round the encoder
    assert plan.count('"link"') == 1000 and points.count('"label"') > 8000 and violations
    assert payloads == []


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=documents(), standard=st.sampled_from([*builtin_profiles(), "lab"]),
       path=st.sampled_from(["ring", "seyegan,tempel,pakem", "gamping,seyegan"]))
def test_writers_match_the_reference_on_mutated_documents(raw, standard, path):
    try:
        doc = parse_network(raw)
    except (ConfigurationError, DomainError):
        return
    for cases in REPORTS:
        try:
            assert_all_equal(cases(doc, [standard], (path,)))
        except (ConfigurationError, DomainError):
            continue


@pytest.mark.parametrize("power", [1e300, 999999999.99, 1e11])
@pytest.mark.parametrize("with_ber", [False, True], ids=["plain", "ber"])
def test_traces_far_from_the_plant_match_the_reference(sleman_doc, power, with_ber):
    """1e300 dBm takes the exact path; 1e9 and 1e11 dBm reach 12 and 14 digits on the fixed-point one.
    The BER model cannot reach such powers, so the BER block comes from the plant's own trace."""
    trace, _ = run_trace(sleman_doc, input_power=power)
    ber = run_trace(sleman_doc, with_ber=True)[1] if with_ber else None
    ours = render_trace_json(trace, ber)
    assert ours == to_json(trace_to_dict(trace, ber))
    assert f'"power": {round(power, 2)!r}' in ours
    with pytest.raises(DomainError, match="beyond the float range in watts"):
        run_trace(sleman_doc, input_power=power, with_ber=True)


def span_row(span_id: str, link: str, length: float, splices: int, loss: tuple, rise: tuple) -> tuple:
    """A plan row from a span's five loss figures and its (ceiling, dispersion, tx, rx), totalled as a plan
    totals them."""
    connectors, fiber, splice, splitters, margin = loss
    ceiling, dispersion, tx, rx = rise
    return (span_id, link, length, splices, *loss, connectors + fiber + splice + splitters + margin,
            *rise, total_risetime(tx, rx, dispersion))


def test_rows_the_fixed_point_slots_cannot_spell_match_the_reference(sleman_doc):
    """Ints, nan, inf and values at or beyond 1e12 in the rows and the received power, which no plant file
    produces, and a -0.0 margin beside rows whose 0.0 margin is one shared object."""
    report = run_plan(sleman_doc, ONU)
    fields = {name: getattr(report, name) for name in report._fields}
    odd = (
        span_row("s-int", "A - B", 7, 3, (0, -0.0, 1, 2.5, 3), (70, 1, 0, 35)),
        span_row("s-big", "B - C", 1e12, 3, (1e12, 0.004, 0.005, 0.0, 3.0), (1e300, 1234567890123.4567, 0.0005, 35.0)),
        span_row("s-nan", "C - D", math.nan, 3, report.spans[0][4:9], (math.inf, math.nan, 0.0, 35.0)),
        ("s-int-rise", "D - E", 1.0, 0, *report.spans[0][4:10], 70, 0.0, 0.0, 0.0, 69),
        ("s-nan-rise", "E - F", 1.0, 0, *report.spans[0][4:10], -math.inf, 0.0, 0.0, 0.0, math.nan),
    )
    for row in odd:
        for received in (report.received, 1e12):  # against the standard's -28.0 dBm
            strange = PlanReport(**{**fields, "spans": (*report.spans, row), "received": received})
            assert render_plan_json(strange) == to_json(plan_to_dict(strange)), (row[0], received)
    # Every row of a 0.0 dB margin plan holds the one 0.0 object; a -0.0 margin equals it but spells apart.
    zero = run_plan(parse_network(ZERO_MARGIN), ONU)
    first = zero.spans[0]
    signed = span_row("s-minus-zero", "F - G", 1.0, 0, (*first[4:8], -0.0), first[10:14])
    assert all(r[8] is first[8] == 0.0 == signed[8] for r in zero.spans)
    strange = PlanReport(**{**{name: getattr(zero, name) for name in zero._fields}, "spans": (*zero.spans, signed)})
    assert render_plan_json(strange) == to_json(plan_to_dict(strange))
    trace = PowerTrace(("input", "x", "y"), (3, -0.0, 2.5))
    assert render_trace_json(trace) == to_json(trace_to_dict(trace))


def test_reports_sharing_every_column_or_none_match_the_reference(sleman_doc):
    """A column every row holds the same object in is spelled once: with no rows none is, with one row or
    repeated rows every spelled column is, and rows built apart share none."""
    report = run_plan(sleman_doc, ONU)
    fields = {name: getattr(report, name) for name in report._fields}
    first = report.spans[0]
    # The first row's figures again, each a new float object.
    apart = tuple((f"s{i}", first[1], float(repr(first[2])), first[3], *[float(repr(x)) for x in first[4:]])
                  for i in range(3))
    assert apart[0][8] == apart[1][8] and apart[0][8] is not apart[1][8]
    for spans in ((), report.spans[:1], (first,) * 3, apart):
        strange = PlanReport(**{**fields, "spans": spans})
        assert render_plan_json(strange) == to_json(plan_to_dict(strange)), len(spans)


def _slot(n: int) -> str:
    return f"%.{n}f" + "\0" * (n - 1) + "\n"


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


BELOW_1E12 = st.one_of(
    st.floats(min_value=-1e12, max_value=1e12, exclude_min=True, exclude_max=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.005, -0.0005, 0.0015, 2.675, 999999999999.9995, -999999999999.995]),
    st.integers(-10**15 + 1, 10**15 - 1).map(lambda k: k / 1000),  # ties and near-ties at three decimals
    st.integers(-2 * 10**14 + 1, 2 * 10**14 - 1).map(lambda k: k / 200),  # ties at two decimals
    st.integers(-8 * 10**12 + 1, 8 * 10**12 - 1).map(lambda k: k / 8),  # binary ties
    st.integers(0, 2**64 - 1).map(_from_bits).filter(lambda x: abs(x) < 1e12),  # any bit pattern, subnormals too
)


@settings(max_examples=3000, deadline=None)
@given(x=BELOW_1E12, n=st.sampled_from([2, 3]))
def test_fixed_point_spelling_is_the_repr_of_the_rounded_value(x, n):
    # The trailing "" is left by the one %-format, so the fixed-point path spelled it.
    assert spell((x,), _slot(n)) == [repr(round(x, n)), ""]


@settings(max_examples=500, deadline=None)
@given(a=BELOW_1E12, b=BELOW_1E12, c=BELOW_1E12)
def test_mixed_slots_trim_only_their_own_zeros(a, b, c):
    values = (a / 4, b / 4, c / 4)  # root-sum-square below 1e12
    spelled = spell(values, "%r\n" + _slot(3) + _slot(2))
    assert spelled == [repr(values[0]), repr(round(values[1], 3)), repr(round(values[2], 2)), ""]


@pytest.mark.parametrize("values", [(1e12,), (-1e12,), (1e300,), (1e15 + 0.3,), (math.inf,), (-math.inf,),
                                    (math.nan,), (5,), (1.5, 7, 2.25), (0.5, 1e12), (1e-3, math.nan)])
def test_values_beyond_the_fixed_point_slots_take_the_exact_path(values):
    for n in (2, 3):
        assert spell(values, _slot(n) * len(values)) == [json.dumps(round(x, n)) for x in values]
    # Trimmed fixed-point digits would be wrong for these: 1000000000000000.25 for 1000000000000000.2, 5.0 for 5.
    assert ("%.2f" % (1e15 + 0.3), "%.2f" % 5) == ("1000000000000000.25", "5.00")
