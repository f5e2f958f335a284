"""The text writers against the f-string writers they replaced.

``planning.render_plan_text`` and ``signal_chain.render_trace_text`` format each row of a
ring-sized table with one ``%``-template. The reference below is the earlier
code, kept verbatim: one format-spec f-string field per number. Every case
asserts the two strings are equal byte for byte: the Sleman ring, the golden
GPON tree and 12-node ring, a seeded 1,000-span ring, traces injected at
1e300 and 1e11 dBm, a plant whose connector loss is -0.0 (printed -0.00),
rows and verdicts holding nan, inf and ints, and a Hypothesis property over
mutated Sleman documents.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fiberplan.model import ConfigurationError, DomainError
from fiberplan.netfile import load_network, parse_network
from fiberplan.planning import PlanReport, render_plan_text, run_plan
from fiberplan.risetime import max_system_risetime
from fiberplan.signal_chain import BerEstimate, PowerTrace, render_trace_text, run_trace
from fiberplan.standards import Verdict, builtin_profiles

from test_cli_fuzz import documents
from test_json_render import ONU, SLEMAN, TREE, _leaf_paths, span_row
from test_scaling import write_ring

RING = json.loads((Path(__file__).parent / "golden" / "ring-network.json").read_text(encoding="utf-8"))


# --- reference: the f-string writers the templates replaced ----------------------


def _fmt_verdict(v: Verdict) -> str:
    digits = 3 if v.unit == "ps" else 2
    op = ">=" if v.direction == "min" else "<="
    flag = "PASS" if v.passed else "FAIL"
    return (
        f"{v.quantity:<32} {v.value:>10.{digits}f} {v.unit} {op} "
        f"{v.threshold:.{digits}f} {v.unit}  margin {v.margin:+.{digits}f}  {flag}"
    )


def reference_plan_text(report: PlanReport) -> str:
    lines = []
    lines.append(f"Plan for path: {' -> '.join(report.path_nodes)}")
    ceiling = max_system_risetime(report.standard.bit_rate, report.standard.line_code)
    lines.append(
        f"Standard: {report.standard.name} "
        f"(sensitivity {report.standard.rx_sensitivity:.2f} dBm, rise-time ceiling {ceiling:.3f} ps)"
    )
    lines.append("")
    lines.append("Span loss budgets (dB, each span as a standalone path)")
    lines.append(
        f"{'span':<20} {'km':>8} {'conn':>6} {'fiber':>6} {'splice':>6} {'split':>6} {'margin':>6} {'total':>6}"
    )
    for span_id, _, length, _, connectors, fiber, splice, splitters, margin, loss, *_ in report.spans:
        lines.append(
            f"{span_id:<20} {length:>8g} {connectors:>6.2f} {fiber:>6.2f} "
            f"{splice:>6.2f} {splitters:>6.2f} {margin:>6.2f} {loss:>6.2f}"
        )
    lines.append("")
    lines.append("Rise-time budgets")
    lines.append(f"{'link':<24} {'rise time ps':>12} {'splices':>8}  verdict")
    for _, link, _, splices, *_, ceiling, _, _, _, rise in report.spans:
        flag = "pass" if rise <= ceiling else "FAIL"
        lines.append(f"{link:<24} {rise:>12.3f} {splices:>8d}  {flag}")
    lines.append("")
    connectors, fiber, splices, splitters, margin, total = report.path
    lines.append(
        "Path loss (margin once): "
        f"connectors {connectors:.2f} + fiber {fiber:.2f} + splices {splices:.2f}"
        f" + splitters {splitters:.2f} + margin {margin:.2f} = {total:.2f} dB"
    )
    lines.append(
        f"Loss budget: floor {report.planning_floor:.2f} dBm "
        f"(planning sensitivity {report.planning_floor - report.distribution_loss:.2f}"
        f" + distribution {report.distribution_loss:.2f}), max loss {report.max_loss:.2f} dB"
    )
    plan = report.amplifier_plan
    lines.append(
        f"Amplifier plan: deficit {plan.gain_deficit:.2f} dB -> "
        f"{plan.edfa_count} x {plan.unit_gain:.2f} dB EDFA = {plan.total_gain:.2f} dB"
    )
    lines.append(
        f"Received power: {report.received:.2f} dBm "
        f"(as built {report.as_built_power:.2f} dBm, inventory gain {report.inventory_gain:.2f} dB,"
        f" applied gain {report.applied_gain:.2f} dB)"
    )
    lines.append("")
    lines.append("Verdicts")
    for v in report.verdicts:
        lines.append("  " + _fmt_verdict(v))
    lines.append("")
    lines.append(f"OVERALL: {'PASS' if report.overall_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def reference_trace_text(trace: PowerTrace, ber: BerEstimate | None = None) -> str:
    distinct = set(trace.labels)  # a few distinct labels repeat
    width = max(map(len, distinct))
    padded = {label: f"{label:<{width}}" for label in distinct}
    lines = [f"{padded[label]}  {power:>9.2f} dBm" for label, power in zip(trace.labels, trace.powers)]
    if ber is not None:
        lines.append("")
        lines.append(f"Q factor at end point: {ber.q_factor:.3f}")
        lines.append(f"BER estimate: {ber.ber:.3e}")
    return "\n".join(lines) + "\n"


# --- cases ----------------------------------------------------------------------


def assert_plans_match(doc, standards, paths) -> None:
    for path in paths:
        for standard in standards:
            for as_built in (False, True):
                report = run_plan(doc, standard, path, as_built=as_built)
                assert render_plan_text(report) == reference_plan_text(report), (standard, path, as_built)


def assert_traces_match(doc, paths, powers=(None, 3.0)) -> None:
    for path in paths:
        for power in powers:
            for with_ber in (False, True):
                try:
                    trace, ber = run_trace(doc, path, input_power=power, with_ber=with_ber)
                except DomainError:  # the BER of an absurd power is beyond the float range
                    continue
                assert render_trace_text(trace, ber) == reference_trace_text(trace, ber), (path, power, with_ber)


NEGATIVE_ZERO = copy.deepcopy(SLEMAN)
NEGATIVE_ZERO["losses"]["connector_loss"] = -0.0

PLANTS = {
    "sleman": (SLEMAN, list(builtin_profiles()), ("ring", "seyegan,tempel,pakem", "seyegan,tempel,seyegan")),
    "tree": (TREE, [ONU], tuple(_leaf_paths(TREE))),
    "ring": (RING, [ONU, "table2-receiver"], ("ring",)),
    "negative-zero": (NEGATIVE_ZERO, [ONU], ("ring",)),
}


@pytest.mark.parametrize("plant", PLANTS)
def test_writers_match_the_reference(plant):
    raw, standards, paths = PLANTS[plant]
    doc = parse_network(copy.deepcopy(raw))
    assert_plans_match(doc, standards, paths)
    assert_traces_match(doc, paths)


def test_negative_zero_prints_as_before():
    report = run_plan(parse_network(copy.deepcopy(NEGATIVE_ZERO)), ONU)
    assert report.spans[0][4] == 0 and math.copysign(1, report.spans[0][4]) < 0  # its connector loss
    assert "  -0.00   3.03" in render_plan_text(report)  # without the -0.0 the case above shows nothing


def test_a_thousand_span_ring_matches_the_reference(tmp_path):
    doc = load_network(write_ring(tmp_path, 1000))
    assert_plans_match(doc, [ONU], ("ring",))
    assert_traces_match(doc, ("ring",))


@pytest.mark.parametrize("power", [1e300, 1e11, -1e11, 999999999.99])
def test_traces_far_from_the_plant_match_the_reference(sleman_doc, power):
    assert_traces_match(sleman_doc, ("ring",), (power,))
    trace, _ = run_trace(sleman_doc, input_power=power)
    ber = run_trace(sleman_doc, with_ber=True)[1]  # a BER line under figures the BER model cannot reach
    assert render_trace_text(trace, ber) == reference_trace_text(trace, ber)


def test_values_outside_the_plant_domain_print_as_before(sleman_doc):
    """nan, inf, -0.0 and ints in the rows and the verdict, which no plant file produces, and a span id
    too long for the verdict column."""
    report = run_plan(sleman_doc, ONU)
    fields = {name: getattr(report, name) for name in report._fields}
    odd = (span_row("s-odd", "A - B", 7, 3, (0, -0.0, 1, 2.5, 3), (math.inf, math.nan, 0, 35)),
           span_row("s-int-and-an-id-past-22-columns", "B - C", 7, 3, (0, 1, 1, 0, 3), (70, 1, 0, 35)),
           ("s-inf", "C - D", 1.0, 0, *report.spans[0][4:10], math.inf, 0.0, 0.0, 0.0, -math.inf))
    verdicts = (Verdict("received power", math.nan, -28, "dBm", "min"), Verdict("rise time s-odd", 69, 70, "ps", "max"),
                Verdict("rise time", -math.inf, math.inf, "ps", "max"))
    for verdict in verdicts:
        strange = PlanReport(**{**fields, "spans": (*report.spans, *odd), "power_verdict": verdict,
                                "max_loss": math.inf})
        assert render_plan_text(strange) == reference_plan_text(strange), verdict
    trace = PowerTrace(("input", "x"), (3, -0.0))
    assert render_trace_text(trace) == reference_trace_text(trace)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=documents(), standard=st.sampled_from([*builtin_profiles(), "lab"]),
       path=st.sampled_from(["ring", "seyegan,tempel,pakem", "gamping,seyegan"]))
def test_writers_match_the_reference_on_mutated_documents(raw, standard, path):
    try:
        doc = parse_network(raw)
    except (ConfigurationError, DomainError):
        return
    for check in (lambda: assert_plans_match(doc, [standard], (path,)), lambda: assert_traces_match(doc, (path,))):
        try:
            check()
        except (ConfigurationError, DomainError):
            continue
