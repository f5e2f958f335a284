"""The plan command: evaluate a path of a parsed network document, judge it, report it.

A plan couples the power side (itemized path loss, loss budget derived from
the plant's own receiver sensitivity plus the distribution leg, amplifier
sizing) with the rise-time side (per-span budgets against the standard's
ceiling) and renders both as deterministic text or JSON, spelled by
:mod:`fiberplan.report`. Reports carry no timestamps, so identical inputs
produce identical bytes. The other commands' reports live with their own
models: trace in :mod:`fiberplan.signal_chain`, forecast in
:mod:`fiberplan.traffic`, validate in :mod:`fiberplan.report`.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter

from .model import check_valid, frozen, resolve_path
from .netfile import NetworkDocument
from .power_budget import (
    AmplifierPlan,
    LossBreakdown,
    amplifier_requirement,
    combine_span_losses,
    max_allowed_loss,
    received_power,
    required_input_power,
    span_summary,
)
from .report import BOOL, SLOT, db, dumps, row, spell
from .risetime import RiseTimeReport, max_system_risetime, span_risetime_report
from .standards import StandardProfile, Verdict, power_verdict, resolve_standard, risetime_verdict


@frozen
class SpanResult:
    """One span's loss and rise-time budgets inside a plan."""

    span_id: str
    link: str
    length: float  # km
    splices: int
    loss: LossBreakdown
    rise: RiseTimeReport


@frozen
class PlanReport:
    """Everything the plan command reports for one path under one standard."""

    standard: StandardProfile
    path_nodes: tuple[str, ...]
    spans: tuple[SpanResult, ...]  # sorted by span id
    path: LossBreakdown  # margin applied once
    distribution_loss: float  # dB
    planning_floor: float  # dBm the path must deliver at its exit
    max_loss: float  # dB loss budget for the path
    amplifier_plan: AmplifierPlan
    inventory_gain: float  # dB of amplifiers present in the span inventory
    applied_gain: float  # dB counted toward the verdict
    as_built_power: float  # dBm with inventory amplifiers only
    received: float  # dBm with applied_gain
    verdicts: tuple[Verdict, ...]  # received power, then the rise time of each row of spans, in order

    @property
    def overall_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)


def run_plan(
    doc: NetworkDocument,
    standard: str,
    path_spec: str = "ring",
    as_built: bool = False,
) -> PlanReport:
    """Evaluate one path of a parsed network document against a named standard.

    Amplifier sizing always follows from the path loss against the plant's
    own loss budget. By default the sized gain is assumed installed when the
    inventory falls short of it; ``as_built=True`` restricts the verdict to
    amplifiers actually present in the span inventory. Raises
    ValidationFailure if the network breaks a structural rule.
    """
    network = doc.network
    check_valid(network)
    profile = resolve_standard(standard, doc.standards)

    nodes, spans = resolve_path(network, path_spec)
    ceiling = max_system_risetime(profile.bit_rate, profile.line_code)

    results: dict[str, SpanResult] = {}
    for span in spans:
        if span.id not in results:
            loss, splices = span_summary(span, network.losses)
            link = f"{network.node_name(span.from_node)} - {network.node_name(span.to_node)}"
            rise = span_risetime_report(span, network.transceiver, ceiling)
            # Positional, in field order: binding six keywords per row cost about a third of a row's construction.
            results[span.id] = SpanResult(span.id, link, span.length, splices, loss, rise)
    rows = tuple(results[span_id] for span_id in sorted(results))

    path = combine_span_losses([results[span.id].loss for span in spans], network.losses.system_margin)
    planning_floor = required_input_power(network.transceiver.rx_sensitivity, doc.distribution_loss)
    budget = max_allowed_loss(network.transceiver.tx_power, planning_floor)
    plan = amplifier_requirement(path.total, budget, doc.edfa_gain)

    inventory_gain = math.fsum(a.gain for span in spans for a in span.amplifiers)
    applied_gain = inventory_gain if as_built else max(inventory_gain, plan.total_gain)
    as_built_power = received_power(
        network.transceiver.tx_power, [path.total, doc.distribution_loss], [inventory_gain]
    )
    received = received_power(
        network.transceiver.tx_power, [path.total, doc.distribution_loss], [applied_gain]
    )

    return PlanReport(
        standard=profile,
        path_nodes=tuple(nodes),
        spans=rows,
        path=path,
        distribution_loss=doc.distribution_loss,
        planning_floor=planning_floor,
        max_loss=budget,
        amplifier_plan=plan,
        inventory_gain=inventory_gain,
        applied_gain=applied_gain,
        as_built_power=as_built_power,
        received=received,
        verdicts=(
            power_verdict(received, profile),
            *(risetime_verdict(row.rise.total, ceiling, f"rise time {row.span_id}") for row in rows),
        ),
    )


# A verdict's decimals, indexed by v.unit == "ps": 2 for dBm (or any other unit), 3 for ps.
_VERDICT_TEXT, _VERDICT_SLOTS = zip(*(
    (f"%-32s %10.{n}f %s %s %.{n}f %s  margin %+.{n}f  %s", SLOT[n] * 3) for n in (2, 3)))  # value, threshold, margin


def _fmt_verdict(v: Verdict) -> str:
    op = ">=" if v.direction == "min" else "<="
    flag = "PASS" if v.passed else "FAIL"
    return _VERDICT_TEXT[v.unit == "ps"] % (v.quantity, v.value, v.unit, op, v.threshold, v.unit, v.margin, flag)


# A loss breakdown's JSON key -> its LossBreakdown attribute (dB), in report order.
_LOSS = {"connectors": "connector_total", "fiber": "fiber_total", "splices": "splice_total",
         "splitters": "splitter_total", "margin": "margin", "total": "total"}
_LOSS_FIELDS = tuple(f"loss.{name}" for name in _LOSS.values())
_SPAN_JSON = row({**dict.fromkeys(("id", "link", "length", "splices")), "loss": dict.fromkeys(_LOSS),
                  "rise_time": dict.fromkeys(("ceiling", "dispersion", "tx", "rx", "total", "pass"))})
# The 12 numbers of a span row: its length, six losses (dB) and five rise times (ps).
_SPAN_SLOTS = SLOT[None] + SLOT[2] * len(_LOSS) + SLOT[3] * 5
_span_numbers = attrgetter("length", *_LOSS_FIELDS, *(f"rise.{name}" for name in (*RiseTimeReport._fields, "total")))
_VERDICT_JSON = row(dict.fromkeys(("quantity", "value", "threshold", "unit", "direction", "margin", "pass")))
_verdict_numbers = attrgetter("value", "threshold", "margin")
_SPAN_TEXT, _span_text = "%-20s %8g" + " %6.2f" * len(_LOSS), attrgetter("span_id", "length", *_LOSS_FIELDS)


def render_plan_text(report: PlanReport) -> str:
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
    lines += map(_SPAN_TEXT.__mod__, map(_span_text, report.spans))
    lines.append("")
    lines.append("Rise-time budgets")
    lines.append(f"{'link':<24} {'rise time ps':>12} {'splices':>8}  verdict")
    lines += [
        "%-24s %12.3f %8d  %s" % (row.link, row.rise.total, row.splices, "pass" if row.rise.passed else "FAIL")
        for row in report.spans
    ]
    lines.append("")
    p = report.path
    lines.append(
        "Path loss (margin once): "
        f"connectors {p.connector_total:.2f} + fiber {p.fiber_total:.2f} + splices {p.splice_total:.2f}"
        f" + splitters {p.splitter_total:.2f} + margin {p.margin:.2f} = {p.total:.2f} dB"
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
    lines += ["  " + _fmt_verdict(v) for v in report.verdicts]
    lines.append("")
    lines.append(f"OVERALL: {'PASS' if report.overall_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_plan_json(report: PlanReport) -> str:
    """The plan as JSON, byte for byte what json.dumps(indent=2) writes."""
    standard, plan, spans, verdicts = report.standard, report.amplifier_plan, report.spans, report.verdicts
    spelled = iter(spell(tuple(chain.from_iterable(map(_span_numbers, spans))), _SPAN_SLOTS * len(spans)))
    span_items = [
        _SPAN_JSON % (_json_str(row.span_id), _json_str(row.link), s[0], row.splices, *s[1:], BOOL[row.rise.passed])
        for row, s in zip(spans, zip(*[spelled] * 12))
    ]
    verdict_slots = "".join([_VERDICT_SLOTS[v.unit == "ps"] for v in verdicts])
    spelled = iter(spell(tuple(chain.from_iterable(map(_verdict_numbers, verdicts))), verdict_slots))
    verdict_items = [
        _VERDICT_JSON % (_json_str(v.quantity), value, threshold, _json_str(v.unit), _json_str(v.direction), margin,
                         BOOL[v.passed])
        for v, (value, threshold, margin) in zip(verdicts, zip(*[spelled] * 3))
    ]
    p = report.path
    return dumps({
        "standard": {"name": standard.name, "bit_rate": standard.bit_rate, "line_code": standard.line_code.value,
                     "rx_sensitivity": db(standard.rx_sensitivity)},
        "path": [],
        "spans": [],
        "path_loss": {key: db(getattr(p, name)) for key, name in _LOSS.items()},
        "distribution_loss": db(report.distribution_loss),
        "planning_floor": db(report.planning_floor),
        "max_loss": db(report.max_loss),
        "amplifier_plan": {"gain_deficit": db(plan.gain_deficit), "unit_gain": db(plan.unit_gain),
                           "edfa_count": plan.edfa_count, "total_gain": db(plan.total_gain)},
        "inventory_gain": db(report.inventory_gain),
        "applied_gain": db(report.applied_gain),
        "received_power": {"effective": db(report.received), "as_built": db(report.as_built_power)},
        "verdicts": [],
        "overall_pass": report.overall_pass,
    }, path=["    " + _json_str(node) for node in report.path_nodes], spans=span_items, verdicts=verdict_items)
