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
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

from .model import Network, Span, check_valid, frozen, resolve_path
from .netfile import NetworkDocument
from .power_budget import AmplifierPlan, Leg, amplifier_requirement, check_losses, max_allowed_loss, path_losses
from .power_budget import received_power, required_input_power, span_losses
from .report import BOOL, SLOT, db, dumps, row, skeleton, spell
from .risetime import dispersion_risetime, max_system_risetime, total_risetime
from .standards import StandardProfile, Verdict, power_verdict, resolve_standard, risetime_verdict

# One span of a plan, as one flat row: 0 id, 1 link, 2 length (km), 3 splices; its loss as a
# standalone path (dB): 4 connectors, 5 fiber, 6 splices, 7 splitters, 8 margin, 9 total; its
# rise-time budget (ps): 10 ceiling, 11 dispersion, 12 tx, 13 rx, 14 total. The span passes
# its rise-time verdict iff row[14] <= row[10]. span_row builds it.
SpanRow = tuple[str, str, float, int, float, float, float, float, float, float, float, float, float, float, float]


@frozen
class PlanReport:
    """Everything the plan command reports for one path under one standard."""

    standard: StandardProfile
    path_nodes: tuple[str, ...]
    spans: tuple[SpanRow, ...]  # one row per distinct span, sorted by span id
    path: tuple[float, ...]  # loss (dB) laid out as row[4:10], the margin once: the path_losses figures
    distribution_loss: float  # dB
    planning_floor: float  # dBm the path must deliver at its exit
    max_loss: float  # dB loss budget for the path
    amplifier_plan: AmplifierPlan
    inventory_gain: float  # dB of amplifiers present in the span inventory
    applied_gain: float  # dB counted toward the verdict
    as_built_power: float  # dBm with inventory amplifiers only
    received: float  # dBm with applied_gain
    power_verdict: Verdict  # the received power against the standard's sensitivity

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        """The received-power verdict, then the rise-time verdict of each row, in order; built on each read."""
        return (self.power_verdict, *(risetime_verdict(r[14], r[10], f"rise time {r[0]}") for r in self.spans))

    @property
    def overall_pass(self) -> bool:
        return self.power_verdict.passed and all(r[14] <= r[10] for r in self.spans)


def span_row(span: Span, network: Network, ceiling: float) -> tuple[SpanRow, Leg]:
    """A span of ``network`` as its plan row against a rise-time ``ceiling`` (ps), and its :data:`Leg` of a
    path fold: its run table folded once (:func:`span_losses`), the five loss figures checked by
    :func:`check_losses` (DomainError), the margin added and the total the sum of the five."""
    losses, transceiver, name = network.losses, network.transceiver, network.node_name
    connector, fiber, splice, splitter, splices, leg = span_losses(span, losses)
    margin, tx, rx = losses.system_margin, transceiver.tx_rise_time, transceiver.rx_rise_time
    check_losses(connector, fiber, splice, splitter, margin)
    dispersion = dispersion_risetime(span.fiber.dispersion, transceiver.spectral_width, span.length)
    return (
        span.id, f"{name(span.from_node)} - {name(span.to_node)}", span.length, splices,
        connector, fiber, splice, splitter, margin, connector + fiber + splice + splitter + margin,
        ceiling, dispersion, tx, rx, total_risetime(tx, rx, dispersion),
    ), leg


def run_plan(
    doc: NetworkDocument,
    standard: str,
    path_spec: str = "ring",
    as_built: bool = False,
) -> PlanReport:
    """Evaluate one path of a parsed network document against a named standard.

    The path's loss figures and both received powers come from one fold of its spans' run tables
    (:func:`fiberplan.power_budget.path_losses`): each is the exact sum of its elements, rounded
    once, so the as-built power with no distribution leg is a trace's last point, bit for bit.
    Amplifier sizing follows from the path loss against the plant's own loss budget. By default
    the sized gain is assumed installed when the inventory falls short of it; ``as_built=True``
    restricts the verdict to amplifiers present in the span inventory. Raises ValidationFailure
    if the network breaks a structural rule.
    """
    network = doc.network
    check_valid(network)
    profile = resolve_standard(standard, doc.standards)

    nodes, spans = resolve_path(network, path_spec)
    ceiling = max_system_risetime(profile.bit_rate, profile.line_code)
    losses, transceiver = network.losses, network.transceiver
    distinct = {span.id: span for span in spans}  # a span crossed twice is built once
    built = {key: span_row(span, network, ceiling) for key, span in distinct.items()}  # id -> its row and leg

    path, terms, gains = path_losses([built[span.id][1] for span in spans], losses)
    planning_floor = required_input_power(transceiver.rx_sensitivity, doc.distribution_loss)
    budget = max_allowed_loss(transceiver.tx_power, planning_floor)
    plan = amplifier_requirement(path[5], budget, doc.edfa_gain)

    inventory_gain = math.fsum(gains)
    planned = not as_built and plan.total_gain > inventory_gain  # the sized gain stands in for the inventory's
    applied_gain = plan.total_gain if planned else inventory_gain
    terms.append(doc.distribution_loss)
    as_built_power = received_power(transceiver.tx_power, terms, gains)
    received = received_power(transceiver.tx_power, terms, [applied_gain]) if planned else as_built_power

    return PlanReport(
        standard=profile,
        path_nodes=tuple(nodes),
        spans=tuple(sorted(row for row, _ in built.values())),  # the ids differ, so only they are compared
        path=path,
        distribution_loss=doc.distribution_loss,
        planning_floor=planning_floor,
        max_loss=budget,
        amplifier_plan=plan,
        inventory_gain=inventory_gain,
        applied_gain=applied_gain,
        as_built_power=as_built_power,
        received=received,
        power_verdict=power_verdict(received, profile),
    )


# A verdict's decimals, indexed by v.unit == "ps": 2 for dBm (or any other unit), 3 for ps.
_VERDICT_TEXT, _VERDICT_SLOTS = zip(*(
    (f"%-32s %10.{n}f %s %s %.{n}f %s  margin %+.{n}f  %s", SLOT[n] * 3) for n in (2, 3)))  # value, threshold, margin


def _fmt_verdict(v: Verdict) -> str:
    op = ">=" if v.direction == "min" else "<="
    flag = "PASS" if v.passed else "FAIL"
    return _VERDICT_TEXT[v.unit == "ps"] % (v.quantity, v.value, v.unit, op, v.threshold, v.unit, v.margin, flag)


# The JSON keys of a loss (dB), in the order of row[4:10] and of a report's path.
_LOSS = ("connectors", "fiber", "splices", "splitters", "margin", "total")
_SPAN_JSON = row({**dict.fromkeys(("id", "link", "length", "splices")), "loss": dict.fromkeys(_LOSS),
                  "rise_time": dict.fromkeys(("ceiling", "dispersion", "tx", "rx", "total", "pass"))})
# The 12 numbers of a span row: its length, six losses (dB) and five rise times (ps).
_SPAN_SLOTS, _span_numbers = SLOT[None] + SLOT[2] * len(_LOSS) + SLOT[3] * 5, itemgetter(2, *range(4, 15))
_VERDICT_JSON = row(dict.fromkeys(("quantity", "value", "threshold", "unit", "direction", "margin", "pass")))
_RISE_JSON = _VERDICT_JSON % ("%s", "%s", "%s", '"ps"', '"max"', "%s", "%s")  # a row's rise-time verdict
_PLAN_JSON = skeleton({
    "standard": dict.fromkeys(("name", "bit_rate", "line_code", "rx_sensitivity")),
    "path": [],
    "spans": [],
    "path_loss": dict.fromkeys(_LOSS),
    **dict.fromkeys(("distribution_loss", "planning_floor", "max_loss")),
    "amplifier_plan": dict.fromkeys(("gain_deficit", "unit_gain", "edfa_count", "total_gain")),
    **dict.fromkeys(("inventory_gain", "applied_gain")),
    "received_power": dict.fromkeys(("effective", "as_built")),
    "verdicts": [],
    "overall_pass": None,
})
_SPAN_TEXT, _span_text = "%-20s %8g" + " %6.2f" * len(_LOSS), itemgetter(0, 2, *range(4, 10))
# _VERDICT_TEXT of a row's rise-time verdict: "rise time " and an id padded to 22 fill the 32 columns of a quantity.
_RISE_TEXT = "  rise time %-22s %10.3f ps <= %.3f ps  margin %+.3f  %s"


def render_plan_text(report: PlanReport) -> str:
    lines, rows = [], report.spans
    lines.append(f"Plan for path: {' -> '.join(report.path_nodes)}")
    ceiling = max_system_risetime(report.standard.bit_rate, report.standard.line_code)
    lines.append(f"Standard: {report.standard.name} (sensitivity {report.standard.rx_sensitivity:.2f} dBm,"
                 f" rise-time ceiling {ceiling:.3f} ps)")
    lines.append("")
    lines.append("Span loss budgets (dB, each span as a standalone path)")
    lines.append(
        f"{'span':<20} {'km':>8} {'conn':>6} {'fiber':>6} {'splice':>6} {'split':>6} {'margin':>6} {'total':>6}"
    )
    lines += map(_SPAN_TEXT.__mod__, map(_span_text, rows))
    lines.append("")
    lines.append("Rise-time budgets")
    lines.append(f"{'link':<24} {'rise time ps':>12} {'splices':>8}  verdict")
    lines += ["%-24s %12.3f %8d  %s" % (r[1], r[14], r[3], "pass" if r[14] <= r[10] else "FAIL") for r in rows]
    lines.append("")
    lines.append("Path loss (margin once): connectors %.2f + fiber %.2f + splices %.2f + splitters %.2f"
                 " + margin %.2f = %.2f dB" % report.path)
    lines.append(
        f"Loss budget: floor {report.planning_floor:.2f} dBm "
        f"(planning sensitivity {report.planning_floor - report.distribution_loss:.2f}"
        f" + distribution {report.distribution_loss:.2f}), max loss {report.max_loss:.2f} dB"
    )
    plan = report.amplifier_plan
    lines.append(f"Amplifier plan: deficit {plan.gain_deficit:.2f} dB -> {plan.edfa_count} x {plan.unit_gain:.2f} dB"
                 f" EDFA = {plan.total_gain:.2f} dB")
    lines.append(f"Received power: {report.received:.2f} dBm (as built {report.as_built_power:.2f} dBm,"
                 f" inventory gain {report.inventory_gain:.2f} dB, applied gain {report.applied_gain:.2f} dB)")
    lines.append("")
    lines.append("Verdicts")
    lines.append("  " + _fmt_verdict(report.power_verdict))
    lines += [_RISE_TEXT % (r[0], r[14], r[10], r[10] - r[14], "PASS" if r[14] <= r[10] else "FAIL") for r in rows]
    lines.append("")
    lines.append(f"OVERALL: {'PASS' if report.overall_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_plan_json(report: PlanReport) -> str:
    """The plan as JSON, byte for byte what json.dumps(indent=2) writes."""
    standard, plan, rows, power = report.standard, report.amplifier_plan, report.spans, report.power_verdict
    # One spell: the power verdict's three figures, each row's 12 numbers, then each row's rise-time margin.
    # A row's rise-time verdict spells its value and threshold as the row spells its total and ceiling.
    spelled = spell(
        (power.value, power.threshold, power.margin, *chain.from_iterable(map(_span_numbers, rows)),
         *[r[10] - r[14] for r in rows]),
        _VERDICT_SLOTS[power.unit == "ps"] + _SPAN_SLOTS * len(rows) + SLOT[3] * len(rows),
    )
    value, threshold, margin = spelled[:3]
    verdict_items = [_VERDICT_JSON % (_json_str(power.quantity), value, threshold, _json_str(power.unit),
                                      _json_str(power.direction), margin, BOOL[power.passed])]
    span_items = []
    for r, s, rise_margin in zip(rows, zip(*[islice(spelled, 3, None)] * 12), spelled[3 + 12 * len(rows):]):
        flag = BOOL[r[14] <= r[10]]
        span_items.append(_SPAN_JSON % (_json_str(r[0]), _json_str(r[1]), s[0], r[3], *s[1:], flag))
        verdict_items.append(_RISE_JSON % (_json_str("rise time " + r[0]), s[11], s[7], rise_margin, flag))
    return dumps(_PLAN_JSON, (
        standard.name, standard.bit_rate, standard.line_code.value, db(standard.rx_sensitivity),
        *map(db, report.path), db(report.distribution_loss), db(report.planning_floor), db(report.max_loss),
        db(plan.gain_deficit), db(plan.unit_gain), plan.edfa_count, db(plan.total_gain),
        db(report.inventory_gain), db(report.applied_gain), db(report.received), db(report.as_built_power),
        report.overall_pass,
    ), path=["    " + _json_str(node) for node in report.path_nodes], spans=span_items, verdicts=verdict_items)
