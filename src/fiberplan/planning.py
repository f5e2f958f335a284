"""The plan command: evaluate a path of a parsed network document, judge it, report it.

A plan couples the power side (itemized path loss, loss budget derived from
the plant's own receiver sensitivity plus the distribution leg, amplifier
sizing) with the rise-time side (per-span budgets against the standard's
ceiling) and renders both as deterministic text or JSON, spelled by
:mod:`fiberplan.report`; the JSON spells a column every span row shares once per
report. Reports carry no timestamps, so identical inputs produce identical bytes.
The other commands' reports live with their own models: trace in
:mod:`fiberplan.signal_chain`, forecast in :mod:`fiberplan.traffic`, validate in :mod:`fiberplan.report`.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, is_, itemgetter

from .model import Network, Span, check_valid, frozen, resolve_path
from .netfile import NetworkDocument
from .power_budget import AmplifierPlan, Leg, amplifier_requirement, max_allowed_loss, path_losses
from .power_budget import received_power, required_input_power, span_runs
from .report import BOOL, SLOT, db, dumps, row, skeleton, spell
from .risetime import dispersion_risetime, max_system_risetime, total_risetime
from .standards import StandardProfile, Verdict, power_verdict, resolve_standard

# One span of a plan, as one flat row: 0 id, 1 link, 2 length (km), 3 splices; its loss as a
# standalone path (dB): 4 connectors, 5 fiber, 6 splices, 7 splitters, 8 margin, 9 total; its
# rise-time budget (ps): 10 ceiling, 11 dispersion, 12 tx, 13 rx, 14 total. span_row builds it.
SpanRow = tuple[str, str, float, int, float, float, float, float, float, float, float, float, float, float, float]


@frozen
class PlanReport:
    """Everything the plan command reports for one path under one standard: its inputs, not what they judge."""

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

    # Not a field, so no value operation sees it: the report's verdict_table, None until first read.
    __slots__ = ("_table",)

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        """Each row of :func:`verdict_table` as a :class:`Verdict`, in order; built on each read."""
        return tuple(Verdict(*row[:5]) for row in verdict_table(self))

    @property
    def power_verdict(self) -> Verdict:
        """The received power against the standard's sensitivity: the first verdict, built without the table."""
        return power_verdict(self.received, self.standard)

    @property
    def overall_pass(self) -> bool:
        return all(map(_passed, verdict_table(self)))


def verdict_table(report: PlanReport) -> tuple[tuple[str, float, float, str, str, float, bool], ...]:
    """A plan's verdicts as flat rows in the key order of a JSON verdict item, (quantity, value, threshold,
    unit, direction, margin, pass): the received power against the standard's sensitivity (its Verdict's
    fields, margin and pass), then each span row's rise time against its ceiling, in row order, judged once
    here by :class:`Verdict`'s rule: pass is compared directly, not by the sign of the margin (inf - inf is NaN).

    The first call keeps the table in the report, so a plan command judges once for its renderer and exit code."""
    table = report._table
    if table is None:
        table = (_verdict_row(power_verdict(report.received, report.standard)), *[
            ("rise time " + r[0], r[14], r[10], "ps", "max", r[10] - r[14], r[14] <= r[10]) for r in report.spans])
        object.__setattr__(report, "_table", table)
    return table


def span_row(span: Span, network: Network, ceiling: float) -> tuple[SpanRow, Leg]:
    """A span of ``network`` as its plan row against a rise-time ``ceiling`` (ps), and its :data:`Leg` of a path
    fold: its :func:`~fiberplan.power_budget.span_runs` folded by kind (a joint kind's loss rounded once, as
    connector_loss * connectors; the splitters' fsummed; the amplifiers left out), the margin added and the total the
    sum of the five. The fields' bounds keep each figure finite and >= 0 dB, so none is checked."""
    losses, transceiver, names = network.losses, network.transceiver, network._names
    (_, connector, entry, _), (_, fiber, _, _), (_, splice, splices, _), *devices, (_, _, rest, _) = span_runs(
        span, losses)
    connectors, fiber, splice = entry + rest, -fiber, -splice * splices
    connector = -connector * connectors
    splitter = math.fsum([-effect for kind, effect, _, _ in devices if kind == "splitter"]) if devices else 0.0
    margin, tx, rx = losses.system_margin, transceiver.tx_rise_time, transceiver.rx_rise_time
    dispersion = dispersion_risetime(span.fiber.dispersion, transceiver.spectral_width, span.length)
    a, b = span.from_node, span.to_node
    return (
        span.id, f"{names.get(a, a)} - {names.get(b, b)}", span.length, splices,
        connector, fiber, splice, splitter, margin, connector + fiber + splice + splitter + margin,
        ceiling, dispersion, tx, rx, total_risetime(tx, rx, dispersion),
    ), (connectors, splices, fiber, devices or ())  # an empty list would outlive the call for nothing


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
        spans=tuple(sorted([row for row, _ in built.values()])),  # the ids differ, so only they are compared
        path=path,
        distribution_loss=doc.distribution_loss,
        planning_floor=planning_floor,
        max_loss=budget,
        amplifier_plan=plan,
        inventory_gain=inventory_gain,
        applied_gain=applied_gain,
        as_built_power=as_built_power,
        received=received,
    )


# A verdict row's line and the spell slots of its value, threshold and margin, indexed by unit == "ps":
# 2 decimals for dBm (or any other unit), 3 for ps.
_VERDICT_TEXT, _VERDICT_SLOTS = zip(*(
    (f"  %-32s %10.{n}f %s %s %.{n}f %s  margin %+.{n}f  %s", SLOT[n] * 3) for n in (2, 3)))
_OP, _FLAG = {"min": ">=", "max": "<="}, ("FAIL", "PASS")
_RISE_TEXT = "  %-32s %10.3f ps <= %.3f ps  margin %+.3f  %s"  # the ps line of a "max" verdict
_figures, _passed = itemgetter(1, 2, 5), itemgetter(6)  # a verdict row's value, threshold and margin; its pass
_verdict_row = attrgetter(*Verdict._fields, "margin", "passed")  # a Verdict as a verdict_table row
_unquoted = itemgetter(slice(1, None))  # a JSON string without its opening quote


# The JSON keys of a loss (dB), in the order of row[4:10] and of a report's path.
_LOSS = ("connectors", "fiber", "splices", "splitters", "margin", "total")
_SPAN_JSON = row({**dict.fromkeys(("id", "link", "length", "splices")), "loss": dict.fromkeys(_LOSS),
                  "rise_time": dict.fromkeys(("ceiling", "dispersion", "tx", "rx", "total", "pass"))})
_VERDICT_JSON = row(dict.fromkeys(("quantity", "value", "threshold", "unit", "direction", "margin", "pass")))
# The spell slot of each spelled column of a span row: its length, six losses (dB) and five rise times (ps).
_SPELLED = {2: SLOT[None], **dict.fromkeys(range(4, 10), SLOT[2]), **dict.fromkeys(range(10, 15), SLOT[3])}
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


def render_plan_text(report: PlanReport) -> str:
    rows, table, standard, plan = report.spans, verdict_table(report), report.standard, report.amplifier_plan
    ceiling = max_system_risetime(standard.bit_rate, standard.line_code)
    quantity, value, threshold, unit, way, margin, passed = table[0]
    return "\n".join([
        f"Plan for path: {' -> '.join(report.path_nodes)}",
        f"Standard: {standard.name} (sensitivity {standard.rx_sensitivity:.2f} dBm,"
        f" rise-time ceiling {ceiling:.3f} ps)",
        "", "Span loss budgets (dB, each span as a standalone path)",
        f"{'span':<20} {'km':>8} {'conn':>6} {'fiber':>6} {'splice':>6} {'split':>6} {'margin':>6} {'total':>6}",
        *map(_SPAN_TEXT.__mod__, map(_span_text, rows)),
        "", "Rise-time budgets", f"{'link':<24} {'rise time ps':>12} {'splices':>8}  verdict",
        *["%-24s %12.3f %8d  %s" % (r[1], r[14], r[3], ("FAIL", "pass")[v[6]]) for r, v in zip(rows, table[1:])],
        "", "Path loss (margin once): connectors %.2f + fiber %.2f + splices %.2f + splitters %.2f"
        " + margin %.2f = %.2f dB" % report.path,
        f"Loss budget: floor {report.planning_floor:.2f} dBm (planning sensitivity"
        f" {report.planning_floor - report.distribution_loss:.2f} + distribution {report.distribution_loss:.2f}),"
        f" max loss {report.max_loss:.2f} dB",
        f"Amplifier plan: deficit {plan.gain_deficit:.2f} dB -> {plan.edfa_count} x {plan.unit_gain:.2f} dB"
        f" EDFA = {plan.total_gain:.2f} dB",
        f"Received power: {report.received:.2f} dBm (as built {report.as_built_power:.2f} dBm,"
        f" inventory gain {report.inventory_gain:.2f} dB, applied gain {report.applied_gain:.2f} dB)",
        "", "Verdicts",
        _VERDICT_TEXT[unit == "ps"] % (quantity, value, unit, _OP[way], threshold, unit, margin, _FLAG[passed]),
        *[_RISE_TEXT % (quantity, value, threshold, margin, _FLAG[passed])  # verdict_table's rise-time rows
          for quantity, value, threshold, _, _, margin, passed in table[1:]],
        "", f"OVERALL: {_FLAG[all(map(_passed, table))]}", "",
    ])


def render_plan_json(report: PlanReport) -> str:
    """The plan as JSON, byte for byte what json.dumps(indent=2) writes.

    A spelled column that holds the identical object in every span row (on a run_plan report: the margin, the
    ceiling and both transceiver rise times) is spelled once per report, into its span-item and rise-verdict
    templates. Identity, not ==: -0.0 == 0.0 and 3 == 3.0, but each pair spells apart."""
    standard, plan, rows, table = report.standard, report.amplifier_plan, report.spans, verdict_table(report)
    power, n, columns = table[0], len(rows), [*zip(*rows)] or [()] * 15
    shared = [c for c in _SPELLED if n and all(map(is_, columns[c], repeat(columns[c][0])))]
    own = [c for c in _SPELLED if c not in shared]
    # One spell: the power verdict's value, threshold and margin, each shared column once, each other column row
    # by row, then each rise-time verdict's margin (its value and threshold are its row's total and ceiling).
    spelled = spell(
        (*_figures(power), *[columns[c][0] for c in shared], *chain.from_iterable([columns[c] for c in own]),
         *map(itemgetter(5), table[1:])),
        "".join([_VERDICT_SLOTS[power[3] == "ps"], *map(_SPELLED.get, shared), *[_SPELLED[c] * n for c in own],
                 SLOT[3] * n]))
    # Slot c of a span item holds row[c], slot 15 its pass. This report's template, a %-format of the item's,
    # holds a shared column's text; the other slots stay %s and are filled row by row, column by column.
    texts, at = dict(zip(shared, spelled[3:])), 3 + len(shared)
    fills = [texts.get(c, "%s") for c in range(16)]
    ids, passes = [*map(_json_str, columns[0])], [BOOL[p] for p in map(_passed, table[1:])]
    cells = {0: ids, 1: map(_json_str, columns[1]), 3: columns[3], 15: passes}
    for c in own:
        cells[c], at = spelled[at:at + n], at + n
    span_items = [*map((_SPAN_JSON % (*fills,)).__mod__, zip(*map(cells.get, sorted(cells))))]
    # verdict_table writes each rise-time verdict in ps, "max", quantity "rise time " + id: escaped as the id was.
    rise = _VERDICT_JSON % ('"rise time %s', fills[14], fills[10], '"ps"', '"max"', "%s", "%s")
    verdict_items = [
        _VERDICT_JSON % (_json_str(power[0]), *spelled[:2], *map(_json_str, power[3:5]), spelled[2], BOOL[power[6]]),
        *map(rise.__mod__, zip(map(_unquoted, ids), *[cells[c] for c in (14, 10) if c in cells], spelled[at:], passes))]
    return dumps(_PLAN_JSON, (
        standard.name, standard.bit_rate, standard.line_code.value, db(standard.rx_sensitivity),
        *map(db, report.path), db(report.distribution_loss), db(report.planning_floor), db(report.max_loss),
        db(plan.gain_deficit), db(plan.unit_gain), plan.edfa_count, db(plan.total_gain),
        db(report.inventory_gain), db(report.applied_gain), db(report.received), db(report.as_built_power),
        all(map(_passed, table)),
    ), path=["    " + _json_str(node) for node in report.path_nodes], spans=span_items, verdicts=verdict_items)
