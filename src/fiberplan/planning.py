"""Plan assembly: evaluate a path of a parsed network document, judge it, report it.

A plan couples the power side (itemized path loss, loss budget derived from
the plant's own receiver sensitivity plus the distribution leg, amplifier
sizing) with the rise-time side (per-span budgets against the standard's
ceiling) and renders both as deterministic text or JSON. Reports carry no
timestamps, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from typing import Any, Mapping

from .model import (
    ConfigurationError,
    Network,
    Span,
    Violation,
    frozen,
    nodes_along,
    ring_spans,
    spans_along,
    validate_network,
)
from .netfile import NetworkDocument, object_reader
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
from .risetime import RiseTimeReport, max_system_risetime, span_risetime_report
from .signal_chain import BerEstimate, PowerTrace, estimate_ber, propagate, route_chain
from .standards import StandardProfile, Verdict, power_verdict, resolve_standard, risetime_verdict
from .traffic import TrafficForecast, TrafficInput


class ValidationFailure(ConfigurationError):
    """The network file parsed but its structure is invalid."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__(f"network failed validation with {len(violations)} violation(s)")


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


def _resolve_path(network: Network, path_spec: str) -> tuple[list[str], tuple[Span, ...]]:
    """Node ids and spans, in path order, of ``"ring"`` or comma-separated node ids."""
    spec = path_spec.strip()
    if spec.lower() == "ring":
        spans = ring_spans(network)
        return nodes_along(network.nodes[0].id, spans), spans
    nodes = [part.strip() for part in spec.split(",") if part.strip()]
    if len(nodes) < 2:
        raise ConfigurationError(f"path spec {path_spec!r} needs 'ring' or at least two node ids")
    return nodes, tuple(spans_along(network, nodes))


def _check_valid(network: Network) -> None:
    violations = validate_network(network)
    if violations:
        raise ValidationFailure(violations)


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
    _check_valid(network)
    profile = resolve_standard(standard, doc.standards)

    nodes, spans = _resolve_path(network, path_spec)
    ceiling = max_system_risetime(profile.bit_rate, profile.line_code)

    results: dict[str, SpanResult] = {}
    for span in spans:
        if span.id not in results:
            loss, splices, _ = span_summary(span, network.losses)
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


def run_trace(
    doc: NetworkDocument,
    path_spec: str = "ring",
    input_power: float | None = None,
    with_ber: bool = False,
) -> tuple[PowerTrace, BerEstimate | None]:
    """Propagate power along a path of a parsed network document.

    ``input_power`` defaults to the plant transceiver's transmit power. With
    ``with_ber`` the Gaussian-model BER at the final point is appended, using
    the transceiver's responsivity. Raises ValidationFailure if the network
    breaks a structural rule.
    """
    network = doc.network
    _check_valid(network)
    _, spans = _resolve_path(network, path_spec)
    power = network.transceiver.tx_power if input_power is None else input_power
    trace = propagate(power, route_chain(network, spans))
    ber = estimate_ber(trace.final_power, network.transceiver.responsivity) if with_ber else None
    return trace, ber


_read_traffic = object_reader(TrafficInput, "traffic")


def traffic_input_from_mapping(raw: Mapping[str, Any]) -> TrafficInput:
    """Build forecast inputs from a network file's ``traffic`` object: counts must be integers, rates numbers."""
    return _read_traffic(raw)


# --- rendering -------------------------------------------------------------
# dB and dBm print with two decimals, rise times with three, counts as
# integers; the same precision is applied to JSON payloads. Each row of a
# ring-sized table is one C-level %-format of the template for its kind.
#
# JSON is formatted into fixed %-templates, laid out byte for byte as
# json.dumps(payload, indent=2) lays out the same values. That call would run
# CPython's pure-Python encoder (any indent does), slower than building the plan.
# A table's numbers are spelled by _spell in one %-format: fixed-point digits,
# trimmed to the shortest form json.dumps writes for round(x, n). A table with
# a value that is not a finite float below 1e12 takes the exact path instead,
# repr(round(x, n)), with NaN and Infinity as json.dumps spells them.


def _db(x: float) -> float:
    return round(x, 2)


_VERDICT_TEXT = tuple(f"%-32s %10.{n}f %s %s %.{n}f %s  margin %+.{n}f  %s" for n in (2, 3))  # dBm, then ps


def _fmt_verdict(v: Verdict) -> str:
    op = ">=" if v.direction == "min" else "<="
    flag = "PASS" if v.passed else "FAIL"
    return _VERDICT_TEXT[v.unit == "ps"] % (v.quantity, v.value, v.unit, op, v.threshold, v.unit, v.margin, flag)


def _num(x: float) -> str:
    """A JSON number spelled as json.dumps spells it, non-finite values included."""
    if x - x == 0:
        return repr(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _nums(values: tuple[float, ...]) -> tuple[Any, ...]:
    """Numbers for ``%s`` slots: ``%s`` writes a finite float or an int as json.dumps
    does; if any value is not finite (so neither is the sum), all go through :func:`_num`."""
    total = sum(values)
    return values if total - total == 0 else tuple(map(_num, values))


def _spell(values: tuple[float, ...], slots: str) -> list[str]:
    """How json.dumps spells each value, rounded as its slot in ``slots`` says (see :func:`_slots`).

    One %-format writes every value: ``%r``, or ``%.nf`` and n - 1 NUL markers for a
    value rounded to n = 2 or 3 decimals. Dropping the zeros before a marker that
    json.dumps would not write, at most n - 1 of them, then the markers, gives exactly
    repr(round(x, n)): both take their digits from the same correctly rounded dtoa,
    below 1e12 there are at most 15 significant ones, and a double round-trips 15,
    so the shortest repr of the rounded value has the same digits. Unless the values
    are all floats (json.dumps writes an int without a point), finite, and below 1e12
    in root-sum-square, they are spelled one by one with round() and :func:`_num`.
    """
    if math.hypot(*values) < 1e12 and {*map(type, values)} == {float}:  # inf and NaN fail the first test
        return (slots % values).replace("0\0\0", "\0").replace("0\0", "").replace("\0", "").split("\n")
    # slot[2] is the n of "%.nf".
    return [_num(x if slot == "%r" else round(x, int(slot[2]))) for x, slot in zip(values, slots.split("\n"))]


_BOOL = ("false", "true")


def _template(fields: tuple[Any, ...], depth: int = 0) -> str:
    """An indent-2 JSON object at nesting ``depth`` with one ``%s`` slot per field.

    A field is a key, a ``(key, n)`` pair for a number rounded to n decimals, or
    a ``(key, fields)`` pair for a nested object.
    """
    pad = "  " * (depth + 1)
    lines = []
    for key, spec in ((field, 0) if isinstance(field, str) else field for field in fields):
        lines.append(f'{pad}"{key}": ' + (_template(spec, depth + 1) if isinstance(spec, tuple) else "%s"))
    return "{\n" + ",\n".join(lines) + "\n" + "  " * depth + "}"


def _slots(fields: tuple[Any, ...]) -> str:
    """The :func:`_spell` slots of the rounded numbers among ``fields`` (see :func:`_template`), in order."""
    return "".join(
        _slots(spec) if isinstance(spec, tuple) else f"%.{spec}f" + "\0" * (spec - 1) + "\n"
        for _, spec in (field for field in fields if not isinstance(field, str))
    )


def _array(items: list[str]) -> str:
    """Encoded items, each indented two levels, as a JSON array at depth one."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


_LOSS = tuple((key, 2) for key in ("connectors", "fiber", "splices", "splitters", "margin", "total"))
_SPAN = ("id", "link", "length", "splices", ("loss", _LOSS), ("rise_time", (
    *((key, 3) for key in ("ceiling", "dispersion", "tx", "rx", "total")), "pass")))
_SPAN_JSON, _SPAN_SLOTS = "    " + _template(_SPAN, 2), "%r\n" + _slots(_SPAN)  # the length, then rounded numbers
_loss_values = attrgetter(*LossBreakdown._fields, "total")  # in the order of the _LOSS keys
_LOSS_FIELDS = tuple(f"loss.{name}" for name in (*LossBreakdown._fields, "total"))
# The 12 numbers of a span row: its length, six losses (dB) and five rise times (ps).
_span_numbers = attrgetter("length", *_LOSS_FIELDS, *(f"rise.{name}" for name in (*RiseTimeReport._fields, "total")))
_VERDICTS = tuple(("quantity", ("value", n), ("threshold", n), "unit", "direction", ("margin", n), "pass")
                  for n in (2, 3))  # dBm, then ps
_VERDICT_JSON, _VERDICT_SLOTS = "    " + _template(_VERDICTS[0], 2), tuple(map(_slots, _VERDICTS))
_verdict_numbers = attrgetter("value", "threshold", "margin")
_PLAN_JSON = _template((
    ("standard", ("name", "bit_rate", "line_code", "rx_sensitivity")), "path", "spans", ("path_loss", _LOSS),
    "distribution_loss", "planning_floor", "max_loss",
    ("amplifier_plan", ("gain_deficit", "unit_gain", "edfa_count", "total_gain")), "inventory_gain",
    "applied_gain", ("received_power", ("effective", "as_built")), "verdicts", "overall_pass",
)) + "\n"
_SPAN_TEXT, _span_text = "%-20s %8g" + " %6.2f" * 6, attrgetter("span_id", "length", *_LOSS_FIELDS)


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
    spelled = iter(_spell(tuple(chain.from_iterable(map(_span_numbers, spans))), _SPAN_SLOTS * len(spans)))
    span_items = [
        _SPAN_JSON % (_json_str(row.span_id), _json_str(row.link), s[0], row.splices, *s[1:], _BOOL[row.rise.passed])
        for row, s in zip(spans, zip(*[spelled] * 12))
    ]
    slots = "".join([_VERDICT_SLOTS[v.unit == "ps"] for v in verdicts])
    spelled = iter(_spell(tuple(chain.from_iterable(map(_verdict_numbers, verdicts))), slots))
    verdict_items = [
        _VERDICT_JSON % (_json_str(v.quantity), value, threshold, _json_str(v.unit), _json_str(v.direction), margin,
                         _BOOL[v.passed])
        for v, (value, threshold, margin) in zip(verdicts, zip(*[spelled] * 3))
    ]
    scalars = _nums((
        standard.bit_rate, _db(standard.rx_sensitivity), *map(_db, _loss_values(report.path)),
        _db(report.distribution_loss), _db(report.planning_floor), _db(report.max_loss),
        _db(plan.gain_deficit), _db(plan.unit_gain), plan.edfa_count, _db(plan.total_gain),
        _db(report.inventory_gain), _db(report.applied_gain), _db(report.received), _db(report.as_built_power),
    ))
    return _PLAN_JSON % (
        _json_str(standard.name), scalars[0], _json_str(standard.line_code.value), scalars[1],
        _array(["    " + _json_str(node) for node in report.path_nodes]),
        _array(span_items),
        *scalars[2:],
        _array(verdict_items),
        _BOOL[report.overall_pass],
    )


def render_trace_text(trace: PowerTrace, ber: BerEstimate | None = None) -> str:
    distinct = set(trace.labels)  # a few distinct labels repeat
    width = max(map(len, distinct))
    padded = {label: f"{label:<{width}}" for label in distinct}
    lines = list(map("%s  %9.2f dBm".__mod__, zip(map(padded.__getitem__, trace.labels), trace.powers)))
    if ber is not None:
        lines.append("")
        lines.append(f"Q factor at end point: {ber.q_factor:.3f}")
        lines.append(f"BER estimate: {ber.ber:.3e}")
    return "\n".join(lines) + "\n"


_POINT = ("label", ("power", 2))
_POINT_JSON, _POINT_SLOTS = "    " + _template(_POINT, 2), _slots(_POINT)
_TRACE_JSON = _template(("points", "final_power")) + "\n"
_TRACE_BER_JSON = _template(("points", "final_power", ("ber", ("q_factor", "ber")))) + "\n"


def render_trace_json(trace: PowerTrace, ber: BerEstimate | None = None) -> str:
    """The trace as JSON, byte for byte what json.dumps(indent=2) writes."""
    labels = {label: _json_str(label) for label in set(trace.labels)}  # a few distinct labels repeat
    spelled = _spell(trace.powers, _POINT_SLOTS * len(trace.powers))
    body = _array(list(map(_POINT_JSON.__mod__, zip(map(labels.__getitem__, trace.labels), spelled))))
    if ber is None:
        return _TRACE_JSON % (body, _num(_db(trace.final_power)))
    return _TRACE_BER_JSON % (body, *_nums((_db(trace.final_power), round(ber.q_factor, 3), float(f"{ber.ber:.3e}"))))


def render_forecast_text(inputs: TrafficInput, forecast: TrafficForecast) -> str:
    rows = [
        ("population", inputs.population, ""),
        ("mobile subscribers", forecast.mobile_subscribers, f"x {inputs.cellular_penetration:g}"),
        ("operator subscribers", forecast.operator_subscribers, f"x {inputs.operator_share:g}"),
        ("lte subscribers", forecast.lte_subscribers, f"x {inputs.lte_penetration:g}"),
        (
            f"projected ({inputs.horizon} yr)",
            forecast.projected_subscribers,
            f"x (1 + {inputs.annual_growth:g})^{inputs.horizon}",
        ),
    ]
    lines = [f"{name:<22} {value:>12,d}  {note}".rstrip() for name, value, note in rows]
    return "\n".join(lines) + "\n"


_FORECAST_JSON = _template((
    ("inputs", ("population", "cellular_penetration", "operator_share", "lte_penetration", "annual_growth",
                "horizon")),
    "mobile_subscribers", "operator_subscribers", "lte_subscribers", "projected_subscribers",
)) + "\n"


def render_forecast_json(inputs: TrafficInput, forecast: TrafficForecast) -> str:
    """The forecast as JSON, byte for byte what json.dumps(indent=2) writes."""
    return _FORECAST_JSON % _nums((
        inputs.population, inputs.cellular_penetration, inputs.operator_share, inputs.lte_penetration,
        inputs.annual_growth, inputs.horizon, forecast.mobile_subscribers, forecast.operator_subscribers,
        forecast.lte_subscribers, forecast.projected_subscribers,
    ))


def render_violations_text(violations: list[Violation]) -> str:
    if not violations:
        return "network is structurally valid\n"
    lines = [f"{v.element}: {v.rule}: {v.message}" for v in violations]
    lines.append(f"{len(violations)} violation(s)")
    return "\n".join(lines) + "\n"


_VIOLATION_JSON = "    " + _template(("element", "rule", "message"), 2)
_VIOLATIONS_JSON = _template(("valid", "violations")) + "\n"


def render_violations_json(violations: list[Violation]) -> str:
    """The validation result as JSON, byte for byte what json.dumps(indent=2) writes."""
    items = [_VIOLATION_JSON % (_json_str(v.element), _json_str(v.rule), _json_str(v.message)) for v in violations]
    return _VIOLATIONS_JSON % (_BOOL[not violations], _array(items))
