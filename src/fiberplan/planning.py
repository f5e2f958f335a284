"""Plan assembly: evaluate a path of a parsed network document, judge it, report it.

A plan couples the power side (itemized path loss, loss budget derived from
the plant's own receiver sensitivity plus the distribution leg, amplifier
sizing) with the rise-time side (per-span budgets against the standard's
ceiling) and renders both as deterministic text or JSON. Reports carry no
timestamps, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from .model import (
    ConfigurationError,
    Network,
    Span,
    Violation,
    frozen,
    nodes_along,
    resolved_splices,
    ring_spans,
    spans_along,
    validate_network,
)
from .netfile import NetworkDocument, _count, _number, _reject_unknown
from .power_budget import (
    AmplifierPlan,
    LossBreakdown,
    amplifier_requirement,
    combine_span_losses,
    max_allowed_loss,
    received_power,
    required_input_power,
    span_loss,
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
    verdicts: tuple[Verdict, ...]

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

    loss_by_id: dict[str, LossBreakdown] = {}
    rows = []
    for span in spans:
        if span.id in loss_by_id:
            continue
        loss = loss_by_id[span.id] = span_loss(span, network.losses)
        link = f"{network.node_name(span.from_node)} - {network.node_name(span.to_node)}"
        rows.append(
            SpanResult(
                span_id=span.id,
                link=link,
                length=span.length,
                splices=resolved_splices(span),
                loss=loss,
                rise=span_risetime_report(span, network.transceiver, profile),
            )
        )
    rows.sort(key=lambda r: r.span_id)

    path = combine_span_losses([loss_by_id[span.id] for span in spans], network.losses.system_margin)
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

    verdicts: list[Verdict] = [power_verdict(received, profile)]
    verdicts.extend(
        risetime_verdict(row.rise.total, profile, quantity=f"rise time {row.span_id}") for row in rows
    )

    return PlanReport(
        standard=profile,
        path_nodes=tuple(nodes),
        spans=tuple(rows),
        path=path,
        distribution_loss=doc.distribution_loss,
        planning_floor=planning_floor,
        max_loss=budget,
        amplifier_plan=plan,
        inventory_gain=inventory_gain,
        applied_gain=applied_gain,
        as_built_power=as_built_power,
        received=received,
        verdicts=tuple(verdicts),
    )


def run_trace(
    doc: NetworkDocument,
    path_spec: str = "ring",
    input_power: float | None = None,
    with_ber: bool = False,
    noise_sigma: float | None = None,
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
    chain = route_chain(network, spans)
    power = network.transceiver.tx_power if input_power is None else input_power
    trace = propagate(power, chain, network.losses)
    ber = None
    if with_ber:
        kwargs: dict[str, float] = {}
        if noise_sigma is not None:
            kwargs["noise_sigma"] = noise_sigma
        ber = estimate_ber(trace.final_power, network.transceiver.responsivity, **kwargs)
    return trace, ber


_TRAFFIC_KEYS = frozenset({
    "population", "cellular_penetration", "operator_share",
    "lte_penetration", "annual_growth", "horizon",
})


def traffic_input_from_mapping(raw: Mapping[str, Any]) -> TrafficInput:
    """Build forecast inputs from a network file's ``traffic`` object.

    Counts must be integers and rates finite numbers; nothing is coerced.
    """
    where = "traffic"
    _reject_unknown(raw, _TRAFFIC_KEYS, where)
    return TrafficInput(
        population=_count(raw, "population", where),
        cellular_penetration=_number(raw, "cellular_penetration", where),
        operator_share=_number(raw, "operator_share", where),
        lte_penetration=_number(raw, "lte_penetration", where),
        annual_growth=_number(raw, "annual_growth", where),
        horizon=_count(raw, "horizon", where),
    )


# --- rendering -------------------------------------------------------------
# dB and dBm print with two decimals, rise times with three, counts as
# integers; the same precision is applied to JSON payloads.


def _db(x: float) -> float:
    return round(x, 2)


def _ps(x: float) -> float:
    return round(x, 3)


def _fmt_verdict(v: Verdict) -> str:
    digits = 3 if v.unit == "ps" else 2
    op = ">=" if v.direction == "min" else "<="
    flag = "PASS" if v.passed else "FAIL"
    return (
        f"{v.quantity:<32} {v.value:>10.{digits}f} {v.unit} {op} "
        f"{v.threshold:.{digits}f} {v.unit}  margin {v.margin:+.{digits}f}  {flag}"
    )


def _verdict_dict(v: Verdict) -> dict[str, Any]:
    digits = _ps if v.unit == "ps" else _db
    return {
        "quantity": v.quantity,
        "value": digits(v.value),
        "threshold": digits(v.threshold),
        "unit": v.unit,
        "direction": v.direction,
        "margin": digits(v.margin),
        "pass": v.passed,
    }


def _loss_dict(b: LossBreakdown) -> dict[str, float]:
    return {
        "connectors": _db(b.connector_total),
        "fiber": _db(b.fiber_total),
        "splices": _db(b.splice_total),
        "splitters": _db(b.splitter_total),
        "margin": _db(b.margin),
        "total": _db(b.total),
    }


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
    for row in report.spans:
        b = row.loss
        lines.append(
            f"{row.span_id:<20} {row.length:>8g} {b.connector_total:>6.2f} {b.fiber_total:>6.2f} "
            f"{b.splice_total:>6.2f} {b.splitter_total:>6.2f} {b.margin:>6.2f} {b.total:>6.2f}"
        )
    lines.append("")
    lines.append("Rise-time budgets")
    lines.append(f"{'link':<24} {'rise time ps':>12} {'splices':>8}  verdict")
    for row in report.spans:
        flag = "pass" if row.rise.passed else "FAIL"
        lines.append(f"{row.link:<24} {row.rise.total:>12.3f} {row.splices:>8d}  {flag}")
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
    for v in report.verdicts:
        lines.append("  " + _fmt_verdict(v))
    lines.append("")
    lines.append(f"OVERALL: {'PASS' if report.overall_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def plan_to_dict(report: PlanReport) -> dict[str, Any]:
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
                "id": row.span_id,
                "link": row.link,
                "length": row.length,
                "splices": row.splices,
                "loss": _loss_dict(row.loss),
                "rise_time": {
                    "ceiling": _ps(row.rise.ceiling),
                    "dispersion": _ps(row.rise.dispersion_component),
                    "tx": _ps(row.rise.tx_component),
                    "rx": _ps(row.rise.rx_component),
                    "total": _ps(row.rise.total),
                    "pass": row.rise.passed,
                },
            }
            for row in report.spans
        ],
        "path_loss": _loss_dict(report.path),
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
        "verdicts": [_verdict_dict(v) for v in report.verdicts],
        "overall_pass": report.overall_pass,
    }


def render_trace_text(trace: PowerTrace, ber: BerEstimate | None = None) -> str:
    width = max(len(p.label) for p in trace.points)
    lines = [f"{p.label:<{width}}  {p.power:>9.2f} dBm" for p in trace.points]
    if ber is not None:
        lines.append("")
        lines.append(f"Q factor at end point: {ber.q_factor:.3f}")
        lines.append(f"BER estimate: {ber.ber:.3e}")
    return "\n".join(lines) + "\n"


def trace_to_dict(trace: PowerTrace, ber: BerEstimate | None = None) -> dict[str, Any]:
    out: dict[str, Any] = {
        "points": [{"label": p.label, "power": _db(p.power)} for p in trace.points],
        "final_power": _db(trace.final_power),
    }
    if ber is not None:
        out["ber"] = {"q_factor": round(ber.q_factor, 3), "ber": float(f"{ber.ber:.3e}")}
    return out


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


def forecast_to_dict(inputs: TrafficInput, forecast: TrafficForecast) -> dict[str, Any]:
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


def render_violations_text(violations: list[Violation]) -> str:
    if not violations:
        return "network is structurally valid\n"
    lines = [f"{v.element}: {v.rule}: {v.message}" for v in violations]
    lines.append(f"{len(violations)} violation(s)")
    return "\n".join(lines) + "\n"


def violations_to_dict(violations: list[Violation]) -> dict[str, Any]:
    return {
        "valid": not violations,
        "violations": [
            {"element": v.element, "rule": v.rule, "message": v.message} for v in violations
        ],
    }


def to_json(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, indent=2) + "\n"
