"""Itemized span losses, loss budgets, amplifier sizing, and received power.

Sign convention: losses are positive dB magnitudes throughout; received-power
arithmetic subtracts them. :func:`span_runs` is the one description of what a
span is made of, a label-free run table; :func:`span_summary` folds it into a
span's loss, and a power trace follows it element by element. The system
margin is a path-level allowance, so summing standalone span budgets over a
multi-span path double-counts it; :func:`combine_span_losses` applies it once.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .model import Amplifier, ComponentLosses, DomainError, Span, Splitter, frozen, resolved_splices

# (kind, signed dB effect of one element, count, part); route_chain's margin row carries the margin as its part
Run = tuple[str, float, int, Span | Splitter | Amplifier | float | None]


@frozen
class LossBreakdown:
    """Per-mechanism dB totals for a span or path; ``total`` is their sum."""

    connector_total: float
    fiber_total: float
    splice_total: float
    splitter_total: float
    margin: float

    def __post_init__(self) -> None:
        inf = math.inf  # one chain: each field in [0, inf), so a NaN fails it too
        if not (inf > self.connector_total >= 0 <= self.fiber_total < inf > self.splice_total >= 0
                <= self.splitter_total < inf > self.margin >= 0):
            name = next(name for name in self._fields if not 0 <= getattr(self, name) < inf)
            raise DomainError(f"loss breakdown: {name} must be a finite number >= 0 dB")

    @property
    def total(self) -> float:
        return self.connector_total + self.fiber_total + self.splice_total + self.splitter_total + self.margin


@frozen
class AmplifierPlan:
    """How much gain a path is short by and how many units cover it."""

    gain_deficit: float  # dB still uncovered by the loss budget
    unit_gain: float  # dB per amplifier

    def __post_init__(self) -> None:
        if not self.unit_gain > 0:
            raise DomainError("amplifier unit gain must be > 0 dB")
        if not math.isfinite(self.gain_deficit / self.unit_gain):
            raise DomainError(
                f"amplifier plan: covering a {self.gain_deficit:g} dB deficit"
                f" with edfa_gain {self.unit_gain:g} dB units is beyond the float range"
            )

    @property
    def edfa_count(self) -> int:
        return math.ceil(self.gain_deficit / self.unit_gain) if self.gain_deficit > 0 else 0

    @property
    def total_gain(self) -> float:
        """dB installed by the plan."""
        return self.edfa_count * self.unit_gain


def splitter_loss(splitter: Splitter, excess: float = 0.0) -> float:
    """Insertion loss of an ideal 1xN split, 10 log10(N), plus excess dB."""
    if excess < 0:
        raise DomainError("splitter excess loss must be >= 0 dB")
    return 10.0 * math.log10(splitter.ratio) + excess


def span_runs(span: Span, losses: ComponentLosses) -> list[Run]:
    """What a span is made of, in trace order: the one description of a span.

    Each row is ``(kind, dB effect of one element, count, part)``: the entry connector,
    the fiber run, the resolved splices, each splitter, each amplifier, then the remaining
    connectors at the exit, a few rows however many splices there are. A loss has a
    negative effect and a count may be 0. ``part`` is what a trace label is made from: the
    span for the fiber row, the device for a splitter or amplifier row, None for the joints.
    """
    connector, entry = -losses.connector_loss, min(span.connectors, 1)
    runs: list[Run] = [
        ("connector", connector, entry, None),
        ("fiber", -(span.fiber.attenuation * span.length), 1, span),
        ("splice", -losses.splice_loss, resolved_splices(span), None),
    ]
    for s in span.splitters:
        runs.append(("splitter", -splitter_loss(s, losses.splitter_excess_loss), 1, s))
    for a in span.amplifiers:
        runs.append(("amplifier", a.gain, 1, a))
    runs.append(("connector", connector, span.connectors - entry, None))
    return runs


def span_summary(span: Span, losses: ComponentLosses) -> tuple[LossBreakdown, int]:
    """The :func:`span_runs` rows of a span folded by kind: its loss as a standalone path, and its splice count.

    Each counted kind's loss is its unit loss times its total count, rounded once as
    connector_loss * connectors is; the splitters are summed exactly one by one, the
    amplifiers left out and the system margin added. The bounds of the span's and the
    losses' fields keep every figure finite.
    """
    connectors = fibers = splices = 0
    splitters: list[float] = []
    for kind, effect, count, _ in span_runs(span, losses):
        if kind == "connector":
            connector, connectors = effect, connectors + count
        elif kind == "fiber":
            fiber, fibers = effect, fibers + count
        elif kind == "splice":
            splice, splices = effect, splices + count
        elif kind == "splitter":
            splitters += [-effect] * count
    loss = LossBreakdown(-connector * connectors, -fiber * fibers, -splice * splices, math.fsum(splitters),
                         losses.system_margin)
    return loss, splices


def combine_span_losses(parts: Sequence[LossBreakdown], system_margin: float) -> LossBreakdown:
    """Path breakdown from the standalone breakdowns of its spans (see :func:`span_summary`), in path order.

    Each mechanism is summed exactly; the margin is applied once (none for an
    empty path), so the total is the sum of the standalone span totals minus
    (spans - 1) duplicated margins.
    """
    try:
        return LossBreakdown(
            connector_total=math.fsum(p.connector_total for p in parts),
            fiber_total=math.fsum(p.fiber_total for p in parts),
            splice_total=math.fsum(p.splice_total for p in parts),
            splitter_total=math.fsum(p.splitter_total for p in parts),
            margin=system_margin if parts else 0.0,
        )
    except OverflowError:  # fsum of finite parts beyond the float range
        raise DomainError("path loss beyond the float range") from None


def max_allowed_loss(input_power: float, rx_sensitivity: float) -> float:
    """Loss budget magnitude between an input power and a sensitivity floor."""
    budget = input_power - rx_sensitivity
    if not math.isfinite(budget):
        raise DomainError(
            f"loss budget between tx_power {input_power:g} dBm and rx_sensitivity {rx_sensitivity:g} dBm"
            " is beyond the float range"
        )
    return budget


def required_input_power(rx_sensitivity: float, downstream_loss: float) -> float:
    """Minimum power a segment must deliver so the receiver behind a further
    ``downstream_loss`` dB still sees its sensitivity."""
    return rx_sensitivity + downstream_loss


def amplifier_requirement(actual_loss: float, max_loss: float, unit_gain: float) -> AmplifierPlan:
    """Size the amplifier chain covering the excess of actual over budgeted loss.

    The deficit is actual_loss - max_loss, floored at zero; whole units of
    ``unit_gain`` dB are installed until the deficit is covered.
    """
    return AmplifierPlan(gain_deficit=max(0.0, actual_loss - max_loss), unit_gain=unit_gain)


def received_power(tx_power: float, losses: Iterable[float], gains: Iterable[float] = ()) -> float:
    """End-of-path power: transmit power minus all losses plus all gains.

    Summed with compensated (exact) accumulation so the result does not
    depend on the order losses and gains are listed in.
    """
    try:
        return math.fsum([tx_power, *(-loss for loss in losses), *gains])
    except OverflowError:  # fsum of finite terms beyond the float range
        raise DomainError("received power beyond the float range") from None
