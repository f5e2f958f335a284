"""Itemized span losses, loss budgets, amplifier sizing, and received power.

Sign convention: losses are positive dB magnitudes throughout; received-power
arithmetic subtracts them. The system margin is a path-level allowance, so
summing standalone span budgets over a multi-span path double-counts it; use
:func:`path_loss` for paths, which applies the margin exactly once.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .model import ComponentLosses, DomainError, Span, frozen, resolved_splices


@frozen
class LossBreakdown:
    """Per-mechanism dB totals for a span or path and their sum."""

    connector_total: float
    fiber_total: float
    splice_total: float
    splitter_total: float
    margin: float
    total: float

    def __post_init__(self) -> None:
        for name in ("connector_total", "fiber_total", "splice_total", "splitter_total", "margin"):
            if not getattr(self, name) >= 0:
                raise DomainError(f"loss breakdown: {name} must be >= 0 dB")
        expected = self.connector_total + self.fiber_total + self.splice_total + self.splitter_total + self.margin
        if self.total != expected:
            raise DomainError("loss breakdown: total must equal the sum of its components")

    @classmethod
    def build(
        cls,
        connector_total: float,
        fiber_total: float,
        splice_total: float,
        splitter_total: float,
        margin: float,
    ) -> "LossBreakdown":
        return cls(
            connector_total=connector_total,
            fiber_total=fiber_total,
            splice_total=splice_total,
            splitter_total=splitter_total,
            margin=margin,
            total=connector_total + fiber_total + splice_total + splitter_total + margin,
        )


@frozen
class AmplifierPlan:
    """How much gain a path is short by and how many units cover it."""

    gain_deficit: float  # dB still uncovered by the loss budget
    unit_gain: float  # dB per amplifier
    edfa_count: int
    total_gain: float  # dB installed by the plan

    def __post_init__(self) -> None:
        if not self.unit_gain > 0:
            raise DomainError("amplifier plan: unit_gain must be > 0 dB")
        expected = math.ceil(self.gain_deficit / self.unit_gain) if self.gain_deficit > 0 else 0
        if self.edfa_count != expected:
            raise DomainError("amplifier plan: edfa_count must cover the deficit with whole units")
        if self.total_gain != self.edfa_count * self.unit_gain:
            raise DomainError("amplifier plan: total_gain must equal edfa_count * unit_gain")


def splitter_loss(ratio: int, excess: float = 0.0) -> float:
    """Insertion loss of an ideal 1xN split, 10 log10(N), plus excess dB."""
    if ratio < 2 or (ratio & (ratio - 1)) != 0:
        raise DomainError(f"splitter ratio must be a power of two >= 2, got {ratio}")
    if excess < 0:
        raise DomainError("splitter excess loss must be >= 0 dB")
    return 10.0 * math.log10(ratio) + excess


def span_loss(span: Span, losses: ComponentLosses) -> LossBreakdown:
    """Itemized loss of one span treated as a standalone path.

    connectors * connector_loss + attenuation * length + splices * splice_loss
    + splitter insertion losses + the system margin. The splice count comes
    from the span, or from the drum length when the span says auto.
    """
    return LossBreakdown.build(
        connector_total=losses.connector_loss * span.connectors,
        fiber_total=span.fiber.attenuation * span.length,
        splice_total=losses.splice_loss * resolved_splices(span),
        splitter_total=math.fsum(
            splitter_loss(s.ratio, losses.splitter_excess_loss) for s in span.splitters
        ),
        margin=losses.system_margin,
    )


def path_loss(spans: Sequence[Span], losses: ComponentLosses) -> LossBreakdown:
    """Itemized loss of a multi-span path, applying the system margin once.

    Equals the sum of the standalone span totals minus (spans - 1) duplicated
    margins.
    """
    return combine_span_losses([span_loss(span, losses) for span in spans], losses.system_margin)


def combine_span_losses(parts: Sequence[LossBreakdown], system_margin: float) -> LossBreakdown:
    """Path breakdown from the standalone breakdowns of its spans, in path order.

    Each mechanism is summed exactly; the margin is applied once (none for an
    empty path). Lets a caller that already holds per-span breakdowns total a
    path without recomputing them.
    """
    return LossBreakdown.build(
        connector_total=math.fsum(p.connector_total for p in parts),
        fiber_total=math.fsum(p.fiber_total for p in parts),
        splice_total=math.fsum(p.splice_total for p in parts),
        splitter_total=math.fsum(p.splitter_total for p in parts),
        margin=system_margin if parts else 0.0,
    )


def max_allowed_loss(input_power: float, rx_sensitivity: float) -> float:
    """Loss budget magnitude between an input power and a sensitivity floor."""
    return input_power - rx_sensitivity


def required_input_power(rx_sensitivity: float, downstream_loss: float) -> float:
    """Minimum power a segment must deliver so the receiver behind a further
    ``downstream_loss`` dB still sees its sensitivity."""
    return rx_sensitivity + downstream_loss


def amplifier_requirement(actual_loss: float, max_loss: float, unit_gain: float) -> AmplifierPlan:
    """Size the amplifier chain covering the excess of actual over budgeted loss.

    The deficit is actual_loss - max_loss, floored at zero; whole units of
    ``unit_gain`` dB are installed until the deficit is covered.
    """
    if unit_gain <= 0:
        raise DomainError("amplifier unit gain must be > 0 dB")
    deficit = max(0.0, actual_loss - max_loss)
    count = math.ceil(deficit / unit_gain) if deficit > 0 else 0
    return AmplifierPlan(
        gain_deficit=deficit,
        unit_gain=unit_gain,
        edfa_count=count,
        total_gain=count * unit_gain,
    )


def received_power(tx_power: float, losses: Iterable[float], gains: Iterable[float] = ()) -> float:
    """End-of-path power: transmit power minus all losses plus all gains.

    Summed with compensated (exact) accumulation so the result does not
    depend on the order losses and gains are listed in.
    """
    return math.fsum([tx_power, *(-loss for loss in losses), *gains])
