"""Itemized span losses, loss budgets, amplifier sizing, and received power.

Sign convention: losses are positive dB magnitudes throughout; received-power
arithmetic subtracts them. The system margin is a path-level allowance, so
summing standalone span budgets over a multi-span path double-counts it; use
:func:`path_loss` for paths, which applies the margin exactly once.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .model import ComponentLosses, DomainError, Span, Splitter, frozen, resolved_splices

Run = tuple[str, str, float, int]  # (kind, label, signed dB effect of one element, count)


@frozen
class LossBreakdown:
    """Per-mechanism dB totals for a span or path; ``total`` is their sum."""

    connector_total: float
    fiber_total: float
    splice_total: float
    splitter_total: float
    margin: float

    def __post_init__(self) -> None:
        for name in ("connector_total", "fiber_total", "splice_total", "splitter_total", "margin"):
            if not 0 <= getattr(self, name) < math.inf:
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
    """What a span is made of, in trace order, as a run-length table.

    The entry connector, the fiber run, the splices, each splitter, each
    amplifier, then the remaining connectors at the exit: a few rows however
    many splices the span holds. A loss has a negative effect; a count may be 0.
    """
    length, fiber, entry = span.length, span.fiber, min(span.connectors, 1)
    runs = [
        ("connector", "connector", -losses.connector_loss, entry),
        ("fiber", f"fiber {length:g} km ({fiber.name})", -(fiber.attenuation * length), 1),
        ("splice", "splice", -losses.splice_loss, resolved_splices(span)),
    ]
    for s in span.splitters:
        runs.append(("splitter", f"splitter 1x{s.ratio}", -splitter_loss(s, losses.splitter_excess_loss), 1))
    for a in span.amplifiers:
        runs.append(("amplifier", f"{a.kind.value} +{a.gain:g} dB", a.gain, 1))
    runs.append(("connector", "connector", -losses.connector_loss, span.connectors - entry))
    return runs


def span_loss(span: Span, losses: ComponentLosses) -> LossBreakdown:
    """Itemized loss of one span treated as a standalone path.

    The rows of :func:`span_runs` summed by kind, amplifiers left out, plus the
    system margin: each kind's unit loss times its total count, rounded once as
    connector_loss * connectors is, and the splitters summed exactly one by one.
    """
    connector = fiber = splice = 0.0  # unit losses
    connectors = fibers = splices = 0
    splitters: list[float] = []
    for kind, _, effect, count in span_runs(span, losses):
        if kind == "connector":
            connector, connectors = -effect, connectors + count
        elif kind == "fiber":
            fiber, fibers = -effect, fibers + count
        elif kind == "splice":
            splice, splices = -effect, splices + count
        elif kind == "splitter":
            splitters += [-effect] * count
    totals = (connector * connectors, fiber * fibers, splice * splices)
    if math.inf in totals:
        profile = span.fiber
        what = (
            f"connector loss ({connectors:g} x connector_loss {connector:g} dB)",
            f"fiber loss ({span.length:g} km x attenuation {profile.attenuation:g} dB/km of fiber {profile.name!r})",
            f"splice loss ({splices:g} x splice_loss {splice:g} dB)",
        )[totals.index(math.inf)]
        raise DomainError(f"span {span.id!r}: {what} is beyond the float range")
    try:
        splitter_total = math.fsum(splitters)
    except OverflowError:  # fsum of finite splitter losses beyond the float range
        raise DomainError(f"span {span.id!r}: splitter loss beyond the float range") from None
    return LossBreakdown(*totals, splitter_total, losses.system_margin)


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
