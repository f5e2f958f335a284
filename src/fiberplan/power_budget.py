"""Itemized span losses, loss budgets, amplifier sizing, and received power.

Sign convention: losses are positive dB magnitudes throughout; received-power
arithmetic subtracts them. :func:`span_runs` is the one description of what a
span is made of, a label-free run table: a plan row folds it into a span's loss
figures (:func:`fiberplan.planning.span_row`), :func:`path_losses` folds the rows'
legs into a path's, and a power trace follows it element by element. The system
margin is a path-level allowance: a span's loss as a standalone path carries it,
a path's loss once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from . import model
from .model import Amplifier, ComponentLosses, DomainError, Span, Splitter, frozen

# (kind, signed dB effect of one element, count, part); route_chain's margin row carries the margin as its part
Run = tuple[str, float, int, Span | Splitter | Amplifier | float | None]
Leg = tuple[int, int, float, Sequence[Run]]  # connector and splice counts, fiber loss, device rows: a span in a path fold


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
    connector, connectors, splices = -losses.connector_loss, span.connectors, span.splices
    if splices is None:  # model.resolved_splices, without its call
        splices = model.splice_count(span.length, span.fiber.drum_length)
    entry = 1 if connectors else 0  # a count is >= 0
    runs: list[Run] = [
        ("connector", connector, entry, None),
        ("fiber", -(span.fiber.attenuation * span.length), 1, span),
        ("splice", -losses.splice_loss, splices, None),
    ]
    if span.splitters or span.amplifiers:  # most spans hold no device
        for s in span.splitters:
            runs.append(("splitter", -splitter_loss(s, losses.splitter_excess_loss), 1, s))
        for a in span.amplifiers:
            runs.append(("amplifier", a.gain, 1, a))
    runs.append(("connector", connector, connectors - entry, None))
    return runs


def _exact_product(unit: float, count: int) -> tuple[float, float]:
    """unit * count as two floats whose sum it is exactly: the product rounded once, and what rounding dropped."""
    product = unit * count
    (n, d), (p, q) = unit.as_integer_ratio(), product.as_integer_ratio()
    return product, (n * count * q - p * d) / (d * q)  # int / int rounds correctly, here exactly


def path_losses(legs: list[Leg], losses: ComponentLosses) -> tuple[tuple[float, ...], list[float], list[float]]:
    """One fold of the :data:`Leg` of each span of a path, in path order (a span crossed twice counts twice).

    Returns the path's loss (dB) as connectors, fiber, splices, splitters, the margin once and the total,
    each the exact sum of its elements rounded once; its loss terms, whose exact sum is that total, so that
    :func:`received_power` over them and the gains is the path's exact end power; and the gains. A joint
    kind's elements share the plant's unit loss, so their sum is one product, carried as two floats.
    """
    connectors, splices, fibers, rows = zip(*legs)
    devices = [run for runs in rows if runs for run in runs]  # most spans hold none
    splitters = [-effect for kind, effect, _, _ in devices if kind == "splitter"]
    gains = [effect for kind, effect, _, _ in devices if kind == "amplifier"]
    connector = _exact_product(losses.connector_loss, sum(connectors))
    splice = _exact_product(losses.splice_loss, sum(splices))
    fsum, margin = math.fsum, losses.system_margin
    terms = [*fibers, *splitters, margin, *connector, *splice]
    return (fsum(connector), fsum(fibers), fsum(splice), fsum(splitters), margin, fsum(terms)), terms, gains


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

    Their exact sum, rounded once (``math.fsum``), so it does not depend on the order they are
    listed in; over a path's element terms (:func:`path_losses`) it is the path's exact end power.
    """
    try:
        return math.fsum([tx_power, *[-loss for loss in losses], *gains])
    except OverflowError:  # fsum of finite terms beyond the float range
        raise DomainError("received power beyond the float range") from None
