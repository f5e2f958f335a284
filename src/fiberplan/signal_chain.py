"""Analytic signal chain: per-element power traces and a Q-factor BER model.

:func:`propagate` folds an ordered element chain into a power trace whose
final point agrees exactly with :func:`fiberplan.power_budget.received_power`
over the same losses and gains; the fold uses exact accumulation, so the
agreement is bit-for-bit, not approximate.

The BER model is a plain Gaussian decision model: photocurrent over a single
configurable receiver noise sigma gives a Q factor, and
BER = 0.5 erfc(Q / sqrt(2)). With the default sigma and a 0.9 A/W detector,
end-of-line powers around -25 to -27 dBm land in the 1e-3..1e-5 BER range.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .model import (
    Amplifier,
    ComponentLosses,
    DomainError,
    FiberProfile,
    Network,
    Span,
    Splitter,
    frozen,
    resolved_splices,
)
from .power_budget import splitter_loss
from .units import dbm_to_watts

DEFAULT_NOISE_SIGMA = 7e-7  # A; receiver noise current of the Gaussian model

MAX_TRACE_ELEMENTS = 200_000
"""Most elements :func:`route_chain` builds for one path; a traced element takes
about 1 KB and a 10^4-node ring needs about 90k. ``plan`` never builds the chain."""


@frozen
class FiberSegment:
    """A run of fiber inside a chain."""

    length: float  # km
    fiber: FiberProfile

    def __post_init__(self) -> None:
        if not self.length > 0:
            raise DomainError("fiber segment length must be > 0 km")


@frozen
class Connector:
    """One demountable joint; loss comes from the shared ComponentLosses."""


@frozen
class Splice:
    """One permanent joint; loss comes from the shared ComponentLosses."""


@frozen
class MarginPad:
    """A fixed dB allowance inserted as if it were a lossy element."""

    loss: float  # dB

    def __post_init__(self) -> None:
        if not self.loss >= 0:
            raise DomainError("margin pad loss must be >= 0 dB")


ChainElement = Union[FiberSegment, Connector, Splice, Splitter, Amplifier, MarginPad]


@frozen
class TracePoint:
    label: str
    power: float  # dBm


@frozen
class PowerTrace:
    """Ordered power readouts: the injected level, then one point per element."""

    points: tuple[TracePoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def final_power(self) -> float:
        return self.points[-1].power


@frozen
class BerEstimate:
    """Q factor and the Gaussian-model bit error rate it implies."""

    q_factor: float
    ber: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ber <= 0.5:
            raise DomainError("ber must lie in [0, 0.5]")


def element_gain(element: ChainElement, losses: ComponentLosses) -> float:
    """Signed dB effect of one element: negative for losses, positive for gain."""
    if isinstance(element, FiberSegment):
        return -(element.fiber.attenuation * element.length)
    if isinstance(element, Connector):
        return -losses.connector_loss
    if isinstance(element, Splice):
        return -losses.splice_loss
    if isinstance(element, Splitter):
        return -splitter_loss(element, losses.splitter_excess_loss)
    if isinstance(element, Amplifier):
        return element.gain
    if isinstance(element, MarginPad):
        return -element.loss
    raise DomainError(f"unsupported chain element {element!r}")


def _label(element: ChainElement) -> str:
    if isinstance(element, FiberSegment):
        return f"fiber {element.length:g} km ({element.fiber.name})"
    if isinstance(element, Connector):
        return "connector"
    if isinstance(element, Splice):
        return "splice"
    if isinstance(element, Splitter):
        return f"splitter 1x{element.ratio}"
    if isinstance(element, Amplifier):
        return f"{element.kind.value} +{element.gain:g} dB"
    return f"margin {element.loss:g} dB"


def _add_exact(partials: list[float], x: float) -> None:
    """Add ``x`` to a list of non-overlapping partials, keeping their sum exact.

    Shewchuk's algorithm (1997), the one inside ``math.fsum``: afterwards the
    partials sum exactly to the old sum plus ``x``, so ``math.fsum(partials)``
    is the correctly rounded running total. The list stays a few floats long.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def propagate(
    input_power: float, chain: Sequence[ChainElement], losses: ComponentLosses
) -> PowerTrace:
    """Fold the chain left to right into a power trace.

    The first point is the injected power; every element appends one point.
    Each point is the correctly rounded exact sum of the injected power and
    all element effects so far (bit-identical to ``math.fsum`` over that
    prefix), so the final point equals received_power over the same losses
    and gains regardless of element order. The running sum is kept as exact
    partials, so the fold is linear in the chain length. Raises DomainError
    on a non-finite input power, element effect or running sum.
    """
    if not math.isfinite(input_power):
        raise DomainError(f"input power must be a finite dBm value, got {input_power!r}")
    partials = [input_power]
    points = [TracePoint("input", input_power)]
    for element in chain:
        delta = element_gain(element, losses)
        label = _label(element)
        if not math.isfinite(delta):
            raise DomainError(f"chain element {label!r} has a non-finite effect ({delta!r} dB)")
        _add_exact(partials, delta)
        try:
            power = math.fsum(partials)
        except (OverflowError, ValueError):  # the running sum left the float range
            raise DomainError(f"power after {label!r} is beyond the float range") from None
        points.append(TracePoint(label, power))
    return PowerTrace(points=tuple(points))


def ber_from_q(q_factor: float) -> float:
    """Gaussian-model bit error rate for a Q factor: 0.5 erfc(Q / sqrt(2))."""
    if q_factor < 0:
        raise DomainError("q_factor must be >= 0")
    return 0.5 * math.erfc(q_factor / math.sqrt(2.0))


def estimate_ber(
    received_power: float, responsivity: float, noise_sigma: float = DEFAULT_NOISE_SIGMA
) -> BerEstimate:
    """BER at a receiver from its optical input power (dBm).

    The photocurrent is responsivity times the power in watts; dividing by
    the noise sigma gives the Q factor. Zero power in the linear domain
    (-inf dBm) gives the coin-flip floor, BER = 0.5.
    """
    if responsivity <= 0:
        raise DomainError("responsivity must be > 0 A/W")
    if noise_sigma <= 0:
        raise DomainError("noise_sigma must be > 0 A")
    photocurrent = responsivity * dbm_to_watts(received_power)
    q = photocurrent / noise_sigma
    return BerEstimate(q_factor=q, ber=ber_from_q(q))


def route_chain(network: Network, spans: Sequence[Span]) -> list[ChainElement]:
    """Chain elements along a resolved span path, margin pad last.

    ``spans`` is the path in order, as given by :func:`fiberplan.model.spans_along`
    for a node path or :func:`fiberplan.model.ring_spans` for the whole ring.
    Per span: one entry connector, the fiber run, its splices, any splitters
    and amplifiers, then the remaining connectors at the exit. The system
    margin is a single pad at the end of the whole path. Each span's elements
    are counted before any is built; raises DomainError naming the span at
    which the path passes :data:`MAX_TRACE_ELEMENTS`.
    """
    pad = network.losses.system_margin > 0
    elements: list[ChainElement] = []
    for span in spans:
        splices = resolved_splices(span)
        # Counted in floats: two counts near the float maximum add up to inf, not an error.
        count = len(elements) + pad + 1.0 + splices + span.connectors + len(span.splitters) + len(span.amplifiers)
        if count > MAX_TRACE_ELEMENTS:
            raise DomainError(
                f"span {span.id!r}: too many joints to trace: {splices:.3g} splices"
                f" (length {span.length:g} km), {span.connectors:.3g} connectors;"
                f" the path would hold {count:.6g} elements, over the cap of {MAX_TRACE_ELEMENTS}"
            )
        entry = min(span.connectors, 1)
        elements.extend([Connector()] * entry)
        elements.append(FiberSegment(length=span.length, fiber=span.fiber))
        elements.extend([Splice()] * splices)
        elements.extend(span.splitters)
        elements.extend(span.amplifiers)
        elements.extend([Connector()] * (span.connectors - entry))
    if pad:
        elements.append(MarginPad(loss=network.losses.system_margin))
    return elements
