"""Analytic signal chain: power traces over run tables and a Q-factor BER model.

:func:`route_chain` lists a path as the run tables of its spans (see
:func:`fiberplan.power_budget.span_runs`) and one margin row; :func:`propagate`
expands the rows into one trace point per element. The final point agrees
exactly with :func:`fiberplan.power_budget.received_power` over the same
losses and gains; the fold uses exact accumulation, so the agreement is
bit-for-bit, not approximate.

The BER model is a plain Gaussian decision model: photocurrent over a single
configurable receiver noise sigma gives a Q factor, and
BER = 0.5 erfc(Q / sqrt(2)). With the default sigma and a 0.9 A/W detector,
end-of-line powers around -25 to -27 dBm land in the 1e-3..1e-5 BER range.
"""

from __future__ import annotations

import math
from typing import Sequence

from .model import DomainError, Network, Span, frozen
from .power_budget import Run, span_runs
from .units import dbm_to_watts

DEFAULT_NOISE_SIGMA = 7e-7  # A; receiver noise current of the Gaussian model

MAX_TRACE_ELEMENTS = 200_000
"""Most elements the rows of :func:`route_chain` may count for one path; :func:`propagate`
keeps a point of about 80 bytes per element (about 16 MB at the cap), and a 10^4-node
ring needs about 90k."""


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


def propagate(input_power: float, runs: Sequence[Run]) -> PowerTrace:
    """Fold the rows of a run table left to right into a power trace.

    The first point is the injected power; a row of ``count`` elements appends
    ``count`` points under its label. Each point is the correctly rounded exact
    sum of the injected power and all element effects so far (bit-identical to
    ``math.fsum`` over that prefix), so the final point equals received_power
    over the same losses and gains regardless of element order. The running
    sum is kept as exact partials, so the fold is linear in the element count.
    Raises DomainError on a non-finite input power, row effect or running sum.
    """
    if not math.isfinite(input_power):
        raise DomainError(f"input power must be a finite dBm value, got {input_power!r}")
    partials = [input_power]
    points = [TracePoint("input", input_power)]
    for _, label, delta, count in runs:
        if not math.isfinite(delta):
            raise DomainError(f"chain element {label!r} has a non-finite effect ({delta!r} dB)")
        for _ in range(count):
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


def route_chain(network: Network, spans: Sequence[Span]) -> list[Run]:
    """The :func:`fiberplan.power_budget.span_runs` rows of each span, then one margin row.

    ``spans`` is the path in order, as given by :func:`fiberplan.model.spans_along`
    for a node path or :func:`fiberplan.model.ring_spans` for the whole ring.
    The elements are counted from the row counts before a span's rows are kept;
    raises DomainError naming the span at which the path passes :data:`MAX_TRACE_ELEMENTS`.
    """
    margin = network.losses.system_margin
    runs: list[Run] = []
    elements = float(margin > 0)  # a float: two counts near the float maximum add up to inf, not an error
    for span in spans:
        rows = span_runs(span, network.losses)
        elements = sum((row[3] for row in rows), elements)
        if elements > MAX_TRACE_ELEMENTS:
            splices = sum(count for kind, _, _, count in rows if kind == "splice")
            raise DomainError(
                f"span {span.id!r}: too many joints to trace: {splices:.3g} splices"
                f" (length {span.length:g} km), {span.connectors:.3g} connectors;"
                f" the path would hold {elements:.6g} elements, over the cap of {MAX_TRACE_ELEMENTS}"
            )
        runs += rows
    if margin > 0:
        runs.append(("margin", f"margin {margin:g} dB", -margin, 1))
    return runs
