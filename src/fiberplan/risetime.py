"""Rise-time budget: system ceiling, dispersion contribution, and the total.

The total system rise time is the root-sum-square of the transmitter,
receiver, and chromatic-dispersion contributions; it must stay below a fixed
fraction of the bit period (0.7 for NRZ, 0.35 for RZ). Modal dispersion and
amplifier contributions are omitted: this models single-mode plant.
"""

from __future__ import annotations

import math

from .model import DomainError, LineCode, Span, TransceiverProfile, frozen

PS_PER_SECOND = 1e12

_CEILING_FRACTION = {LineCode.NRZ: 0.7, LineCode.RZ: 0.35}


@frozen
class RiseTimeReport:
    """One span's rise-time budget against the system ceiling."""

    ceiling: float  # ps, maximum tolerable total
    dispersion_component: float  # ps
    tx_component: float  # ps
    rx_component: float  # ps

    __slots__ = ("total",)  # ps, root-sum-square of the three components; derived, so not a field

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "total", total_risetime(self.tx_component, self.rx_component, self.dispersion_component)
        )

    @property
    def passed(self) -> bool:
        return self.total <= self.ceiling


def max_system_risetime(bit_rate: float, line_code: LineCode) -> float:
    """System rise-time ceiling in ps: 0.7 (NRZ) or 0.35 (RZ) bit periods."""
    if bit_rate <= 0:
        raise DomainError("bit_rate must be > 0 b/s")
    return _CEILING_FRACTION[LineCode(line_code)] * PS_PER_SECOND / bit_rate


def dispersion_risetime(dispersion: float, spectral_width: float, length: float) -> float:
    """Chromatic-dispersion rise time in ps: D * spectral width * length.

    Takes dispersion in ps/(nm km), spectral width in nm, length in km; all
    non-negative.
    """
    return dispersion * spectral_width * length


def total_risetime(tx_rise: float, rx_rise: float, dispersion_rise: float) -> float:
    """Root-sum-square combination of the three rise-time contributions (ps).

    Raises DomainError when the result is beyond the float range.
    """
    try:
        total = math.sqrt(tx_rise**2 + rx_rise**2 + dispersion_rise**2)
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise DomainError(
            f"rise time beyond the float range: tx {tx_rise:g} ps, rx {rx_rise:g} ps, dispersion {dispersion_rise:g} ps"
        )
    return total


def span_risetime_report(span: Span, transceiver: TransceiverProfile, ceiling: float) -> RiseTimeReport:
    """One span's rise-time budget against ``ceiling`` (ps), as :func:`max_system_risetime` gives it."""
    dispersion = dispersion_risetime(span.fiber.dispersion, transceiver.spectral_width, span.length)
    return RiseTimeReport(ceiling, dispersion, transceiver.tx_rise_time, transceiver.rx_rise_time)
