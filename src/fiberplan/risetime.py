"""Rise-time budget: system ceiling, dispersion contribution, and the total.

The total system rise time is the root-sum-square of the transmitter,
receiver, and chromatic-dispersion contributions; it must stay below a fixed
fraction of the bit period (0.7 for NRZ, 0.35 for RZ). Modal dispersion and
amplifier contributions are omitted: this models single-mode plant.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .model import DomainError, LineCode, Span, TransceiverProfile, frozen

if TYPE_CHECKING:
    from .standards import StandardProfile

PS_PER_SECOND = 1e12

_CEILING_FRACTION = {LineCode.NRZ: 0.7, LineCode.RZ: 0.35}


@frozen
class RiseTimeReport:
    """One span's rise-time budget against the system ceiling."""

    ceiling: float  # ps, maximum tolerable total
    dispersion_component: float  # ps
    tx_component: float  # ps
    rx_component: float  # ps
    total: float  # ps, root-sum-square of the three components
    passed: bool

    def __post_init__(self) -> None:
        expected_sq = self.tx_component**2 + self.rx_component**2 + self.dispersion_component**2
        if not math.isclose(self.total**2, expected_sq, rel_tol=1e-9, abs_tol=1e-30):
            raise DomainError("rise-time report: total must be the root-sum-square of its components")
        if self.passed != (self.total <= self.ceiling):
            raise DomainError("rise-time report: pass flag contradicts total vs ceiling")


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
    """Root-sum-square combination of the three rise-time contributions (ps)."""
    return math.sqrt(tx_rise**2 + rx_rise**2 + dispersion_rise**2)


def span_risetime_report(
    span: Span, transceiver: TransceiverProfile, profile: "StandardProfile"
) -> RiseTimeReport:
    """Full rise-time budget for one span under one compliance profile."""
    dispersion_component = dispersion_risetime(
        span.fiber.dispersion, transceiver.spectral_width, span.length
    )
    total = total_risetime(transceiver.tx_rise_time, transceiver.rx_rise_time, dispersion_component)
    ceiling = max_system_risetime(profile.bit_rate, profile.line_code)
    return RiseTimeReport(
        ceiling=ceiling,
        dispersion_component=dispersion_component,
        tx_component=transceiver.tx_rise_time,
        rx_component=transceiver.rx_rise_time,
        total=total,
        passed=total <= ceiling,
    )
