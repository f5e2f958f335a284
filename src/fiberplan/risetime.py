"""Rise-time budget: system ceiling, dispersion contribution, and the total.

The total system rise time is the root-sum-square of the transmitter,
receiver, and chromatic-dispersion contributions; it must stay below a fixed
fraction of the bit period (0.7 for NRZ, 0.35 for RZ). Modal dispersion and
amplifier contributions are omitted: this models single-mode plant. A plan
holds each span's budget in its row (:func:`fiberplan.planning.span_row`).
"""

from __future__ import annotations

import math

from .model import DomainError, LineCode

PS_PER_SECOND = 1e12

_CEILING_FRACTION = {LineCode.NRZ: 0.7, LineCode.RZ: 0.35}


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

