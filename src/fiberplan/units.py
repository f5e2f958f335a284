"""dB and dBm arithmetic shared by the budget and signal-chain modules."""

from __future__ import annotations

import math

from .model import DomainError


def dbm_to_watts(power_dbm: float) -> float:
    """Absolute power in watts: 10^((P_dBm - 30) / 10). -inf dBm maps to 0 W.

    Raises DomainError when the result is beyond the float range.
    """
    try:
        return 10.0 ** ((power_dbm - 30.0) / 10.0)
    except OverflowError:
        raise DomainError(f"power {power_dbm:g} dBm is beyond the float range in watts") from None


def watts_to_dbm(power_w: float) -> float:
    """Absolute power in dBm. Requires power_w > 0."""
    return 10.0 * math.log10(power_w * 1e3)
