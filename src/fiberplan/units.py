"""dBm to absolute power, for the Q factor of the signal chain's BER model."""

from __future__ import annotations

from .model import DomainError


def dbm_to_watts(power_dbm: float) -> float:
    """Absolute power in watts: 10^((P_dBm - 30) / 10). -inf dBm maps to 0 W.

    Raises DomainError when the result is beyond the float range.
    """
    try:
        return 10.0 ** ((power_dbm - 30.0) / 10.0)
    except OverflowError:
        raise DomainError(f"power {power_dbm:g} dBm is beyond the float range in watts") from None

