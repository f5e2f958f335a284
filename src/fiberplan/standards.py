"""Named compliance profiles and the pass/fail verdicts rendered against them.

Three receiver-sensitivity thresholds ship as built-in profiles because they
apply to different link segments; the caller must pick the one that matches
the receiver being judged. Equality counts as a pass: sensitivity is defined
as the minimum acceptable power, and a ceiling as the maximum acceptable
rise time.
"""

from __future__ import annotations

from typing import Literal, Mapping

from .model import BIT_RATE_BPS, POWER_DBM, ConfigurationError, LineCode, check_range, frozen


@frozen
class StandardProfile:
    """Compliance targets for one link segment class."""

    name: str
    bit_rate: float  # bits per second
    line_code: LineCode
    rx_sensitivity: float  # dBm
    notes: str = ""

    def __post_init__(self) -> None:
        check_range(f"standard {self.name!r}: bit_rate", self.bit_rate, BIT_RATE_BPS, "b/s")
        check_range(f"standard {self.name!r}: rx_sensitivity", self.rx_sensitivity, POWER_DBM, "dBm")


@frozen
class Verdict:
    """One measured quantity judged against one threshold.

    ``direction`` records which way the comparison runs: ``"min"`` means the
    value must reach the threshold (received power), ``"max"`` means it must
    stay below it (rise time). ``margin`` is positive iff the verdict passes
    with room to spare, zero exactly at the threshold.
    """

    quantity: str
    value: float
    threshold: float
    unit: str
    direction: Literal["min", "max"]

    @property
    def passed(self) -> bool:
        # Compared directly, not by the sign of the margin: inf - inf is NaN.
        if self.direction == "min":
            return self.value >= self.threshold
        return self.value <= self.threshold

    @property
    def margin(self) -> float:
        if self.direction == "min":
            return self.value - self.threshold
        return self.threshold - self.value


def power_verdict(received: float, profile: StandardProfile) -> Verdict:
    """Judge a received power (dBm) against the profile's sensitivity floor."""
    return Verdict("received power", received, profile.rx_sensitivity, "dBm", "min")


def risetime_verdict(total_rise: float, ceiling: float, quantity: str = "rise time") -> Verdict:
    """Judge a total system rise time (ps) against a ceiling (ps).

    The ceiling follows from a profile's bit rate and line code through
    :func:`fiberplan.risetime.max_system_risetime`; for a 10 Gbps NRZ system
    it is 70 ps.
    """
    return Verdict(quantity, total_rise, ceiling, "ps", "max")


# The shipped profiles, built once per process: a profile is immutable, and this dict is never handed out.
_BUILTINS = {
    name: StandardProfile(name, 10e9, LineCode.NRZ, rx_sensitivity, notes)
    for name, rx_sensitivity, notes in (
        ("gpon-downlink-olt", -21.0,
         "ITU-T G.984.2 class downlink receiver; the planning floor for backbone exit power"),
        ("gpon-onu-endpoint", -28.0, "ITU-T G.984.2 class distribution end point (ONU) sensitivity"),
        ("table2-receiver", -38.0, "design-table receiver minimum sensitivity"),
    )
}


def builtin_profiles() -> dict[str, StandardProfile]:
    """The shipped compliance profiles, keyed by name, in a new dict on each call.

    All three carry the 10 Gbps NRZ backbone signal, so they share the 70 ps
    rise-time ceiling; they differ in which receiver's sensitivity they
    enforce.
    """
    return dict(_BUILTINS)


def resolve_standard(name: str, custom: Mapping[str, StandardProfile] | None = None) -> StandardProfile:
    """Look up a profile by name, custom definitions first, then built-ins."""
    if custom and name in custom:
        return custom[name]
    if name in _BUILTINS:
        return _BUILTINS[name]
    known = sorted(set(_BUILTINS) | set(custom or {}))
    raise ConfigurationError(f"unknown standard profile {name!r}; known: {', '.join(known)}")
