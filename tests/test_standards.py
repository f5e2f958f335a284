from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, strategies as st

from fiberplan.model import ConfigurationError, DomainError, LineCode
from fiberplan.risetime import max_system_risetime
from fiberplan.standards import (
    StandardProfile,
    Verdict,
    builtin_profiles,
    power_verdict,
    resolve_standard,
    risetime_verdict,
)

GPON_ONU = builtin_profiles()["gpon-onu-endpoint"]
BACKBONE_CEILING = max_system_risetime(10e9, LineCode.NRZ)

finite_dbm = st.floats(min_value=-80.0, max_value=40.0)


def test_three_builtin_sensitivity_classes():
    profiles = builtin_profiles()
    assert profiles["gpon-downlink-olt"].rx_sensitivity == -21.0
    assert profiles["gpon-onu-endpoint"].rx_sensitivity == -28.0
    assert profiles["table2-receiver"].rx_sensitivity == -38.0
    for profile in profiles.values():
        assert profile.bit_rate == 10e9
        assert profile.line_code is LineCode.NRZ


def test_profile_invariants():
    with pytest.raises(DomainError):
        StandardProfile("bad", bit_rate=0.0, line_code=LineCode.NRZ, rx_sensitivity=-28.0)
    with pytest.raises(DomainError):
        StandardProfile("bad", bit_rate=1e9, line_code=LineCode.NRZ, rx_sensitivity=float("inf"))


class TestPowerVerdict:
    def test_simulated_endpoint_power_passes(self):
        v = power_verdict(-25.010, GPON_ONU)
        assert v.passed
        assert v.margin == pytest.approx(2.99, abs=1e-9)

    def test_boundary_counts_as_pass(self):
        v = power_verdict(-28.0, GPON_ONU)
        assert v.passed
        assert v.margin == 0.0

    def test_below_sensitivity_fails(self):
        v = power_verdict(-30.0, GPON_ONU)
        assert not v.passed
        assert v.margin == pytest.approx(-2.0)

    @given(x=finite_dbm, y=finite_dbm)
    def test_margin_monotone_in_received_power(self, x, y):
        if x > y:
            x, y = y, x
        assert power_verdict(x, GPON_ONU).margin <= power_verdict(y, GPON_ONU).margin


class TestRisetimeVerdict:
    def test_backbone_link_passes(self):
        v = risetime_verdict(69.552, BACKBONE_CEILING)
        assert v.passed
        assert v.threshold == 70.0
        assert v.margin == pytest.approx(0.448, abs=1e-9)

    def test_boundary_counts_as_pass(self):
        v = risetime_verdict(70.0, BACKBONE_CEILING)
        assert v.passed
        assert v.margin == 0.0

    def test_above_ceiling_fails(self):
        assert not risetime_verdict(71.0, BACKBONE_CEILING).passed


@given(value=finite_dbm)
def test_verdict_is_self_consistent(value):
    for verdict in (power_verdict(value, GPON_ONU), risetime_verdict(abs(value) + 1.0, BACKBONE_CEILING)):
        if verdict.direction == "min":
            recomputed = verdict.value >= verdict.threshold
        else:
            recomputed = verdict.value <= verdict.threshold
        assert verdict.passed == recomputed
        assert (verdict.margin >= 0) == verdict.passed


@pytest.mark.parametrize("direction", ["min", "max"])
def test_verdict_at_an_infinite_threshold_compares_the_values(direction):
    verdict = Verdict("quantity", math.inf, math.inf, "unit", direction)
    assert math.isnan(verdict.margin)  # inf - inf
    assert verdict.passed  # equality passes


def test_power_margin_beyond_the_float_range_is_a_domain_error():
    # The sensitivity is bounded where the standard is built, so no margin against it overflows.
    with pytest.raises(DomainError, match=r"^standard 'deaf': rx_sensitivity must be in \[-100, 100\] dBm, got -1e\+308$"):
        StandardProfile("deaf", bit_rate=1e9, line_code=LineCode.NRZ, rx_sensitivity=-1e308)
    deaf = StandardProfile("deaf", bit_rate=1e9, line_code=LineCode.NRZ, rx_sensitivity=-100.0)
    assert power_verdict(sys.float_info.max, deaf).margin == sys.float_info.max
    lost = power_verdict(-math.inf, deaf)  # no light at all is a failing verdict, not an error
    assert not lost.passed and lost.margin == -math.inf


class TestResolution:
    def test_builtin_by_name(self):
        assert resolve_standard("table2-receiver").rx_sensitivity == -38.0

    def test_custom_wins_over_builtin(self):
        override = StandardProfile(
            "gpon-onu-endpoint", bit_rate=2.5e9, line_code=LineCode.NRZ, rx_sensitivity=-27.0
        )
        resolved = resolve_standard("gpon-onu-endpoint", {"gpon-onu-endpoint": override})
        assert resolved.rx_sensitivity == -27.0

    def test_editing_the_builtin_dict_leaves_resolution_alone(self):
        profiles = builtin_profiles()
        assert profiles is not builtin_profiles() and profiles == builtin_profiles()
        custom = StandardProfile("table2-receiver", bit_rate=1e9, line_code=LineCode.RZ, rx_sensitivity=-10.0)
        profiles["table2-receiver"] = custom
        profiles["lab"] = custom
        del profiles["gpon-onu-endpoint"]
        assert resolve_standard("table2-receiver").rx_sensitivity == -38.0
        assert resolve_standard("gpon-onu-endpoint").rx_sensitivity == -28.0
        with pytest.raises(ConfigurationError, match="unknown standard profile 'lab'"):
            resolve_standard("lab")
        assert sorted(builtin_profiles()) == ["gpon-downlink-olt", "gpon-onu-endpoint", "table2-receiver"]

    def test_unknown_name_lists_known_profiles(self):
        with pytest.raises(ConfigurationError, match="gpon-onu-endpoint"):
            resolve_standard("nope")
