"""Acceptance suite: the worked figures every release must reproduce.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on a green run).
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys

import pytest

from fiberplan.model import (
    Amplifier,
    ComponentLosses,
    FiberProfile,
    LineCode,
    Span,
    Splitter,
    resolved_splices,
)
from fiberplan.power_budget import (
    amplifier_requirement,
    max_allowed_loss,
    received_power,
    required_input_power,
    span_summary,
    splitter_loss,
)
from fiberplan.risetime import max_system_risetime, span_risetime_report
from fiberplan.signal_chain import NOISE_SIGMA, ber_from_q, estimate_ber, propagate
from fiberplan.standards import builtin_profiles, power_verdict
from fiberplan.traffic import TrafficInput, forecast_subscribers, project_growth
from conftest import TRANSCEIVER

# Per-link rise-time targets (ps) and splice counts the ring fixture must hit.
TARGET_TABLE = [
    ("01-seyegan-tempel", 69.552, 6),
    ("02-tempel-pakem", 69.773, 9),
    ("03-pakem-ngemplak", 69.541, 6),
    ("04-ngemplak-kalasan", 69.524, 5),
    ("05-kalasan-depok", 69.606, 7),
    ("06-depok-gamping", 69.625, 7),
    ("07-gamping-seyegan", 69.582, 6),
]


def _report(num: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num}: {description}: FAIL")
        raise
    print(f"ACCEPTANCE {num}: {description}: PASS")


def test_criterion_1_backbone_span_loss():
    def body():
        fiber = FiberProfile(name="g652", attenuation=0.3, dispersion=3.5, drum_length=3.0)
        span = Span(id="backbone", from_node="a", to_node="b", length=84.9,
                    fiber=fiber, connectors=14, splices=46)
        losses = ComponentLosses(connector_loss=0.3, splice_loss=0.05, system_margin=3.0)
        assert span_summary(span, losses)[0].total == pytest.approx(34.97, abs=0.005)

    _report(1, "backbone span loss totals 34.97 dB", body)


def test_criterion_2_received_power():
    def body():
        assert received_power(9.0, [34.97, 16.67], [40.0]) == pytest.approx(-2.64, abs=0.005)

    _report(2, "received power lands at -2.64 dBm", body)


def test_criterion_3_amplifier_sizing():
    def body():
        plan = amplifier_requirement(34.97, 13.33, 20.0)
        assert plan.gain_deficit == pytest.approx(21.64, abs=0.005)
        assert plan.edfa_count == 2

    _report(3, "21.64 dB deficit sized as exactly 2 EDFAs", body)


def test_criterion_4_budget_chain():
    def body():
        floor = required_input_power(-21.0, 16.67)
        assert floor == pytest.approx(-4.33, abs=0.005)
        assert max_allowed_loss(9.0, floor) == pytest.approx(13.33, abs=0.005)

    _report(4, "loss-budget chain gives -4.33 dBm floor and 13.33 dB budget", body)


def test_criterion_5_ring_risetimes_and_splices(sleman_doc):
    def body():
        net = sleman_doc.network
        profile = builtin_profiles()["gpon-onu-endpoint"]
        ceiling = max_system_risetime(profile.bit_rate, profile.line_code)
        floor_sq = TRANSCEIVER.tx_rise_time**2 + TRANSCEIVER.rx_rise_time**2

        def inverted_length(total_ps: float) -> float:
            # independent oracle: solve the root-sum-square budget for length
            return math.sqrt(total_ps**2 - floor_sq) / (3.5 * 0.1)

        spans = {s.id: s for s in net.spans}
        lengths = []
        splices = []
        for span_id, target_ps, target_splices in TARGET_TABLE:
            span = spans[span_id]
            assert span.length == round(inverted_length(target_ps), 3)
            report = span_risetime_report(span, net.transceiver, ceiling)
            assert report.total == pytest.approx(target_ps, abs=0.01)
            assert resolved_splices(span) == target_splices
            lengths.append(span.length)
            splices.append(resolved_splices(span))
        assert sum(splices) == 46
        assert 84.5 <= math.fsum(lengths) <= 85.0

    _report(5, "all seven ring rise times and splice counts reproduce", body)


def test_criterion_6_ceiling_and_feasibility(sleman_doc):
    def body():
        assert max_system_risetime(10e9, LineCode.NRZ) == 70.0
        net = sleman_doc.network
        profile = builtin_profiles()["gpon-onu-endpoint"]
        ceiling = max_system_risetime(profile.bit_rate, profile.line_code)
        for span in net.spans:
            assert span_risetime_report(span, net.transceiver, ceiling).passed

    _report(6, "70 ps NRZ ceiling holds and every ring link passes it", body)


def test_criterion_7_subscriber_chain():
    def body():
        forecast = forecast_subscribers(TrafficInput(850221, 1.5, 0.42, 0.2, 0.051, 5))
        assert forecast.mobile_subscribers == 1275331
        assert forecast.operator_subscribers == 535639
        assert forecast.lte_subscribers == 107128
        assert forecast.projected_subscribers == 137378
        assert project_growth(107128, 0.051, 5) == 137378

    _report(7, "subscriber chain 1275331 / 535639 / 107128 -> 137378", body)


def _random_runs(rng: random.Random, losses: ComponentLosses, with_amplifiers: bool) -> list:
    """Random (kind, dB effect, count, part) rows, as route_chain lists a path."""
    fibers = [
        FiberProfile(name=f"rand{i}", attenuation=rng.uniform(0.15, 0.5),
                     dispersion=rng.uniform(0.0, 20.0), drum_length=rng.uniform(1.0, 6.0))
        for i in range(3)
    ]
    runs = []
    for _ in range(rng.randint(0, 12)):
        roll, count = rng.random(), rng.randint(0, 3)
        if roll < 0.25 and with_amplifiers:
            gain = rng.uniform(5.0, 25.0)
            runs.append(("amplifier", gain, count, Amplifier(gain)))
        elif roll < 0.45:
            span = Span(id="r", from_node="a", to_node="b", length=rng.uniform(0.1, 30.0), fiber=rng.choice(fibers))
            runs.append(("fiber", -(span.fiber.attenuation * span.length), count, span))
        elif roll < 0.6:
            runs.append(("connector", -losses.connector_loss, count, None))
        elif roll < 0.75:
            runs.append(("splice", -losses.splice_loss, count, None))
        elif roll < 0.9:
            splitter = Splitter(rng.choice([2, 4, 8]))
            runs.append(("splitter", -splitter_loss(splitter, 0.2), count, splitter))
        else:
            pad = rng.uniform(0.0, 5.0)
            runs.append(("margin", -pad, count, pad))
    return runs


def test_criterion_8_property_suite():
    def body():
        losses = ComponentLosses(connector_loss=0.3, splice_loss=0.05, system_margin=3.0,
                                 splitter_excess_loss=0.2)
        rng = random.Random(20260810)

        # (a) trace endpoint equals the budget arithmetic on 1000 random chains
        for _ in range(1000):
            runs = _random_runs(rng, losses, with_amplifiers=True)
            tx = rng.uniform(-5.0, 12.0)
            trace = propagate(tx, runs)
            loss_list, gain_list = [], []
            for _, effect, count, _ in runs:
                (gain_list if effect >= 0 else loss_list).extend([abs(effect)] * count)
            assert len(trace.powers) == 1 + len(loss_list) + len(gain_list)
            assert abs(trace.final_power - received_power(tx, loss_list, gain_list)) <= 1e-12

        # (b) loss-only traces are monotone non-increasing
        for _ in range(200):
            runs = _random_runs(rng, losses, with_amplifiers=False)
            trace = propagate(rng.uniform(-5.0, 12.0), runs)
            powers = trace.powers
            assert all(a >= b for a, b in zip(powers, powers[1:]))

        # (c) BER: strictly monotone in received power, bounded, q=6 anchor
        grid = [-60.0 + 0.5 * i for i in range(89)]  # -60 .. -16 dBm
        bers = [estimate_ber(p, responsivity=0.9).ber for p in grid]
        assert all(a > b for a, b in zip(bers, bers[1:]))
        for power in (-200.0, -90.0, -40.0, -10.0, 0.0, 12.0):
            assert 0.0 <= estimate_ber(power, responsivity=0.9).ber <= 0.5
        assert ber_from_q(6.0) == pytest.approx(9.87e-10, rel=0.05)
        pinned = estimate_ber(10 * math.log10(6.0 * NOISE_SIGMA / 0.9 * 1e3), responsivity=0.9)
        assert pinned.ber == pytest.approx(9.87e-10, rel=0.05)

        # (d) the -28 dBm end-point verdict flips exactly at the boundary
        profile = builtin_profiles()["gpon-onu-endpoint"]
        assert power_verdict(-28.0, profile).passed
        assert not power_verdict(-28.0 - 1e-9, profile).passed
        for _ in range(500):
            power = rng.uniform(-40.0, -16.0)
            assert power_verdict(power, profile).passed == (power >= -28.0)

    _report(8, "desk-scale property suite replaces simulator outputs", body)


def test_criterion_9_plan_determinism(sleman_file):
    def body():
        for fmt in ("text", "json"):
            args = [sys.executable, "-m", "fiberplan", "plan",
                    "--network", str(sleman_file), "--standard", "gpon-onu-endpoint",
                    "--format", fmt]
            first = subprocess.run(args, capture_output=True)
            second = subprocess.run(args, capture_output=True)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout
            assert first.stdout  # non-empty report
        payload = json.loads(first.stdout)
        assert payload["overall_pass"] is True

    _report(9, "plan runs are byte-identical", body)


def test_criterion_10_end_point_ber():
    def body():
        # The paper's -26 dBm calculated end point and its average BER of 5e-4 (Q 3.23, BER 6.2e-4 here).
        estimate = estimate_ber(-26.0, 0.9)
        assert 1e-4 <= estimate.ber <= 1e-3

    _report(10, "the -26 dBm end point gives a BER in [1e-4, 1e-3]", body)

