from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from fiberplan import signal_chain
from fiberplan.model import (
    Amplifier,
    AmplifierKind,
    ComponentLosses,
    DomainError,
    FiberProfile,
    Network,
    Node,
    Span,
    Splitter,
    Topology,
    ring_spans,
    spans_along,
)
from fiberplan.planning import run_plan
from fiberplan.power_budget import received_power, span_runs, splitter_loss
from fiberplan.signal_chain import (
    BerEstimate,
    MAX_TRACE_ELEMENTS,
    NOISE_SIGMA,
    PowerTrace,
    ber_from_q,
    dbm_to_watts,
    estimate_ber,
    propagate,
    route_chain,
)

from conftest import LOSSES, TRANSCEIVER, make_ring, make_span

DIST_FIBER = FiberProfile(name="dist", attenuation=0.2, dispersion=16.75, drum_length=3.0)

# frozen from numerically integrating the Gaussian tail (scipy.integrate.quad)
BER_AT_Q3 = 1.349898e-3
BER_AT_Q6 = 9.865877e-10

CONNECTOR = ("connector", -LOSSES.connector_loss, 1, None)
SPLICE = ("splice", -LOSSES.splice_loss, 1, None)


def margin(loss, count=1):
    return ("margin", -loss, count, loss)


# The parts of these rows are plain holders, not Amplifier and Span: the gains and lengths
# here reach past those classes' physical ranges, and a part only names its row.
def edfa(gain, count=1):
    return ("amplifier", gain, count, SimpleNamespace(kind=AmplifierKind.EDFA, gain=gain))


def fiber(length, profile=DIST_FIBER):
    return ("fiber", -(profile.attenuation * length), 1, SimpleNamespace(length=length, fiber=profile))


def splitter(ratio, losses=LOSSES):
    return ("splitter", -splitter_loss(Splitter(ratio), losses.splitter_excess_loss), 1, Splitter(ratio))


def effects(runs):
    """The effect of every element the rows stand for, in order."""
    return [effect for _, effect, count, _ in runs for _ in range(count)]


class TestPropagate:
    def test_backbone_and_distribution_fold(self):
        trace = propagate(9.0, [margin(34.97), edfa(20.0, 2), margin(16.67)])
        assert trace.final_power == pytest.approx(-2.64, abs=0.005)
        assert trace.final_power == received_power(9.0, [34.97, 16.67], [20.0, 20.0])

    def test_empty_chain_is_identity(self):
        trace = propagate(4.5, [])
        assert trace.labels == ("input",)
        assert trace.powers == (4.5,)
        assert trace.final_power == 4.5

    def test_segment_plus_splitter(self):
        span = Span(id="d", from_node="a", to_node="b", length=2.0, fiber=DIST_FIBER, connectors=0, splices=0,
                    splitters=(Splitter(4),))
        trace = propagate(10.0, span_runs(span, LOSSES))
        assert trace.final_power == pytest.approx(3.579, abs=0.001)

    @pytest.mark.parametrize("labels, powers", [(("input", "fiber"), (1.0,)), (("input",), (1.0, 2.0)), ((), ())])
    def test_a_trace_needs_one_label_per_power_and_a_point(self, labels, powers):
        """Unequal columns would render JSON with a missing value, and no points would break both renderers."""
        with pytest.raises(DomainError, match=f"not {len(labels)} and {len(powers)}$"):
            PowerTrace(labels, powers)

    def test_one_point_per_element(self):
        trace = propagate(0.0, [CONNECTOR, ("splice", -0.05, 2, None), margin(1.0), margin(2.0, 0)])
        assert len(trace.powers) == 5
        assert trace.labels == ("input", "connector", "splice", "splice", "margin 1 dB")

    def test_loss_only_chain_never_rises(self):
        rng = random.Random(99)
        for _ in range(50):
            runs = []
            for _ in range(rng.randint(0, 20)):
                row = rng.choice(
                    [
                        CONNECTOR,
                        SPLICE,
                        splitter(rng.choice([2, 4, 8])),
                        fiber(rng.uniform(0.1, 30.0)),
                        margin(rng.uniform(0.0, 5.0)),
                    ]
                )
                runs.append(row[:2] + (rng.randint(0, 4),) + row[3:])
            trace = propagate(rng.uniform(-5.0, 12.0), runs)
            powers = trace.powers
            assert len(powers) == 1 + len(effects(runs))
            assert all(a >= b for a, b in zip(powers, powers[1:]))

    def test_each_point_steps_by_the_element_effect(self):
        rng = random.Random(7)
        runs = [CONNECTOR, fiber(12.5), SPLICE[:2] + (3, None), edfa(17.0), splitter(8), margin(2.5)]
        trace = propagate(rng.uniform(-5.0, 10.0), runs)
        steps = effects(runs)
        assert len(trace.powers) == 1 + len(steps)
        for before, after, effect in zip(trace.powers, trace.powers[1:], steps):
            assert after == pytest.approx(before + effect, abs=1e-9)

    def test_adjacent_swap_keeps_the_final_point(self):
        runs = [CONNECTOR, fiber(7.0), SPLICE, splitter(2)]
        swapped = [CONNECTOR, SPLICE, fiber(7.0), splitter(2)]
        a = propagate(9.0, runs)
        b = propagate(9.0, swapped)
        assert a.final_power == b.final_power
        assert a.powers != b.powers

    @pytest.mark.parametrize("power", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_input_power(self, power):
        with pytest.raises(DomainError, match="input power"):
            propagate(power, [CONNECTOR])

    @pytest.mark.parametrize(
        "element",
        [edfa(math.inf), margin(math.inf), ("fiber", math.nan, 1, SimpleNamespace(length=math.nan, fiber=DIST_FIBER))],
    )
    def test_rejects_non_finite_element_effects(self, element):
        with pytest.raises(DomainError, match="non-finite"):
            propagate(0.0, [CONNECTOR, element])


def prefix_fsum_fold(input_power, runs):
    """Reference fold: math.fsum over the whole prefix at every element (quadratic)."""
    deltas = [input_power]
    powers = [input_power]
    for effect in effects(runs):
        deltas.append(effect)
        powers.append(math.fsum(deltas))
    return powers


def bits(values):
    return [float(v).hex() for v in values]


class TestPropagateMatchesPrefixFsum:
    """The linear fold equals the prefix-fsum fold point for point, to the bit."""

    @staticmethod
    def random_case(rng):
        def magnitude():
            return 10.0 ** rng.uniform(-12.0, 4.0)

        # Plain holders, not ComponentLosses and FiberProfile: the magnitudes reach past those
        # classes' physical ranges, and propagate takes any finite row effects.
        losses = SimpleNamespace(
            connector_loss=rng.choice([0.0, magnitude()]),
            splice_loss=magnitude(),
            system_margin=0.0,
            splitter_excess_loss=rng.choice([0.0, magnitude()]),
        )
        profile = SimpleNamespace(name="f", attenuation=magnitude(), dispersion=3.5, drum_length=3.0)
        makers = [
            lambda: ("connector", -losses.connector_loss, rng.randint(0, 4), None),
            lambda: ("splice", -losses.splice_loss, rng.randint(0, 4), None),
            lambda: splitter(2 ** rng.randint(1, 6), losses),
            lambda: fiber(10.0 ** rng.uniform(-4.0, 3.0), profile),
            lambda: edfa(magnitude(), rng.randint(0, 2)),
            lambda: margin(rng.choice([0.0, magnitude()])),
        ]
        runs = [rng.choice(makers)() for _ in range(rng.randint(0, 60))]
        power = rng.choice([0.0, -magnitude(), magnitude()])
        return power, runs

    def test_random_chains(self):
        rng = random.Random(1997)
        for _ in range(300):
            power, runs = self.random_case(rng)
            trace = propagate(power, runs)
            assert bits(trace.powers) == bits(prefix_fsum_fold(power, runs))

    def test_thousand_node_ring(self):
        rng = random.Random(3)
        nodes = [f"n{i:04d}" for i in range(1000)]
        net = make_ring(nodes, [rng.uniform(0.5, 3.0) for _ in nodes])
        runs = route_chain(net, ring_spans(net))
        assert len(effects(runs)) > 5000
        trace = propagate(net.transceiver.tx_power, runs)
        assert bits(trace.powers) == bits(prefix_fsum_fold(net.transceiver.tx_power, runs))


ROUNDS_TO_INF = 2**1024 - 2**970  # the float maximum plus half its ulp: the tie rounds to even, past the range


class TestPropagateIsExact:
    """Every point is the exact rational prefix sum, rounded once, up to float overflow.

    Sums that land on the overflow threshold are where a prefix ``math.fsum`` raises a
    false intermediate overflow on a finite prefix; the fold must stay exact there too.
    """

    @staticmethod
    def value(rng):
        sign = rng.choice([-1.0, 1.0])
        pick = rng.randrange(6)
        if pick == 0:  # near the float maximum
            return sign * rng.uniform(1.0e308, sys.float_info.max)
        if pick == 1:  # sums that land within a few ulps of the overflow threshold
            return sign * rng.choice(
                [sys.float_info.max, 2.0**970, math.ldexp(rng.randrange(1, 2**8), rng.randint(962, 1016))]
            )
        if pick == 2:  # subnormal
            return sign * math.ldexp(rng.randrange(1, 2**52), -1074)
        if pick == 3:
            return sign * rng.choice([0.0, 5e-324])
        return sign * rng.uniform(0.0, 40.0) * 10.0 ** rng.randint(-20, 20)

    def test_seeded_fuzz_against_fractions(self):
        rng = random.Random(2022)
        for _ in range(20_000):
            power = self.value(rng)
            runs = [(f"e{i}", self.value(rng), rng.randint(0, 3), None) for i in range(rng.randint(0, 8))]
            labels = ["input", *(kind for kind, _, count, _ in runs for _ in range(count))]
            exact, expected, overflow = Fraction(power), [power], None
            for label, effect in zip(labels[1:], effects(runs)):
                exact += Fraction(effect)
                if abs(exact) >= ROUNDS_TO_INF:
                    overflow = label
                    break
                expected.append(float(exact))
            if overflow is None:
                trace = propagate(power, runs)
                assert trace.labels == tuple(labels)
                assert bits(trace.powers) == bits(expected)
            else:
                with pytest.raises(DomainError, match=f"^power after '{overflow}' is beyond the float range$"):
                    propagate(power, runs)


class TestPropagateExactFallback:
    """Two cases the shifted fold cannot convert by one float() and a power-of-two scale; both take
    the exact division, and each point is still the exact prefix sum, rounded once."""

    @staticmethod
    def expected(power, runs):
        exact, points = Fraction(power), [power]
        for effect in effects(runs):
            exact += Fraction(effect)
            points.append(float(exact))
        return points

    def test_an_effect_over_two_to_the_1074(self):
        runs = [CONNECTOR, ("amplifier", 5e-324, 3, None), SPLICE, ("amplifier", -5e-324, 1, None)]
        trace = propagate(-3.1, runs)
        assert bits(trace.powers) == bits(self.expected(-3.1, runs))

    def test_a_finite_point_whose_scaled_sum_leaves_the_float_range(self):
        runs = [("amplifier", 2.0**-60, 3, None), ("splice", -1e300, 1, None)]
        with pytest.raises(OverflowError):
            float((1e308).as_integer_ratio()[0] << 60)  # the sum the shifted fold would convert
        trace = propagate(1e308, runs)
        assert bits(trace.powers) == bits(self.expected(1e308, runs))
        assert trace.powers[1] == 1e308  # finite: 1e308 + 2**-60 rounds back to 1e308


class TestElementGain:
    """One row's effect is what one element of its kind does to the power."""

    def test_shared_losses_drive_joints(self):
        losses = ComponentLosses(connector_loss=0.7, splice_loss=0.11, system_margin=0.0,
                                 splitter_excess_loss=0.5)
        span = make_span("s", "a", "b", length=10.0, splices=4, splitters=(Splitter(2),),
                         amplifiers=(Amplifier(17.0),))
        effect = {kind: e for kind, e, _, _ in span_runs(span, losses)}
        assert effect["connector"] == -0.7
        assert effect["splice"] == -0.11
        assert effect["splitter"] == -splitter_loss(Splitter(2), 0.5)
        assert effect["amplifier"] == 17.0
        assert effect["fiber"] == pytest.approx(-3.0)

    def test_segment_needs_positive_length(self):
        # The fiber row comes from the span, whose length must be > 0 km.
        with pytest.raises(DomainError):
            make_span("s", "a", "b", length=0.0)

    def test_margin_pad_rejects_negative(self):
        # The margin row comes from the shared losses, whose margin must be >= 0 dB.
        with pytest.raises(DomainError):
            ComponentLosses(connector_loss=0.3, splice_loss=0.05, system_margin=-1.0)


class TestBer:
    def test_watts_beyond_the_float_range_are_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^power 1e\+308 dBm is beyond the float range in watts$"):
            dbm_to_watts(1e308)
        assert dbm_to_watts(-math.inf) == 0.0

    def test_zero_linear_power_is_a_coin_flip(self):
        estimate = estimate_ber(float("-inf"), responsivity=0.9)
        assert estimate.q_factor == 0.0
        assert estimate.ber == 0.5

    def test_q_six_matches_the_integration_oracle(self):
        assert ber_from_q(6.0) == pytest.approx(BER_AT_Q6, rel=1e-5)

    def test_q_three_matches_the_integration_oracle(self):
        assert ber_from_q(3.0) == pytest.approx(BER_AT_Q3, rel=1e-5)

    def test_quadrature_oracle_agrees_with_erfc_route(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for q in (0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0):
            tail, _ = quad(lambda t: math.exp(-t * t / 2.0), q, math.inf)
            expected = tail / math.sqrt(2.0 * math.pi)
            assert ber_from_q(q) == pytest.approx(expected, rel=1e-6)

    def test_power_that_pins_q_to_six(self):
        power = 10 * math.log10(6.0 * NOISE_SIGMA / 0.9 * 1e3)
        estimate = estimate_ber(power, responsivity=0.9)
        assert estimate.q_factor == pytest.approx(6.0, rel=1e-12)
        assert estimate.ber == pytest.approx(BER_AT_Q6, rel=0.05)

    @given(
        power=st.floats(min_value=-60.0, max_value=-16.0),
        step=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_strictly_monotone_in_received_power(self, power, step):
        low = estimate_ber(power, responsivity=0.9)
        high = estimate_ber(power + step, responsivity=0.9)
        assert high.ber < low.ber

    @given(power=st.floats(min_value=-200.0, max_value=40.0))
    def test_bounded(self, power):
        estimate = estimate_ber(power, responsivity=0.9)
        assert 0.0 <= estimate.ber <= 0.5

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            estimate_ber(-20.0, responsivity=0.0)
        with pytest.raises(DomainError):
            ber_from_q(-0.1)

    def test_estimate_bounds_enforced(self):
        with pytest.raises(DomainError):
            BerEstimate(q_factor=1.0, ber=0.7)


class TestRouteChain:
    def test_ring_span_composition(self, sleman_doc):
        net = sleman_doc.network
        runs = route_chain(net, spans_along(net, ["seyegan", "tempel"]))
        counts: dict[str, int] = {}
        for kind, _, count, _ in runs:
            counts[kind] = counts.get(kind, 0) + count
        # 2 connectors, the fiber run, 6 drum splices, the path margin
        assert counts == {"connector": 2, "fiber": 1, "splice": 6, "margin": 1}
        assert runs[-1] == ("margin", -3.0, 1, 3.0)

    def test_full_ring_final_power_matches_budget_arithmetic(self, sleman_doc):
        net = sleman_doc.network
        trace = propagate(net.transceiver.tx_power, route_chain(net, ring_spans(net)))
        *_, total = run_plan(sleman_doc, "gpon-onu-endpoint").path
        expected = received_power(
            net.transceiver.tx_power,
            [total],
            [a.gain for s in net.spans for a in s.amplifiers],
        )
        assert trace.final_power == pytest.approx(expected, abs=1e-9)

    def test_margin_omitted_when_zero(self, sleman_doc):
        net = sleman_doc.network
        no_margin = ComponentLosses(
            connector_loss=net.losses.connector_loss,
            splice_loss=net.losses.splice_loss,
            system_margin=0.0,
        )
        stripped = Network(
            nodes=net.nodes, spans=net.spans, topology=net.topology,
            losses=no_margin, transceiver=net.transceiver,
        )
        runs = route_chain(stripped, spans_along(stripped, ["seyegan", "tempel"]))
        assert not any(kind == "margin" for kind, *_ in runs)

    def test_chain_length_is_capped_before_it_is_built(self):
        def two_node_ring(splices: int) -> Network:
            spans = (make_span("s1", "a", "b", splices=1000), make_span("s2", "b", "a", splices=splices))
            return Network(nodes=(Node("a", "A"), Node("b", "B")), spans=spans, topology=Topology.RING,
                           losses=LOSSES, transceiver=TRANSCEIVER)

        # Per span: two connectors, the fiber run and its splices; one margin element for the path.
        fits = MAX_TRACE_ELEMENTS - (3 + 1000) - 3 - 1
        net = two_node_ring(fits)
        runs = route_chain(net, net.spans)
        assert len(runs) == 9
        assert len(effects(runs)) == MAX_TRACE_ELEMENTS
        net = two_node_ring(fits + 1)
        with pytest.raises(DomainError, match=r"^span 's2': too many joints to trace: 1\.99e\+05 splices .*"
                                              r"would hold 200001 elements, over the cap of 200000$"):
            route_chain(net, net.spans)

    def test_a_span_over_the_cap_gets_no_labels(self, monkeypatch):
        spans = (make_span("s1", "a", "b", splices=10), make_span("s2", "b", "a", splices=MAX_TRACE_ELEMENTS))
        net = Network(nodes=(Node("a", "A"), Node("b", "B")), spans=spans, topology=Topology.RING,
                      losses=LOSSES, transceiver=TRANSCEIVER)
        labelled, real_label = [], signal_chain._label

        def recording_label(kind, part):
            labelled.append(kind)
            return real_label(kind, part)

        monkeypatch.setattr(signal_chain, "_label", recording_label)
        with pytest.raises(DomainError, match="^span 's2': too many joints to trace"):
            route_chain(net, net.spans)
        assert labelled == []

    def test_a_path_over_the_cap_at_its_middle_span_names_that_span(self, monkeypatch):
        spans = (make_span("s1", "a", "b", splices=10), make_span("s2", "b", "c", splices=MAX_TRACE_ELEMENTS),
                 make_span("s3", "c", "a", splices=10))
        net = Network(nodes=(Node("a", "A"), Node("b", "B"), Node("c", "C")), spans=spans, topology=Topology.RING,
                      losses=LOSSES, transceiver=TRANSCEIVER)
        labelled, real_label = [], signal_chain._label

        def recording_label(kind, part):
            labelled.append(kind)
            return real_label(kind, part)

        monkeypatch.setattr(signal_chain, "_label", recording_label)
        # The margin, then 2 connectors, the fiber run and 10 splices, then 2 connectors, the fiber run
        # and the cap's splices: the path passes the cap in s2, by 17 elements.
        with pytest.raises(DomainError, match=r"^span 's2': too many joints to trace: 2e\+05 splices \(length 5 km\),"
                                              r" 2 connectors; the path would hold 200017 elements,"
                                              r" over the cap of 200000$"):
            route_chain(net, net.spans)
        assert labelled == []
