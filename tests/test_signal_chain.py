from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from fiberplan.model import (
    Amplifier,
    ComponentLosses,
    DomainError,
    FiberProfile,
    Network,
    Node,
    Splitter,
    Topology,
    ring_spans,
    spans_along,
)
from fiberplan.power_budget import received_power, splitter_loss
from fiberplan.signal_chain import (
    BerEstimate,
    Connector,
    DEFAULT_NOISE_SIGMA,
    MAX_TRACE_ELEMENTS,
    FiberSegment,
    MarginPad,
    Splice,
    ber_from_q,
    element_gain,
    estimate_ber,
    propagate,
    route_chain,
)
from fiberplan.units import watts_to_dbm

from conftest import LOSSES, TRANSCEIVER, make_ring, make_span

DIST_FIBER = FiberProfile(name="dist", attenuation=0.2, dispersion=16.75, drum_length=3.0)

# frozen from numerically integrating the Gaussian tail (scipy.integrate.quad)
BER_AT_Q3 = 1.349898e-3
BER_AT_Q6 = 9.865877e-10


class TestPropagate:
    def test_backbone_and_distribution_fold(self):
        chain = [MarginPad(34.97), Amplifier(20.0), Amplifier(20.0), MarginPad(16.67)]
        trace = propagate(9.0, chain, LOSSES)
        assert trace.final_power == pytest.approx(-2.64, abs=0.005)
        assert trace.final_power == received_power(9.0, [34.97, 16.67], [20.0, 20.0])

    def test_empty_chain_is_identity(self):
        trace = propagate(4.5, [], LOSSES)
        assert len(trace.points) == 1
        assert trace.points[0].label == "input"
        assert trace.final_power == 4.5

    def test_segment_plus_splitter(self):
        chain = [FiberSegment(length=2.0, fiber=DIST_FIBER), Splitter(4)]
        trace = propagate(10.0, chain, LOSSES)
        assert trace.final_power == pytest.approx(3.579, abs=0.001)

    def test_one_point_per_element(self):
        chain = [Connector(), Splice(), MarginPad(1.0)]
        trace = propagate(0.0, chain, LOSSES)
        assert len(trace.points) == 4
        assert [p.label for p in trace.points] == ["input", "connector", "splice", "margin 1 dB"]

    def test_loss_only_chain_never_rises(self):
        rng = random.Random(99)
        for _ in range(50):
            chain = []
            for _ in range(rng.randint(0, 20)):
                chain.append(
                    rng.choice(
                        [
                            Connector(),
                            Splice(),
                            Splitter(rng.choice([2, 4, 8])),
                            FiberSegment(length=rng.uniform(0.1, 30.0), fiber=DIST_FIBER),
                            MarginPad(rng.uniform(0.0, 5.0)),
                        ]
                    )
                )
            trace = propagate(rng.uniform(-5.0, 12.0), chain, LOSSES)
            powers = [p.power for p in trace.points]
            assert all(a >= b for a, b in zip(powers, powers[1:]))

    def test_each_point_steps_by_the_element_effect(self):
        rng = random.Random(7)
        chain = [
            Connector(), FiberSegment(length=12.5, fiber=DIST_FIBER), Splice(),
            Amplifier(17.0), Splitter(8), MarginPad(2.5),
        ]
        trace = propagate(rng.uniform(-5.0, 10.0), chain, LOSSES)
        for before, after, element in zip(trace.points, trace.points[1:], chain):
            assert after.power == pytest.approx(before.power + element_gain(element, LOSSES), abs=1e-9)

    def test_adjacent_swap_keeps_the_final_point(self):
        chain = [Connector(), FiberSegment(length=7.0, fiber=DIST_FIBER), Splice(), Splitter(2)]
        swapped = [Connector(), Splice(), FiberSegment(length=7.0, fiber=DIST_FIBER), Splitter(2)]
        a = propagate(9.0, chain, LOSSES)
        b = propagate(9.0, swapped, LOSSES)
        assert a.final_power == b.final_power
        assert [p.power for p in a.points] != [p.power for p in b.points]

    def test_rejects_foreign_elements(self):
        with pytest.raises(DomainError):
            propagate(0.0, ["not-an-element"], LOSSES)  # type: ignore[list-item]

    @pytest.mark.parametrize("power", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_input_power(self, power):
        with pytest.raises(DomainError, match="input power"):
            propagate(power, [Connector()], LOSSES)

    @pytest.mark.parametrize(
        "element",
        [Amplifier(math.inf), MarginPad(math.inf), FiberSegment(length=math.inf, fiber=DIST_FIBER)],
    )
    def test_rejects_non_finite_element_effects(self, element):
        with pytest.raises(DomainError, match="non-finite"):
            propagate(0.0, [Connector(), element], LOSSES)


def prefix_fsum_fold(input_power, chain, losses):
    """Reference fold: math.fsum over the whole prefix at every element (quadratic)."""
    deltas = [input_power]
    powers = [input_power]
    for element in chain:
        deltas.append(element_gain(element, losses))
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

        losses = ComponentLosses(
            connector_loss=rng.choice([0.0, magnitude()]),
            splice_loss=magnitude(),
            system_margin=0.0,
            splitter_excess_loss=rng.choice([0.0, magnitude()]),
        )
        fiber = FiberProfile(name="f", attenuation=magnitude(), dispersion=3.5, drum_length=3.0)
        makers = [
            Connector,
            Splice,
            lambda: Splitter(2 ** rng.randint(1, 6)),
            lambda: FiberSegment(length=10.0 ** rng.uniform(-4.0, 3.0), fiber=fiber),
            lambda: Amplifier(magnitude()),
            lambda: MarginPad(rng.choice([0.0, magnitude()])),
        ]
        chain = [rng.choice(makers)() for _ in range(rng.randint(0, 120))]
        power = rng.choice([0.0, -magnitude(), magnitude()])
        return power, chain, losses

    def test_random_chains(self):
        rng = random.Random(1997)
        for _ in range(300):
            power, chain, losses = self.random_case(rng)
            trace = propagate(power, chain, losses)
            assert bits(p.power for p in trace.points) == bits(prefix_fsum_fold(power, chain, losses))

    def test_thousand_node_ring(self):
        rng = random.Random(3)
        nodes = [f"n{i:04d}" for i in range(1000)]
        net = make_ring(nodes, [rng.uniform(0.5, 3.0) for _ in nodes])
        chain = route_chain(net, ring_spans(net))
        assert len(chain) > 5000
        trace = propagate(net.transceiver.tx_power, chain, net.losses)
        assert bits(p.power for p in trace.points) == bits(
            prefix_fsum_fold(net.transceiver.tx_power, chain, net.losses)
        )


class TestElementGain:
    def test_shared_losses_drive_joints(self):
        losses = ComponentLosses(connector_loss=0.7, splice_loss=0.11, system_margin=0.0,
                                 splitter_excess_loss=0.5)
        assert element_gain(Connector(), losses) == -0.7
        assert element_gain(Splice(), losses) == -0.11
        assert element_gain(Splitter(2), losses) == -splitter_loss(Splitter(2), 0.5)
        assert element_gain(Amplifier(17.0), losses) == 17.0
        assert element_gain(FiberSegment(length=10.0, fiber=DIST_FIBER), losses) == pytest.approx(-2.0)

    def test_segment_needs_positive_length(self):
        with pytest.raises(DomainError):
            FiberSegment(length=0.0, fiber=DIST_FIBER)

    def test_margin_pad_rejects_negative(self):
        with pytest.raises(DomainError):
            MarginPad(-1.0)


class TestBer:
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
        power = watts_to_dbm(6.0 * DEFAULT_NOISE_SIGMA / 0.9)
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
            estimate_ber(-20.0, responsivity=0.9, noise_sigma=0.0)
        with pytest.raises(DomainError):
            ber_from_q(-0.1)

    def test_estimate_bounds_enforced(self):
        with pytest.raises(DomainError):
            BerEstimate(q_factor=1.0, ber=0.7)


class TestRouteChain:
    def test_ring_span_composition(self, sleman_doc):
        net = sleman_doc.network
        chain = route_chain(net, spans_along(net, ["seyegan", "tempel"]))
        kinds = [type(e).__name__ for e in chain]
        # 2 connectors, the fiber run, 6 drum splices, the path margin pad
        assert kinds.count("Connector") == 2
        assert kinds.count("FiberSegment") == 1
        assert kinds.count("Splice") == 6
        assert kinds[-1] == "MarginPad"

    def test_full_ring_final_power_matches_budget_arithmetic(self, sleman_doc):
        from fiberplan.power_budget import path_loss

        net = sleman_doc.network
        trace = propagate(net.transceiver.tx_power, route_chain(net, ring_spans(net)), net.losses)
        expected = received_power(
            net.transceiver.tx_power,
            [path_loss([s for s in net.spans], net.losses).total],
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
        from fiberplan.model import Network

        stripped = Network(
            nodes=net.nodes, spans=net.spans, topology=net.topology,
            losses=no_margin, transceiver=net.transceiver,
        )
        chain = route_chain(stripped, spans_along(stripped, ["seyegan", "tempel"]))
        assert not any(isinstance(e, MarginPad) for e in chain)

    def test_chain_length_is_capped_before_it_is_built(self):
        def two_node_ring(splices: int) -> Network:
            spans = (make_span("s1", "a", "b", splices=1000), make_span("s2", "b", "a", splices=splices))
            return Network(nodes=(Node("a", "A"), Node("b", "B")), spans=spans, topology=Topology.RING,
                           losses=LOSSES, transceiver=TRANSCEIVER)

        # Per span: two connectors, the fiber run and its splices; one margin pad for the path.
        fits = MAX_TRACE_ELEMENTS - (3 + 1000) - 3 - 1
        net = two_node_ring(fits)
        assert len(route_chain(net, net.spans)) == MAX_TRACE_ELEMENTS
        net = two_node_ring(fits + 1)
        with pytest.raises(DomainError, match=r"^span 's2': too many joints to trace: 1\.99e\+05 splices .*"
                                              r"would hold 200001 elements, over the cap of 200000$"):
            route_chain(net, net.spans)
