from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from fiberplan.model import (
    Amplifier,
    ComponentLosses,
    ConfigurationError,
    DomainError,
    FiberProfile,
    LineCode,
    Network,
    Node,
    Span,
    Splitter,
    Topology,
    TransceiverProfile,
    nodes_along,
    resolved_splices,
    ring_spans,
    spans_along,
    splice_count,
    validate_network,
)
from fiberplan.power_budget import AmplifierPlan, LossBreakdown
from fiberplan.signal_chain import BerEstimate
from fiberplan.standards import StandardProfile
from fiberplan.traffic import TrafficInput

from conftest import BACKBONE_FIBER, LOSSES, TRANSCEIVER, make_ring, make_span


class TestInvariants:
    def test_fiber_profile_rejects_bad_values(self):
        with pytest.raises(DomainError):
            FiberProfile("f", attenuation=0.0, dispersion=3.5, drum_length=3.0)
        with pytest.raises(DomainError):
            FiberProfile("f", attenuation=0.3, dispersion=-0.1, drum_length=3.0)
        with pytest.raises(DomainError):
            FiberProfile("f", attenuation=0.3, dispersion=3.5, drum_length=0.0)

    def test_transceiver_rejects_bad_values(self):
        for field, bad in [
            ("spectral_width", 0.0),
            ("tx_rise_time", 0.0),
            ("rx_rise_time", -1.0),
            ("responsivity", 0.0),
        ]:
            kwargs = dict(
                tx_power=9.0, spectral_width=0.1, tx_rise_time=60.0,
                rx_rise_time=35.0, rx_sensitivity=-21.0, responsivity=0.9,
            )
            kwargs[field] = bad
            with pytest.raises(DomainError):
                TransceiverProfile(**kwargs)

    def test_component_losses_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            ComponentLosses(connector_loss=-0.1, splice_loss=0.05, system_margin=3.0)

    def test_amplifier_needs_positive_gain(self):
        with pytest.raises(DomainError):
            Amplifier(gain=0.0)

    @pytest.mark.parametrize("ratio", [2, 4, 8, 64])
    def test_splitter_accepts_powers_of_two(self, ratio):
        assert Splitter(ratio=ratio).ratio == ratio

    @pytest.mark.parametrize("ratio", [0, 1, 3, 6, 12, -4])
    def test_splitter_rejects_other_ratios(self, ratio):
        with pytest.raises(DomainError):
            Splitter(ratio=ratio)

    def test_span_invariants(self):
        with pytest.raises(DomainError):
            make_span("s", "a", "b", length=0.0)
        with pytest.raises(DomainError):
            make_span("s", "a", "a")
        with pytest.raises(DomainError):
            make_span("s", "a", "b", connectors=-1)
        with pytest.raises(DomainError):
            make_span("s", "a", "b", splices=-1)


# Valid arguments of every value class whose __post_init__ checks a numeric domain.
VALID = {
    FiberProfile: dict(name="f", attenuation=0.3, dispersion=3.5, drum_length=3.0),
    TransceiverProfile: dict(
        tx_power=9.0, spectral_width=0.1, tx_rise_time=60.0,
        rx_rise_time=35.0, rx_sensitivity=-21.0, responsivity=0.9,
    ),
    ComponentLosses: dict(connector_loss=0.3, splice_loss=0.05, system_margin=3.0, splitter_excess_loss=0.5),
    Amplifier: dict(gain=20.0),
    Span: dict(id="s", from_node="a", to_node="b", length=5.0, fiber=BACKBONE_FIBER, connectors=2, splices=4),
    LossBreakdown: dict(connector_total=0.6, fiber_total=3.0, splice_total=0.25, splitter_total=0.0, margin=3.0),
    AmplifierPlan: dict(gain_deficit=5.0, unit_gain=20.0),
    StandardProfile: dict(name="lab", bit_rate=1e9, line_code=LineCode.NRZ, rx_sensitivity=-30.0),
    TrafficInput: dict(
        population=1000, cellular_penetration=1.5, operator_share=0.4,
        lte_penetration=0.2, annual_growth=0.05, horizon=5,
    ),
    BerEstimate: dict(q_factor=6.0, ber=1e-9),
}
CHECKED = [
    (FiberProfile, "attenuation"), (FiberProfile, "dispersion"), (FiberProfile, "drum_length"),
    (TransceiverProfile, "spectral_width"), (TransceiverProfile, "tx_rise_time"),
    (TransceiverProfile, "rx_rise_time"), (TransceiverProfile, "responsivity"),
    (ComponentLosses, "connector_loss"), (ComponentLosses, "splice_loss"),
    (ComponentLosses, "system_margin"), (ComponentLosses, "splitter_excess_loss"),
    (Amplifier, "gain"),
    (Span, "length"), (Span, "connectors"), (Span, "splices"),
    (LossBreakdown, "connector_total"), (LossBreakdown, "margin"),
    (AmplifierPlan, "unit_gain"),
    (StandardProfile, "bit_rate"), (StandardProfile, "rx_sensitivity"),
    (TrafficInput, "population"), (TrafficInput, "cellular_penetration"), (TrafficInput, "operator_share"),
    (TrafficInput, "lte_penetration"), (TrafficInput, "annual_growth"), (TrafficInput, "horizon"),
    (BerEstimate, "ber"),
]


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_valid_arguments_construct(cls):
    cls(**VALID[cls])


@pytest.mark.parametrize("cls, field", CHECKED, ids=[f"{c.__name__}.{f}" for c, f in CHECKED])
def test_nan_fails_the_domain_check(cls, field):
    with pytest.raises(DomainError):
        cls(**{**VALID[cls], field: math.nan})


class TestSpliceCount:
    def test_drum_boundary_counts_on_long_runs(self):
        assert splice_count(18.8, 3.0) == 9
        assert splice_count(8.4, 3.0) == 5

    def test_single_drum_has_three_joints(self):
        assert splice_count(3.0, 3.0) == 3

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(DomainError):
            splice_count(0.0, 3.0)
        with pytest.raises(DomainError):
            splice_count(10.0, 0.0)
        with pytest.raises(DomainError):
            splice_count(-1.0, 3.0)

    @given(
        length=st.floats(min_value=0.001, max_value=500.0),
        bump=st.floats(min_value=0.0, max_value=100.0),
        drum=st.floats(min_value=0.5, max_value=10.0),
    )
    def test_monotone_in_length(self, length, bump, drum):
        assert splice_count(length + bump, drum) >= splice_count(length, drum)

    @given(drum=st.floats(min_value=0.5, max_value=10.0), frac=st.floats(min_value=0.001, max_value=1.0))
    def test_short_runs_need_exactly_three(self, drum, frac):
        assert splice_count(drum * frac, drum) == 3

    def test_explicit_splices_win_over_auto(self):
        assert resolved_splices(make_span("s", "a", "b", length=10.0, splices=4)) == 4
        assert resolved_splices(make_span("s", "a", "b", length=10.0)) == splice_count(10.0, 3.0)


class TestValidateNetwork:
    def test_seven_node_ring_is_valid(self):
        net = make_ring(["a", "b", "c", "d", "e", "f", "g"])
        assert validate_network(net) == []

    def test_single_node_ring_reports_degree(self):
        net = Network(
            nodes=(Node("only", "Only"),),
            spans=(),
            topology=Topology.RING,
            losses=LOSSES,
            transceiver=TRANSCEIVER,
        )
        rules = [v.rule for v in validate_network(net)]
        assert "ring-degree" in rules

    def test_unknown_node_reference(self):
        net = make_ring(["a", "b", "c"])
        bad = Network(
            nodes=net.nodes,
            spans=net.spans + (make_span("99-dangling", "a", "X"),),
            topology=Topology.RING,
            losses=LOSSES,
            transceiver=TRANSCEIVER,
        )
        violations = validate_network(bad)
        assert any(v.rule == "unresolved-node" and v.element == "span:99-dangling" for v in violations)

    def test_empty_network_is_invalid(self):
        net = Network(
            nodes=(), spans=(), topology=Topology.RING, losses=LOSSES, transceiver=TRANSCEIVER
        )
        assert any(v.rule == "no-nodes" for v in validate_network(net))

    def test_two_disjoint_triangles_are_not_one_ring(self):
        left = make_ring(["a", "b", "c"])
        right = make_ring(["x", "y", "z"])
        net = Network(
            nodes=left.nodes + right.nodes,
            spans=left.spans + right.spans,
            topology=Topology.RING,
            losses=LOSSES,
            transceiver=TRANSCEIVER,
        )
        assert any(v.rule == "ring-single-cycle" for v in validate_network(net))

    def test_duplicate_ids_are_reported(self):
        net = make_ring(["a", "b", "c"])
        dup = Network(
            nodes=net.nodes + (Node("a", "Again"),),
            spans=net.spans,
            topology=Topology.RING,
            losses=LOSSES,
            transceiver=TRANSCEIVER,
        )
        assert any(v.rule == "duplicate-id" and v.element == "node:a" for v in validate_network(dup))

    def test_valid_tree(self):
        spans = (
            make_span("01-root-left", "root", "left"),
            make_span("02-root-right", "root", "right"),
            make_span("03-left-leaf", "left", "leaf"),
        )
        net = Network(
            nodes=tuple(Node(n, n) for n in ["root", "left", "right", "leaf"]),
            spans=spans,
            topology=Topology.TREE,
            losses=LOSSES,
            transceiver=TRANSCEIVER,
            head="root",
        )
        assert validate_network(net) == []

    def test_tree_with_cycle_and_bad_head(self):
        ring = make_ring(["a", "b", "c"])
        net = Network(
            nodes=ring.nodes,
            spans=ring.spans,
            topology=Topology.TREE,
            losses=LOSSES,
            transceiver=TRANSCEIVER,
            head="missing",
        )
        rules = {v.rule for v in validate_network(net)}
        assert "tree-acyclic" in rules
        assert "tree-head" in rules

    def test_disconnected_tree(self):
        net = Network(
            nodes=tuple(Node(n, n) for n in ["root", "a", "b"]),
            spans=(make_span("01-root-a", "root", "a"),),
            topology=Topology.TREE,
            losses=LOSSES,
            transceiver=TRANSCEIVER,
        )
        assert any(v.rule == "tree-connected" for v in validate_network(net))

    def test_pure_and_deterministically_ordered(self):
        net = Network(
            nodes=(Node("b", "B"), Node("a", "A")),
            spans=(make_span("z-span", "a", "X"), make_span("a-span", "b", "Y")),
            topology=Topology.RING,
            losses=LOSSES,
            transceiver=TRANSCEIVER,
        )
        first = validate_network(net)
        second = validate_network(net)
        assert first == second
        keys = [(v.element, v.rule) for v in first]
        assert keys == sorted(keys)


class TestPathResolution:
    def test_ring_order_walks_the_cycle_and_closes_it(self, sleman_doc):
        net = sleman_doc.network
        order = nodes_along(net.nodes[0].id, ring_spans(net))
        assert len(order) == 8
        assert order[0] == order[-1] == "seyegan"
        assert sorted(order[:-1]) == sorted(n.id for n in sleman_doc.network.nodes)

    def test_ring_order_rejects_tree(self):
        net = make_ring(["a", "b", "c"])
        tree_like = Network(
            nodes=net.nodes, spans=net.spans[:2], topology=Topology.TREE,
            losses=LOSSES, transceiver=TRANSCEIVER,
        )
        with pytest.raises(ConfigurationError):
            ring_spans(tree_like)

    def test_ring_spans_walk_every_span_once_in_ring_order(self, sleman_doc):
        net = sleman_doc.network
        spans = ring_spans(net)
        assert sorted(s.id for s in spans) == sorted(s.id for s in net.spans)
        order = nodes_along(net.nodes[0].id, spans)
        for span, a, b in zip(spans, order, order[1:]):
            assert {span.from_node, span.to_node} == {a, b}

    def test_ring_walk_does_not_revalidate(self, sleman_doc, monkeypatch):
        import fiberplan.model

        def fail(net):
            raise AssertionError("validate_network called")

        monkeypatch.setattr(fiberplan.model, "validate_network", fail)
        assert len(ring_spans(sleman_doc.network)) == 7

    @pytest.mark.parametrize(
        "nodes, spans",
        [
            (["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c")]),  # open chain
            (["a", "b", "c", "d"], [("ab", "a", "b"), ("ba", "b", "a"), ("cd", "c", "d"), ("dc", "d", "c")]),  # two cycles
            (["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c"), ("cx", "c", "x")]),  # dangling end
            ([], []),  # no nodes
            (["a", "a", "b"], [("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a")]),  # duplicate id, unknown c
        ],
    )
    def test_ring_walk_rejects_what_is_not_one_cycle(self, nodes, spans):
        net = Network(
            nodes=tuple(Node(n, n) for n in nodes),
            spans=tuple(make_span(i, a, b) for i, a, b in spans),
            topology=Topology.RING,
            losses=LOSSES,
            transceiver=TRANSCEIVER,
        )
        with pytest.raises(ConfigurationError):
            ring_spans(net)

    def test_node_name_lookup(self):
        net = Network(
            nodes=(Node("a", "Alpha"), Node("b", "Beta"), Node("a", "Again")),
            spans=(), topology=Topology.TREE, losses=LOSSES, transceiver=TRANSCEIVER,
        )
        assert net.node_name("a") == "Alpha"  # the first listing of a duplicated id
        assert net.node_name("b") == "Beta"
        assert net.node_name("zz") == "zz"

    def test_full_ring_path_includes_closing_span(self, sleman_doc):
        net = sleman_doc.network
        spans = spans_along(net, nodes_along(net.nodes[0].id, ring_spans(net)))
        assert len(spans) == 7
        assert sorted(s.id for s in spans) == sorted(s.id for s in net.spans)

    def test_partial_path(self, sleman_doc):
        spans = spans_along(sleman_doc.network, ["seyegan", "tempel", "pakem"])
        assert [s.id for s in spans] == ["01-seyegan-tempel", "02-tempel-pakem"]

    def test_path_errors(self, sleman_doc):
        net = sleman_doc.network
        with pytest.raises(ConfigurationError):
            spans_along(net, ["seyegan"])
        with pytest.raises(ConfigurationError):
            spans_along(net, ["seyegan", "nowhere"])
        with pytest.raises(ConfigurationError):
            spans_along(net, ["seyegan", "pakem"])  # not adjacent on the ring
