from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from fiberplan import model
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
    Violation,
    nodes_along,
    resolved_splices,
    ring_spans,
    spans_along,
    splice_count,
    validate_network,
)
from fiberplan.netfile import NetworkDocument
from fiberplan.power_budget import AmplifierPlan, check_losses
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

    def test_span_stores_listed_devices_as_tuples(self):
        amps, splitters = [Amplifier(gain=20.0)], [Splitter(ratio=8)]
        span = make_span("s", "a", "b", amplifiers=amps, splitters=splitters)
        assert span.amplifiers == tuple(amps) and span.splitters == tuple(splitters)

    def test_amplifier_needs_positive_gain(self):
        with pytest.raises(DomainError):
            Amplifier(gain=0.0)

    @pytest.mark.parametrize("ratio", [2, 4, 8, 64, 2**10])
    def test_splitter_accepts_powers_of_two(self, ratio):
        assert Splitter(ratio=ratio).ratio == ratio

    @pytest.mark.parametrize("ratio", [0, 1, 3, 6, 12, -4, 8.0, 2**11])
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
    AmplifierPlan: dict(gain_deficit=5.0, unit_gain=20.0),
    StandardProfile: dict(name="lab", bit_rate=1e9, line_code=LineCode.NRZ, rx_sensitivity=-30.0),
    TrafficInput: dict(
        population=1000, cellular_penetration=1.5, operator_share=0.4,
        lte_penetration=0.2, annual_growth=0.05, horizon=5,
    ),
    BerEstimate: dict(q_factor=6.0, ber=1e-9),
    NetworkDocument: dict(network=make_ring(["a", "b", "c"]), standards={}, distribution_loss=16.67, edfa_gain=20.0),
}
CHECKED = [
    (FiberProfile, "attenuation"), (FiberProfile, "dispersion"), (FiberProfile, "drum_length"),
    (TransceiverProfile, "tx_power"), (TransceiverProfile, "spectral_width"), (TransceiverProfile, "tx_rise_time"),
    (TransceiverProfile, "rx_rise_time"), (TransceiverProfile, "rx_sensitivity"), (TransceiverProfile, "responsivity"),
    (ComponentLosses, "connector_loss"), (ComponentLosses, "splice_loss"),
    (ComponentLosses, "system_margin"), (ComponentLosses, "splitter_excess_loss"),
    (Amplifier, "gain"),
    (Span, "length"), (Span, "connectors"), (Span, "splices"),
    (AmplifierPlan, "unit_gain"),
    (StandardProfile, "bit_rate"), (StandardProfile, "rx_sensitivity"),
    (TrafficInput, "population"), (TrafficInput, "cellular_penetration"), (TrafficInput, "operator_share"),
    (TrafficInput, "lte_penetration"), (TrafficInput, "annual_growth"), (TrafficInput, "horizon"),
    (BerEstimate, "ber"),
    (NetworkDocument, "distribution_loss"), (NetworkDocument, "edfa_gain"),
]


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_valid_arguments_construct(cls):
    cls(**VALID[cls])


@pytest.mark.parametrize("cls, field", CHECKED, ids=[f"{c.__name__}.{f}" for c, f in CHECKED])
def test_nan_fails_the_domain_check(cls, field):
    with pytest.raises(DomainError):
        cls(**{**VALID[cls], field: math.nan})


LOSS_FIGURES = ("connector_total", "fiber_total", "splice_total", "splitter_total", "margin")


@pytest.mark.parametrize("bad", [math.nan, -0.01, math.inf])
@pytest.mark.parametrize("index", range(5), ids=LOSS_FIGURES)
def test_check_losses_names_the_first_bad_figure(index, bad):
    """A plan row's five loss figures are checked in order: the first one that is not a finite number
    >= 0 dB is named, whatever follows it."""
    fine, text = [0.6, 3.0, 0.25, 0.0, 3.0], f"loss breakdown: {LOSS_FIGURES[index]} must be a finite number >= 0 dB"
    check_losses(*fine)
    for after in (fine[index + 1:], [math.nan] * (4 - index)):  # the figures after it fine, or bad too
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            check_losses(*fine[:index], bad, *after)


# Every field with a physical range: (class, field, range, whether the low end itself is excluded).
BOUNDED = [
    (FiberProfile, "attenuation", model.ATTENUATION_DB_PER_KM, True),
    (FiberProfile, "dispersion", model.DISPERSION_PS_PER_NM_KM, False),
    (FiberProfile, "drum_length", model.DRUM_LENGTH_KM, False),
    (TransceiverProfile, "tx_power", model.POWER_DBM, False),
    (TransceiverProfile, "spectral_width", model.SPECTRAL_WIDTH_NM, True),
    (TransceiverProfile, "tx_rise_time", model.RISE_TIME_PS, True),
    (TransceiverProfile, "rx_rise_time", model.RISE_TIME_PS, True),
    (TransceiverProfile, "rx_sensitivity", model.POWER_DBM, False),
    (TransceiverProfile, "responsivity", model.RESPONSIVITY_A_PER_W, True),
    *((ComponentLosses, name, model.LOSS_DB, False)
      for name in ("connector_loss", "splice_loss", "system_margin", "splitter_excess_loss")),
    (Amplifier, "gain", model.GAIN_DB, False),
    (Span, "length", model.LENGTH_KM, True),
    (Span, "connectors", model.COUNT, False),
    (Span, "splices", model.COUNT, False),
    (StandardProfile, "bit_rate", model.BIT_RATE_BPS, False),
    (StandardProfile, "rx_sensitivity", model.POWER_DBM, False),
    (TrafficInput, "population", model.POPULATION, False),
    (TrafficInput, "cellular_penetration", model.RATE, False),
    (TrafficInput, "operator_share", model.FRACTION, False),
    (TrafficInput, "lte_penetration", model.FRACTION, False),
    (TrafficInput, "annual_growth", model.RATE, False),
    (TrafficInput, "horizon", model.HORIZON_YEARS, False),
    (NetworkDocument, "distribution_loss", model.LOSS_DB, False),
    (NetworkDocument, "edfa_gain", model.GAIN_DB, False),
]


@pytest.mark.parametrize("cls, field, domain, above", BOUNDED, ids=[f"{c.__name__}.{f}" for c, f, *_ in BOUNDED])
def test_each_end_of_a_range_constructs_and_one_step_beyond_fails(cls, field, domain, above):
    lo, hi = domain
    if isinstance(lo, int):  # a count: the next integer is one step
        inside, beyond = (lo, hi), (lo - 1, hi + 1)
    else:
        inside = (math.nextafter(lo, math.inf) if above else lo, hi)
        beyond = (lo if above else math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
    for value in inside:
        assert getattr(cls(**{**VALID[cls], field: value}), field) == value
    for value in beyond:
        with pytest.raises(DomainError, match=rf"\b{field} must be in .*, got {re.escape(repr(value))}$"):
            cls(**{**VALID[cls], field: value})


class TestSpliceCount:
    def test_drum_boundary_counts_on_long_runs(self):
        assert splice_count(18.8, 3.0) == 9
        assert splice_count(8.4, 3.0) == 5

    def test_single_drum_has_three_joints(self):
        assert splice_count(3.0, 3.0) == 3

    def test_count_beyond_the_float_range_is_a_domain_error(self):
        # Raw floats from a library caller; a span is at most 1e5 km and a drum at least 1e-6 km.
        with pytest.raises(DomainError, match=r"^splice count of 1e\+308 km over 0\.5 km drums is beyond the float range"):
            splice_count(1e308, 0.5)

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
            # a triangle and a pendant: the walk uses every span but ends at d, not back at a
            (["a", "b", "c", "d"], [("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a"), ("ad", "a", "d")]),
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


# Reference implementations: validate_network (with _components), ring_spans and
# spans_along as they were before the one-pass rewrite, kept to check that the
# library returns the same violations, walks, paths and error texts.


def _reference_components(node_ids: set[str], edges: list[tuple[str, str]]) -> tuple[int, bool]:
    parent = {n: n for n in node_ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    has_cycle = False
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            has_cycle = True
        else:
            parent[ra] = rb
    roots = {find(n) for n in node_ids}
    return len(roots), has_cycle


def _reference_validate_network(net: Network) -> list[Violation]:
    violations: list[Violation] = []
    known = {n.id for n in net.nodes}
    if not known:
        violations.append(Violation("network", "no-nodes", "network has no nodes"))

    seen_nodes: set[str] = set()
    for node in net.nodes:
        if node.id in seen_nodes:
            violations.append(Violation(f"node:{node.id}", "duplicate-id", "node id appears more than once"))
        seen_nodes.add(node.id)

    seen_spans: set[str] = set()
    resolved_edges: list[tuple[str, str]] = []
    for span in net.spans:
        if span.id in seen_spans:
            violations.append(Violation(f"span:{span.id}", "duplicate-id", "span id appears more than once"))
        seen_spans.add(span.id)
        dangling = [n for n in (span.from_node, span.to_node) if n not in known]
        for node_id in dangling:
            violations.append(
                Violation(f"span:{span.id}", "unresolved-node", f"references unknown node {node_id!r}")
            )
        if not dangling:
            resolved_edges.append((span.from_node, span.to_node))

    degree = {n: 0 for n in known}
    for a, b in resolved_edges:
        degree[a] += 1
        degree[b] += 1

    if net.topology is Topology.RING:
        for node_id in sorted(known):
            if degree[node_id] != 2:
                violations.append(
                    Violation(
                        f"node:{node_id}",
                        "ring-degree",
                        f"ring nodes need degree exactly 2, found {degree[node_id]}",
                    )
                )
        if known:
            n_components, _ = _reference_components(known, resolved_edges)
            if n_components != 1 or len(resolved_edges) != len(known):
                violations.append(
                    Violation("network", "ring-single-cycle", "spans do not form a single closed cycle")
                )
    else:
        head = net.head_node
        if head is None or head not in known:
            violations.append(
                Violation("network", "tree-head", f"tree head node {head!r} does not resolve")
            )
        if known:
            n_components, has_cycle = _reference_components(known, resolved_edges)
            if n_components != 1:
                violations.append(
                    Violation("network", "tree-connected", f"tree must be connected, found {n_components} components")
                )
            if has_cycle:
                violations.append(Violation("network", "tree-acyclic", "tree contains a cycle"))

    violations.sort(key=lambda v: (v.element, v.rule))
    return violations


def _reference_ring_spans(net: Network) -> tuple[Span, ...]:
    if net.topology is not Topology.RING:
        raise ConfigurationError("ring traversal requested on a non-ring network")
    incident: dict[str, list[Span]] = {n.id: [] for n in net.nodes}
    known = len(incident)
    for span in net.spans:
        incident.setdefault(span.from_node, []).append(span)
        incident.setdefault(span.to_node, []).append(span)
    not_a_cycle = "network is not a valid ring: spans do not form a single closed cycle"
    if not known or len(net.nodes) != known or len(incident) != known or len(net.spans) != known:
        raise ConfigurationError(not_a_cycle)

    start = current = net.nodes[0].id
    visited = {start}
    used: set[int] = set()
    walk: list[Span] = []
    for _ in net.spans:
        options = [s for s in incident[current] if id(s) not in used]
        if not options:
            raise ConfigurationError(not_a_cycle)
        span = min(options, key=lambda s: (s.from_node != current, s.id))
        used.add(id(span))
        walk.append(span)
        current = span.to_node if span.from_node == current else span.from_node
        visited.add(current)
    if current != start or len(visited) != len(incident):
        raise ConfigurationError(not_a_cycle)
    return tuple(walk)


def _reference_spans_along(net: Network, node_ids) -> list[Span]:
    ids = list(node_ids)
    if len(ids) < 2:
        raise ConfigurationError("a path needs at least two nodes")
    known = {n.id for n in net.nodes}
    for node_id in ids:
        if node_id not in known:
            raise ConfigurationError(f"path references unknown node {node_id!r}")

    joining: dict[frozenset[str], Span] = {}
    for span in net.spans:
        key = frozenset((span.from_node, span.to_node))
        best = joining.get(key)
        if best is None or span.id < best.id:
            joining[key] = span

    path: list[Span] = []
    for a, b in zip(ids, ids[1:]):
        span = joining.get(frozenset((a, b)))
        if span is None:
            raise ConfigurationError(f"no span joins {a!r} and {b!r}")
        path.append(span)
    return path


NODE_IDS = "abcdefgh"
UNKNOWN = "x"  # never a node; ids of the pool not drawn as nodes are unknown too


@st.composite
def small_plants(draw) -> tuple[Network, list[str]]:
    """1-8 nodes (ids may repeat), 0-10 spans and a path of 2-6 ids, mostly along spans.

    The spans often start as a cycle or a tree through every distinct id, so
    that some walks, paths and validations succeed, plus extra spans that may
    be parallel or reach unknown nodes.
    """
    count = draw(st.sampled_from(range(1, 9)))  # sampled, not st.integers, for sizes spread evenly
    nodes = draw(st.lists(st.sampled_from(NODE_IDS), min_size=count, max_size=count, unique=draw(st.booleans())))
    order = draw(st.permutations(sorted(set(nodes))))
    shape = draw(st.sampled_from(["cycle", "tree", "none"]))
    pairs = []
    if shape == "cycle" and len(order) > 1:  # two distinct ids give two parallel spans
        pairs = list(zip(order, order[1:] + order[:1]))
    elif shape == "tree":
        pairs = [(draw(st.sampled_from(order[:k])), order[k]) for k in range(1, len(order))]
    ends = st.sampled_from(NODE_IDS + UNKNOWN)
    extra = st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), max_size=10 - len(pairs))
    pairs += draw(st.one_of(st.just([]), extra))
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(pairs))]
    span_ids = draw(st.lists(st.sampled_from("pqrstuvwyz"), min_size=len(pairs), max_size=len(pairs),
                             unique=draw(st.booleans())))
    net = Network(
        nodes=tuple(Node(n, n.upper()) for n in nodes),
        spans=tuple(make_span(i, a, b) for i, (a, b) in zip(span_ids, pairs)),
        topology=draw(st.sampled_from(list(Topology))),
        losses=LOSSES,
        transceiver=TRANSCEIVER,
        head=draw(st.one_of(st.none(), st.sampled_from(order + [UNKNOWN]))),  # absent, listed or unknown
    )
    path = [draw(st.sampled_from(order + [UNKNOWN]))]
    for _ in range(draw(st.sampled_from(range(1, 6)))):  # mostly stepping along a span, sometimes jumping
        near = [b if a == path[-1] else a for a, b in pairs if path[-1] in (a, b)]
        path.append(draw(st.sampled_from(near if near and draw(st.booleans()) else order + [UNKNOWN])))
    return net, path


def _outcome(fn, *args):
    """The spans ``fn`` returns, by identity, or the text of its ConfigurationError."""
    try:
        return [id(span) for span in fn(*args)]
    except ConfigurationError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, database=None)
@given(small_plants())
def test_structure_matches_the_reference(plant):
    net, path = plant
    assert validate_network(net) == _reference_validate_network(net)
    walk = _outcome(ring_spans, net)
    assert walk == _outcome(_reference_ring_spans, net)
    paths = [path, path[:1]]
    if isinstance(walk, list):
        paths.append(nodes_along(net.nodes[0].id, ring_spans(net)))
    for nodes in paths:
        assert _outcome(spans_along, net, nodes) == _outcome(_reference_spans_along, net, nodes)


@pytest.mark.parametrize("topology", list(Topology))
def test_a_plant_without_nodes_matches_the_reference(topology):
    net = Network(nodes=(), spans=(make_span("p", "a", "b"),), topology=topology, losses=LOSSES, transceiver=TRANSCEIVER)
    assert validate_network(net) == _reference_validate_network(net)
    assert _outcome(ring_spans, net) == _outcome(_reference_ring_spans, net)
    assert _outcome(spans_along, net, ["a", "b"]) == _outcome(_reference_spans_along, net, ["a", "b"])
