from __future__ import annotations

import json
from pathlib import Path

import pytest

from fiberplan.data import sleman_path
from fiberplan.model import ComponentLosses, FiberProfile, Network, Node, Span, Topology, TransceiverProfile
from fiberplan.netfile import load_network
from fiberplan.planning import span_row

BACKBONE_FIBER = FiberProfile(name="test-fiber", attenuation=0.3, dispersion=3.5, drum_length=3.0)

TRANSCEIVER = TransceiverProfile(
    tx_power=9.0,
    spectral_width=0.1,
    tx_rise_time=60.0,
    rx_rise_time=35.0,
    rx_sensitivity=-21.0,
    responsivity=0.9,
)

LOSSES = ComponentLosses(connector_loss=0.3, splice_loss=0.05, system_margin=3.0)


def make_span(span_id: str, a: str, b: str, length: float = 5.0, **kwargs) -> Span:
    return Span(id=span_id, from_node=a, to_node=b, length=length, fiber=BACKBONE_FIBER, **kwargs)


def plan_row(span: Span, losses: ComponentLosses = LOSSES, ceiling: float = 70.0) -> tuple:
    """The span's plan row (``span_row``) in a one-span network of ``losses`` and TRANSCEIVER."""
    network = Network(nodes=(), spans=(span,), topology=Topology.RING, losses=losses, transceiver=TRANSCEIVER)
    return span_row(span, network, ceiling)[0]


def make_ring(node_ids: list[str], lengths: list[float] | None = None) -> Network:
    lengths = lengths or [5.0] * len(node_ids)
    spans = [
        make_span(f"{i:02d}-{a}-{b}", a, b, length)
        for i, (a, b, length) in enumerate(
            zip(node_ids, node_ids[1:] + node_ids[:1], lengths), start=1
        )
    ]
    return Network(
        nodes=tuple(Node(n, n.title()) for n in node_ids),
        spans=tuple(spans),
        topology=Topology.RING,
        losses=LOSSES,
        transceiver=TRANSCEIVER,
    )


@pytest.fixture(scope="session")
def sleman_file() -> Path:
    return sleman_path()


@pytest.fixture()
def sleman_doc(sleman_file):
    return load_network(sleman_file)


@pytest.fixture()
def write_network(tmp_path):
    """Write a (possibly mutated) copy of the bundled plan and return its path."""

    def _write(mutate=None, name="net.json") -> Path:
        doc = json.loads(sleman_path().read_text(encoding="utf-8"))
        if mutate is not None:
            mutate(doc)
        out = tmp_path / name
        out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return out

    return _write
