from __future__ import annotations

import json

import pytest

from fiberplan.model import LineCode, Topology
from fiberplan.netfile import NetworkDocument, NetworkFileError, load_network, parse_network


def test_bundled_plan_loads(sleman_doc):
    net = sleman_doc.network
    assert net.topology is Topology.RING
    assert len(net.nodes) == 7
    assert len(net.spans) == 7
    assert all(span.splices is None for span in net.spans)  # "auto" everywhere
    assert all(span.connectors == 2 for span in net.spans)  # default applies
    assert sleman_doc.distribution_loss == pytest.approx(16.67)
    assert sleman_doc.edfa_gain == 20.0
    assert sleman_doc.traffic is not None
    gains = [a.gain for s in net.spans for a in s.amplifiers]
    assert gains == [20.0, 20.0]


def test_malformed_json_reports_line_and_column(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "nodes": [,]\n}\n', encoding="utf-8")
    with pytest.raises(NetworkFileError, match=r":2:\d+"):
        load_network(bad)


def test_missing_file(tmp_path):
    with pytest.raises(NetworkFileError):
        load_network(tmp_path / "nope.json")


def test_unknown_fiber_profile_is_a_load_error(write_network):
    path = write_network(lambda doc: doc["spans"][0].update({"fiber": "mystery"}))
    with pytest.raises(NetworkFileError, match="mystery"):
        load_network(path)


def test_unknown_top_level_key_rejected(write_network):
    path = write_network(lambda doc: doc.update({"fiber_profile": {}}))
    with pytest.raises(NetworkFileError, match="fiber_profile"):
        load_network(path)


def test_unknown_span_key_rejected(write_network):
    path = write_network(lambda doc: doc["spans"][2].update({"lenght": 9.0}))
    with pytest.raises(NetworkFileError, match="lenght"):
        load_network(path)


def test_missing_required_key(write_network):
    def drop_losses(doc):
        del doc["losses"]

    with pytest.raises(NetworkFileError, match="losses"):
        load_network(write_network(drop_losses))


def test_explicit_integer_splices(write_network):
    path = write_network(lambda doc: doc["spans"][0].update({"splices": 11}))
    doc = load_network(path)
    assert doc.network.spans[0].splices == 11


def test_splices_reject_other_strings(write_network):
    path = write_network(lambda doc: doc["spans"][0].update({"splices": "some"}))
    with pytest.raises(NetworkFileError):
        load_network(path)


def test_bad_topology_value(write_network):
    path = write_network(lambda doc: doc.update({"topology": "mesh"}))
    with pytest.raises(NetworkFileError, match="mesh"):
        load_network(path)


def test_domain_violations_surface_as_file_errors(write_network):
    path = write_network(lambda doc: doc["spans"][0].update({"length": -2.0}))
    with pytest.raises(NetworkFileError, match="length"):
        load_network(path)


def test_custom_standards_parse(write_network):
    def add_standard(doc):
        doc["standards"] = {
            "lab-rz": {"bit_rate": 2.5e9, "line_code": "rz", "rx_sensitivity": -30.0, "notes": "bench"}
        }

    doc = load_network(write_network(add_standard))
    profile = doc.standards["lab-rz"]
    assert profile.line_code is LineCode.RZ
    assert profile.bit_rate == 2.5e9
    assert profile.rx_sensitivity == -30.0


def test_custom_standard_bad_line_code(write_network):
    def add_standard(doc):
        doc["standards"] = {"x": {"bit_rate": 1e9, "line_code": "manchester", "rx_sensitivity": -30.0}}

    with pytest.raises(NetworkFileError, match="manchester"):
        load_network(write_network(add_standard))


def test_numbers_must_be_numbers(write_network):
    path = write_network(lambda doc: doc["transceiver"].update({"tx_power": "9"}))
    with pytest.raises(NetworkFileError, match="tx_power"):
        load_network(path)


def test_a_document_is_a_value(write_network):
    def add_standard(doc):
        doc["standards"] = {"lab-rz": {"bit_rate": 2.5e9, "line_code": "rz", "rx_sensitivity": -30.0}}

    path = write_network(add_standard)
    doc, again = load_network(path), load_network(path)
    assert doc == again and hash(doc) == hash(again) and doc is not again
    with pytest.raises(TypeError):
        doc.traffic["population"] = 1
    with pytest.raises(TypeError):
        doc.standards["lab-rz"] = None
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert doc.traffic == raw["traffic"] and list(doc.standards) == ["lab-rz"]
    assert doc != parse_network({**raw, "traffic": {**raw["traffic"], "horizon": 6}})


def test_a_document_keeps_its_own_copy_of_a_callers_mappings(sleman_doc):
    standards, traffic = dict(sleman_doc.standards), dict(sleman_doc.traffic)
    doc = NetworkDocument(sleman_doc.network, standards, traffic, sleman_doc.distribution_loss, sleman_doc.edfa_gain)
    standards["x"], traffic["population"] = None, -1
    assert doc == sleman_doc and hash(doc) == hash(sleman_doc)
    assert doc.standards == {} and doc.traffic["population"] == 850221
