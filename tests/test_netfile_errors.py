"""Exact error messages of the plant-file parser, and its behaviour on junk.

``CASES`` pins every error that ``parse_network`` raised before its field
readers were rewritten, plus the rejections added since at the end: one or
more edits to the bundled Sleman document, then the exception type and message
byte for byte. Cases with several faults pin which check fires first. A value
outside its field's physical range carries the range and the value; every
error is a ``NetworkFileError``. A case whose message was reworded into the
one shape-fault grammar keeps its earlier message as a last column, which
names the case, so that a case keeps its id across the rewording.
"""

from __future__ import annotations

import copy
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberplan.data import sleman_path
from fiberplan.model import Amplifier, AmplifierKind
from fiberplan.netfile import NetworkFileError, _devices, _read_amplifier, _splitter, load_network, parse_network
from fiberplan.traffic import traffic_input_from_mapping

SLEMAN = json.loads(sleman_path().read_text(encoding="utf-8"))
DROP = object()  # edit value: delete the key instead of setting it


def edited(edits) -> object:
    """A deep copy of the Sleman document with ``(path, value)`` edits applied."""
    doc = copy.deepcopy(SLEMAN)
    for path, value in edits:
        if path == ():
            return value
        target = doc
        for step in path[:-1]:
            target = target[step]
        if value is DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return doc


CASES = [
    ([((), [])], NetworkFileError,
     'top level: expected an object, got []', 'top level: expected a JSON object'),
    ([(('fiber_profile',), {})], NetworkFileError,
     "top level: unknown key(s) 'fiber_profile'"),
    ([(('zeta',), 1), (('alpha',), 2)], NetworkFileError,
     "top level: unknown key(s) 'alpha', 'zeta'"),
    ([(('topology',), DROP)], NetworkFileError,
     "top level: missing required key 'topology'"),
    ([(('topology',), 5)], NetworkFileError,
     "topology: expected 'ring' or 'tree', got 5", 'topology: expected a string, got 5'),
    ([(('topology',), 'mesh')], NetworkFileError,
     "topology: expected 'ring' or 'tree', got 'mesh'", "topology must be 'ring' or 'tree', got 'mesh'"),
    ([(('extra',), 1), (('topology',), DROP)], NetworkFileError,
     "top level: unknown key(s) 'extra'"),
    ([(('nodes',), DROP)], NetworkFileError,
     "top level: missing required key 'nodes'"),
    ([(('nodes',), {})], NetworkFileError,
     'nodes: expected a list, got {}', "'nodes' must be a list"),
    ([(('nodes', 2), 'x')], NetworkFileError,
     "nodes[2]: expected an object, got 'x'", 'nodes[2]: expected an object'),
    ([(('nodes', 1, 'label'), 'L')], NetworkFileError,
     "nodes[1]: unknown key(s) 'label'"),
    ([(('nodes', 0, 'id'), DROP)], NetworkFileError,
     "nodes[0]: missing required key 'id'"),
    ([(('nodes', 3, 'id'), 7)], NetworkFileError,
     'nodes[3].id: expected a string, got 7'),
    ([(('nodes', 4, 'name'), None)], NetworkFileError,
     'nodes[4].name: expected a string, got None'),
    ([(('head',), 3)], NetworkFileError,
     'head: expected a string, got 3'),
    ([(('traffic',), [])], NetworkFileError,
     'traffic: expected an object, got []', "'traffic' must be an object"),
    ([(('spans',), DROP)], NetworkFileError,
     "top level: missing required key 'spans'"),
    ([(('spans',), 'x')], NetworkFileError,
     "spans: expected a list, got 'x'", "'spans' must be a list"),
    ([(('fiber_profiles',), DROP)], NetworkFileError,
     "top level: missing required key 'fiber_profiles'"),
    ([(('fiber_profiles',), [])], NetworkFileError,
     'fiber_profiles: expected an object, got []', "'fiber_profiles' must map profile names to objects"),
    ([(('fiber_profiles', 'g652-backbone'), 1)], NetworkFileError,
     "fiber_profiles['g652-backbone']: expected an object, got 1",
     "fiber_profiles['g652-backbone']: expected an object"),
    ([(('fiber_profiles', 'g652-backbone', 'loss'), 1)], NetworkFileError,
     "fiber_profiles['g652-backbone']: unknown key(s) 'loss'"),
    ([(('fiber_profiles', 'g652-backbone', 'attenuation'), DROP)], NetworkFileError,
     "fiber_profiles['g652-backbone']: missing required key 'attenuation'"),
    ([(('fiber_profiles', 'g652-backbone', 'attenuation'), '0.3')], NetworkFileError,
     "fiber_profiles['g652-backbone'].attenuation: expected a number, got '0.3'"),
    ([(('fiber_profiles', 'g652-backbone', 'attenuation'), 0)], NetworkFileError,
     "fiber 'g652-backbone': attenuation must be in (0, 1000] dB/km, got 0.0"),
    ([(('fiber_profiles', 'g984-distribution', 'dispersion'), -1)], NetworkFileError,
     "fiber 'g984-distribution': dispersion must be in [0, 1000] ps/(nm km), got -1.0"),
    ([(('fiber_profiles', 'g652-backbone', 'drum_length'), DROP)], NetworkFileError,
     "fiber_profiles['g652-backbone']: missing required key 'drum_length'"),
    ([(('spans', 0), 3)], NetworkFileError,
     'spans[0]: expected an object, got 3', 'spans: each entry must be an object'),
    ([(('spans', 0, 'id'), DROP)], NetworkFileError,
     "spans[0]: missing required key 'id'", "span: missing required key 'id'"),
    ([(('spans', 3, 'id'), 12)], NetworkFileError,
     'spans[3].id: expected a string, got 12', 'span.id: expected a string, got 12'),
    ([(('spans', 1, 'lenght'), 9.0)], NetworkFileError,
     "span '02-tempel-pakem': unknown key(s) 'lenght'"),
    ([(('spans', 1, 'b'), 1), (('spans', 1, 'a'), 2)], NetworkFileError,
     "span '02-tempel-pakem': unknown key(s) 'a', 'b'"),
    ([(('spans', 0, 'fiber'), DROP)], NetworkFileError,
     "span '01-seyegan-tempel': missing required key 'fiber'"),
    ([(('spans', 0, 'fiber'), 3)], NetworkFileError,
     "span '01-seyegan-tempel'.fiber: expected a string, got 3"),
    ([(('spans', 0, 'fiber'), 'mystery')], NetworkFileError,
     "span '01-seyegan-tempel': unknown fiber profile 'mystery'"),
    ([(('spans', 0, 'splices'), 'some')], NetworkFileError,
     "span '01-seyegan-tempel'.splices: expected an integer, got 'some'"),
    ([(('spans', 0, 'splices'), 2.5)], NetworkFileError,
     "span '01-seyegan-tempel'.splices: expected an integer, got 2.5"),
    ([(('spans', 0, 'splices'), True)], NetworkFileError,
     "span '01-seyegan-tempel'.splices: expected an integer, got True"),
    ([(('spans', 0, 'splices'), -1)], NetworkFileError,
     "span '01-seyegan-tempel': splices must be in [0, 1e+06], got -1"),
    ([(('spans', 1, 'amplifiers'), [5])], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0]: expected an object, got 5",
     "span '02-tempel-pakem'.amplifiers[0]: expected an object"),
    ([(('spans', 1, 'amplifiers', 0, 'colour'), 'red')], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0]: unknown key(s) 'colour'"),
    ([(('spans', 1, 'amplifiers', 0, 'kind'), 'raman')], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0].kind: expected 'edfa', got 'raman'",
     "span '02-tempel-pakem'.amplifiers[0]: unknown amplifier kind 'raman'"),
    ([(('spans', 1, 'amplifiers', 0, 'kind'), [])], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0].kind: expected 'edfa', got []",
     "span '02-tempel-pakem'.amplifiers[0]: unknown amplifier kind []"),
    ([(('spans', 1, 'amplifiers', 0, 'gain'), DROP)], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0]: missing required key 'gain'"),
    ([(('spans', 1, 'amplifiers', 0, 'gain'), '20')], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0].gain: expected a number, got '20'"),
    ([(('spans', 1, 'amplifiers', 0, 'gain'), 0)], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0]: amplifier gain must be in [0.01, 100] dB, got 0.0"),
    ([(('spans', 0, 'splitters'), [8, 3])], NetworkFileError,
     "span '01-seyegan-tempel'.splitters[1]: splitter ratio must be a power of two in [2, 1024], got 3"),
    ([(('spans', 0, 'splitters'), ['8'])], NetworkFileError,
     "span '01-seyegan-tempel'.splitters[0]: expected an integer, got '8'"),
    ([(('spans', 0, 'splitters'), [True])], NetworkFileError,
     "span '01-seyegan-tempel'.splitters[0]: expected an integer, got True"),
    ([(('spans', 0, 'from'), DROP)], NetworkFileError,
     "span '01-seyegan-tempel': missing required key 'from'"),
    ([(('spans', 0, 'from'), 1)], NetworkFileError,
     "span '01-seyegan-tempel'.from: expected a string, got 1"),
    ([(('spans', 0, 'to'), DROP)], NetworkFileError,
     "span '01-seyegan-tempel': missing required key 'to'"),
    ([(('spans', 0, 'to'), None)], NetworkFileError,
     "span '01-seyegan-tempel'.to: expected a string, got None"),
    ([(('spans', 0, 'length'), DROP)], NetworkFileError,
     "span '01-seyegan-tempel': missing required key 'length'"),
    ([(('spans', 0, 'length'), '10')], NetworkFileError,
     "span '01-seyegan-tempel'.length: expected a number, got '10'"),
    ([(('spans', 0, 'length'), -2.0)], NetworkFileError,
     "span '01-seyegan-tempel': length must be in (0, 100000] km, got -2.0"),
    ([(('spans', 0, 'length'), 0)], NetworkFileError,
     "span '01-seyegan-tempel': length must be in (0, 100000] km, got 0.0"),
    ([(('spans', 0, 'connectors'), 1.5)], NetworkFileError,
     "span '01-seyegan-tempel'.connectors: expected an integer, got 1.5"),
    ([(('spans', 0, 'connectors'), -1)], NetworkFileError,
     "span '01-seyegan-tempel': connectors must be in [0, 1e+06], got -1"),
    ([(('spans', 0, 'to'), 'seyegan')], NetworkFileError,
     "span '01-seyegan-tempel': from_node and to_node must differ"),
    ([(('spans', 0, 'x'), 1), (('spans', 0, 'fiber'), DROP)], NetworkFileError,
     "span '01-seyegan-tempel': unknown key(s) 'x'"),
    ([(('spans', 0, 'fiber'), 'mystery'), (('spans', 0, 'splices'), 'some')], NetworkFileError,
     "span '01-seyegan-tempel': unknown fiber profile 'mystery'"),
    ([(('spans', 0, 'splices'), 'some'), (('spans', 0, 'amplifiers'), [5])], NetworkFileError,
     "span '01-seyegan-tempel'.splices: expected an integer, got 'some'"),
    ([(('spans', 0, 'amplifiers'), [5]), (('spans', 0, 'splitters'), ['8'])], NetworkFileError,
     "span '01-seyegan-tempel'.amplifiers[0]: expected an object, got 5",
     "span '01-seyegan-tempel'.amplifiers[0]: expected an object"),
    ([(('spans', 0, 'splitters'), [3, '8'])], NetworkFileError,
     "span '01-seyegan-tempel'.splitters[0]: splitter ratio must be a power of two in [2, 1024], got 3"),
    ([(('spans', 0, 'splitters'), ['8']), (('spans', 0, 'from'), 1)], NetworkFileError,
     "span '01-seyegan-tempel'.splitters[0]: expected an integer, got '8'"),
    ([(('spans', 0, 'from'), 1), (('spans', 0, 'to'), 2)], NetworkFileError,
     "span '01-seyegan-tempel'.from: expected a string, got 1"),
    ([(('spans', 0, 'to'), 2), (('spans', 0, 'length'), 'x')], NetworkFileError,
     "span '01-seyegan-tempel'.to: expected a string, got 2"),
    ([(('spans', 0, 'length'), 'x'), (('spans', 0, 'connectors'), 'x')], NetworkFileError,
     "span '01-seyegan-tempel'.length: expected a number, got 'x'"),
    ([(('spans', 0, 'length'), -1), (('spans', 0, 'connectors'), -1)], NetworkFileError,
     "span '01-seyegan-tempel': length must be in (0, 100000] km, got -1.0"),
    ([(('spans', 1, 'amplifiers', 0, 'gain'), '20'), (('spans', 1, 'amplifiers', 0, 'kind'), 'raman')], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0].kind: expected 'edfa', got 'raman'",
     "span '02-tempel-pakem'.amplifiers[0]: unknown amplifier kind 'raman'"),
    ([(('spans', 3, 'length'), -1), (('spans', 2, 'fiber'), 'mystery')], NetworkFileError,
     "span '03-pakem-ngemplak': unknown fiber profile 'mystery'"),
    ([(('losses',), DROP)], NetworkFileError,
     "top level: missing required key 'losses'"),
    ([(('losses',), 5)], NetworkFileError,
     'losses: expected an object, got 5', 'losses: expected an object'),
    ([(('losses', 'bend_loss'), 0.1)], NetworkFileError,
     "losses: unknown key(s) 'bend_loss'"),
    ([(('losses', 'connector_loss'), DROP)], NetworkFileError,
     "losses: missing required key 'connector_loss'"),
    ([(('losses', 'splice_loss'), 'x')], NetworkFileError,
     "losses.splice_loss: expected a number, got 'x'"),
    ([(('losses', 'splitter_excess_loss'), None)], NetworkFileError,
     'losses.splitter_excess_loss: expected a number, got None'),
    ([(('losses', 'system_margin'), -1)], NetworkFileError,
     'losses: system_margin must be in [0, 100] dB, got -1.0'),
    ([(('transceiver',), DROP)], NetworkFileError,
     "top level: missing required key 'transceiver'"),
    ([(('transceiver',), [])], NetworkFileError,
     'transceiver: expected an object, got []', 'transceiver: expected an object'),
    ([(('transceiver', 'power'), 1)], NetworkFileError,
     "transceiver: unknown key(s) 'power'"),
    ([(('transceiver', 'tx_power'), DROP)], NetworkFileError,
     "transceiver: missing required key 'tx_power'"),
    ([(('transceiver', 'tx_power'), DROP), (('transceiver', 'responsivity'), DROP)], NetworkFileError,
     "transceiver: missing required key 'responsivity'"),
    ([(('transceiver', 'tx_power'), '9')], NetworkFileError,
     "transceiver.tx_power: expected a number, got '9'"),
    ([(('transceiver', 'tx_power'), True)], NetworkFileError,
     'transceiver.tx_power: expected a number, got True'),
    ([(('transceiver', 'responsivity'), 0)], NetworkFileError,
     'transceiver: responsivity must be in (0, 10] A/W, got 0.0'),
    ([(('transceiver', 'tx_rise_time'), -1)], NetworkFileError,
     'transceiver: tx_rise_time must be in (0, 1e+06] ps, got -1.0'),
    ([(('losses', 'splice_loss'), 'x'), (('spans', 0, 'length'), 'x')], NetworkFileError,
     "span '01-seyegan-tempel'.length: expected a number, got 'x'"),
    ([(('transceiver', 'tx_power'), 'x'), (('losses', 'splice_loss'), 'x')], NetworkFileError,
     "losses.splice_loss: expected a number, got 'x'"),
    ([(('spans',), 'x'), (('fiber_profiles',), [])], NetworkFileError,
     "spans: expected a list, got 'x'", "'spans' must be a list"),
    ([(('nodes', 0, 'id'), 1), (('head',), 3)], NetworkFileError,
     'nodes[0].id: expected a string, got 1'),
    ([(('traffic',), []), (('spans',), 'x')], NetworkFileError,
     'traffic: expected an object, got []', "'traffic' must be an object"),
    ([(('topology',), 'mesh'), (('nodes',), {})], NetworkFileError,
     "topology: expected 'ring' or 'tree', got 'mesh'", "topology must be 'ring' or 'tree', got 'mesh'"),
    ([(('standards',), []), (('edfa_gain',), 'x')], NetworkFileError,
     'standards: expected an object, got []', "'standards' must map profile names to objects"),
    ([(('distribution_loss',), 'x'), (('edfa_gain',), 'x')], NetworkFileError,
     "distribution_loss: expected a number, got 'x'"),
    ([(('standards',), [])], NetworkFileError,
     'standards: expected an object, got []', "'standards' must map profile names to objects"),
    ([(('standards',), {'x': 1})], NetworkFileError,
     "standards['x']: expected an object, got 1", "standards['x']: expected an object"),
    ([(('standards',), {'x': {'bit_rate': 1000000000.0, 'line_code': 'nrz', 'rx_sensitivity': -30.0, 'rate': 1}})], NetworkFileError,
     "standards['x']: unknown key(s) 'rate'"),
    ([(('standards',), {'x': {'bit_rate': 1000000000.0, 'rx_sensitivity': -30.0}})], NetworkFileError,
     "standards['x']: missing required key 'line_code'"),
    ([(('standards',), {'x': {'bit_rate': 1000000000.0, 'line_code': 3, 'rx_sensitivity': -30.0}})], NetworkFileError,
     "standards['x'].line_code: expected 'nrz' or 'rz', got 3", "standards['x'].line_code: expected a string, got 3"),
    ([(('standards',), {'x': {'bit_rate': 1000000000.0, 'line_code': 'manchester', 'rx_sensitivity': -30.0}})], NetworkFileError,
     "standards['x'].line_code: expected 'nrz' or 'rz', got 'manchester'",
     "standards['x']: line_code must be 'nrz' or 'rz', got 'manchester'"),
    ([(('standards',), {'x': {'line_code': 'nrz', 'rx_sensitivity': -30.0}})], NetworkFileError,
     "standards['x']: missing required key 'bit_rate'"),
    ([(('standards',), {'x': {'bit_rate': '1e9', 'line_code': 'nrz', 'rx_sensitivity': -30.0}})], NetworkFileError,
     "standards['x'].bit_rate: expected a number, got '1e9'"),
    ([(('standards',), {'x': {'bit_rate': 0, 'line_code': 'nrz', 'rx_sensitivity': -30.0}})], NetworkFileError,
     "standard 'x': bit_rate must be in [1, 1e+15] b/s, got 0.0"),
    ([(('standards',), {'x': {'bit_rate': 1000000000.0, 'line_code': 'nrz'}})], NetworkFileError,
     "standards['x']: missing required key 'rx_sensitivity'"),
    ([(('standards',), {'x': {'bit_rate': 1000000000.0, 'line_code': 'nrz', 'rx_sensitivity': -30.0, 'notes': 5}})], NetworkFileError,
     "standards['x'].notes: expected a string, got 5"),
    ([(('distribution_loss',), '16')], NetworkFileError,
     "distribution_loss: expected a number, got '16'"),
    ([(('edfa_gain',), None)], NetworkFileError,
     'edfa_gain: expected a number, got None'),
    ([(('distribution_loss',), -5)], NetworkFileError,
     'distribution_loss must be in [0, 100] dB, got -5.0'),
    ([(('spans', 0, 'fiber'), ['g652-backbone'])], NetworkFileError,
     "span '01-seyegan-tempel'.fiber: expected a string, got ['g652-backbone']"),
    ([(('spans', 0, 'fiber'), {'a': 1})], NetworkFileError,
     "span '01-seyegan-tempel'.fiber: expected a string, got {'a': 1}"),
    ([(('spans', 0, 'length'), True)], NetworkFileError,
     "span '01-seyegan-tempel'.length: expected a number, got True"),
    ([(('spans', 0, 'connectors'), True)], NetworkFileError,
     "span '01-seyegan-tempel'.connectors: expected an integer, got True"),
    ([(('spans', 0, 'splices'), 'AUTO')], NetworkFileError,
     "span '01-seyegan-tempel'.splices: expected an integer, got 'AUTO'"),
    ([(('spans', 0, 'id'), ['x'])], NetworkFileError,
     "spans[0].id: expected a string, got ['x']", "span.id: expected a string, got ['x']"),
    ([(('nodes', 0, 'name'), ['x'])], NetworkFileError,
     "nodes[0].name: expected a string, got ['x']"),
    # traffic is read at load for every command; its ranges wait for forecast, whose flags may fill gaps
    ([(('traffic', 'foo'), 1)], NetworkFileError,
     "traffic: unknown key(s) 'foo'"),
    ([(('traffic', 'population'), 'many')], NetworkFileError,
     "traffic.population: expected an integer, got 'many'"),
    ([(('traffic', 'horizon'), 2.5), (('traffic', 'population'), 'many')], NetworkFileError,
     "traffic.population: expected an integer, got 'many'"),
    ([(('spans', 2), None)], NetworkFileError,
     'spans[2]: expected an object, got None'),
    # a library caller's document may hold keys JSON cannot: unknown keys of mixed types sort by their text
    ([(('nodes', 0, 3), 1), (('nodes', 0, 'label'), 'L')], NetworkFileError,
     "nodes[0]: unknown key(s) 3, 'label'"),
    # device entries, read inline on the common path and by the field readers when a test fails
    ([(('spans', 1, 'amplifiers', 0, 'gain'), math.nan)], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0].gain: expected a finite number, got nan"),
    ([(('spans', 1, 'amplifiers', 0, 'gain'), True)], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0].gain: expected a number, got True"),
    ([(('spans', 1, 'amplifiers', 0, 'gain'), 100.5)], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[0]: amplifier gain must be in [0.01, 100] dB, got 100.5"),
    ([(('spans', 1, 'amplifiers'), [{'gain': 20.0, 'kind': 'edfa'}, {'gain': 20.0, 'kind': 'raman'}])], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[1].kind: expected 'edfa', got 'raman'"),
    ([(('spans', 1, 'amplifiers'), [{'gain': 20.0}, {'gain': '20'}])], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers[1].gain: expected a number, got '20'"),
    ([(('spans', 1, 'amplifiers'), {'gain': 20.0, 'kind': 'edfa'})], NetworkFileError,
     "span '02-tempel-pakem'.amplifiers: expected a list, got {'gain': 20.0, 'kind': 'edfa'}"),
    ([(('spans', 0, 'splitters'), {'ratio': 8})], NetworkFileError,
     "span '01-seyegan-tempel'.splitters: expected a list, got {'ratio': 8}"),
    ([(('spans', 0, 'splitters'), [1])], NetworkFileError,
     "span '01-seyegan-tempel'.splitters[0]: splitter ratio must be a power of two in [2, 1024], got 1"),
    ([(('spans', 0, 'splitters'), [2048])], NetworkFileError,
     "span '01-seyegan-tempel'.splitters[0]: splitter ratio must be a power of two in [2, 1024], got 2048"),
    ([(('spans', 0, 'splitters'), [4.0])], NetworkFileError,
     "span '01-seyegan-tempel'.splitters[0]: expected an integer, got 4.0"),
    ([(('nodes',), [{'id': 'seyegan', 'name': 'Seyegan'}, {'id': 'seyegan', 'name': 'Seyegan'}, 5])], NetworkFileError,
     'nodes[2]: expected an object, got 5'),
]


@pytest.mark.parametrize(
    "edits, error, message",
    [
        pytest.param(edits, error, message, id=f"edits{i}-{error.__name__}-{was[0]}") if was else (edits, error, message)
        for i, (edits, error, message, *was) in enumerate(CASES)
    ],
)
def test_error_message_is_unchanged(edits, error, message):
    with pytest.raises(error) as info:
        parse_network(edited(edits))
    assert type(info.value) is error
    assert str(info.value) == message


S0, S1 = ("spans", 0), ("spans", 1)
AMP = ("spans", 1, "amplifiers", 0)
LAB = {"bit_rate": 1e9, "line_code": "nrz", "rx_sensitivity": -30.0}

NEW_REJECTIONS = [
    # non-finite numbers, wherever a number is read
    ([(S0 + ("length",), math.nan)], "span '01-seyegan-tempel'.length: expected a finite number, got nan"),
    ([(S0 + ("length",), math.inf)], "span '01-seyegan-tempel'.length: expected a finite number, got inf"),
    ([(S0 + ("length",), 10**400)], f"span '01-seyegan-tempel'.length: expected a finite number, got {10**400}"),
    ([(("fiber_profiles", "g652-backbone", "attenuation"), math.inf)],
     "fiber_profiles['g652-backbone'].attenuation: expected a finite number, got inf"),
    ([(AMP + ("gain",), -math.inf)], "span '02-tempel-pakem'.amplifiers[0].gain: expected a finite number, got -inf"),
    ([(("transceiver", "tx_power"), math.nan)], "transceiver.tx_power: expected a finite number, got nan"),
    ([(("losses", "splitter_excess_loss"), math.nan)],
     "losses.splitter_excess_loss: expected a finite number, got nan"),
    ([(("standards",), {"lab": {**LAB, "bit_rate": math.nan}})],
     "standards['lab'].bit_rate: expected a finite number, got nan"),
    ([(("distribution_loss",), -math.inf)], "distribution_loss: expected a finite number, got -inf"),
    ([(("edfa_gain",), math.nan)], "edfa_gain: expected a finite number, got nan"),
    # wrong container types
    ([(S1 + ("amplifiers",), 5)], "span '02-tempel-pakem'.amplifiers: expected a list, got 5"),
    ([(S1 + ("amplifiers",), {})], "span '02-tempel-pakem'.amplifiers: expected a list, got {}"),
    ([(S0 + ("splitters",), 3)], "span '01-seyegan-tempel'.splitters: expected a list, got 3"),
    ([(S0 + ("splitters",), None)], "span '01-seyegan-tempel'.splitters: expected a list, got None"),
    # counts far outside their range, even the float range
    ([(S0 + ("connectors",), 10**400)], f"span '01-seyegan-tempel': connectors must be in [0, 1e+06], got {10**400}"),
    ([(S1 + ("splices",), -(10**400))], f"span '02-tempel-pakem': splices must be in [0, 1e+06], got {-(10**400)}"),
    # a bit rate so small that its rise-time ceiling (0.7 bit periods) would be inf
    ([(("standards",), {"tiny": {**LAB, "bit_rate": 1e-320}})], "standard 'tiny': bit_rate must be in [1, 1e+15] b/s, got 1e-320"),
]


@pytest.mark.parametrize("edits, message", NEW_REJECTIONS)
def test_non_finite_numbers_and_wrong_containers_are_file_errors(edits, message):
    with pytest.raises(NetworkFileError) as info:
        parse_network(edited(edits))
    assert str(info.value) == message


def test_amplifier_without_a_kind_is_an_edfa():
    doc = parse_network(edited([(AMP + ("kind",), DROP)]))
    assert doc.network.spans[1].amplifiers == (Amplifier(20.0, AmplifierKind.EDFA),)


def test_integral_numbers_still_read_as_floats():
    doc = parse_network(edited([(S0 + ("length",), 10), (("edfa_gain",), 17)]))
    assert doc.network.spans[0].length == 10.0 and type(doc.network.spans[0].length) is float
    assert doc.edfa_gain == 17.0


def test_non_utf8_file_is_a_file_error(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"notes": "Sléman"}'.encode("latin-1"))
    with pytest.raises(NetworkFileError, match=r"latin1\.json: not UTF-8 text: invalid continuation byte at byte 13"):
        load_network(bad)


@pytest.mark.parametrize("path", [3, b"sleman.json"])
def test_a_path_that_is_not_text_is_a_type_error(path):
    """An int is never read as a file descriptor."""
    with pytest.raises(TypeError, match="os.PathLike"):
        load_network(path)


def test_a_missing_file_is_named_as_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(NetworkFileError, match=r"^\./missing\.json: No such file or directory$"):
        load_network("./missing.json")


def test_deeply_nested_json_is_a_file_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"notes": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    with pytest.raises(NetworkFileError, match=r"deep\.json: JSON nested too deeply"):
        load_network(deep)


def test_overlong_integer_literal_is_a_file_error(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"edfa_gain": ' + "1" * 5000 + "}", encoding="utf-8")
    with pytest.raises(NetworkFileError, match=r"big\.json: Exceeds the limit"):
        load_network(big)


class TestTrafficBlock:
    def test_fractional_population_is_rejected(self):
        traffic = {**SLEMAN["traffic"], "population": 850221.9}
        with pytest.raises(NetworkFileError, match=r"^traffic\.population: expected an integer, got 850221\.9$"):
            traffic_input_from_mapping(traffic)

    def test_boolean_horizon_is_rejected(self):
        traffic = {**SLEMAN["traffic"], "horizon": True}
        with pytest.raises(NetworkFileError, match=r"^traffic\.horizon: expected an integer, got True$"):
            traffic_input_from_mapping(traffic)

    def test_numeric_strings_are_not_coerced(self):
        traffic = {**SLEMAN["traffic"], "annual_growth": "0.051"}
        with pytest.raises(NetworkFileError, match=r"^traffic\.annual_growth: expected a number, got '0\.051'$"):
            traffic_input_from_mapping(traffic)

    def test_non_finite_rate_is_rejected(self):
        traffic = {**SLEMAN["traffic"], "operator_share": math.nan}
        with pytest.raises(NetworkFileError, match=r"^traffic\.operator_share: expected a finite number, got nan$"):
            traffic_input_from_mapping(traffic)

    def test_first_missing_key_is_named(self):
        traffic = {k: v for k, v in SLEMAN["traffic"].items() if k not in ("operator_share", "horizon")}
        with pytest.raises(NetworkFileError, match=r"^traffic: missing required key 'operator_share'$"):
            traffic_input_from_mapping(traffic)

    def test_ranges_and_missing_keys_wait_for_the_forecast(self):
        doc = parse_network(edited([(("traffic",), {"population": -1, "horizon": 10**9})]))
        assert doc.traffic == {"population": -1, "horizon": 10**9}

    def test_document_keeps_its_own_traffic(self):
        raw = edited([])
        doc = parse_network(raw)
        raw["traffic"]["population"] += 1
        assert doc.traffic == SLEMAN["traffic"]

    def test_integral_rates_are_accepted(self):
        inputs = traffic_input_from_mapping({**SLEMAN["traffic"], "cellular_penetration": 1})
        assert inputs.cellular_penetration == 1.0


# --- property: junk anywhere in the document is an input error, never a crash

def _paths(node, prefix=()):
    """Every path into the document: dict keys and list indices."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


PATHS = list(_paths(SLEMAN))[1:]
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "auto", "edfa", "nrz", "ring", "tree", "seyegan", "g652-backbone"]),
    st.text(max_size=4),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.just([]),
    st.just({}),
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["id", "gain", "kind", "x"]), JSON_SCALARS, max_size=2),
)
EDIT = st.tuples(st.sampled_from(PATHS), st.one_of(JSON_VALUES, st.just(DROP)))


def _apply_loosely(edits):
    """Apply edits, skipping those whose path an earlier edit removed or retyped."""
    doc = copy.deepcopy(SLEMAN)
    for path, value in edits:
        target = doc
        try:
            for step in path[:-1]:
                target = target[step]
            if value is DROP:
                del target[path[-1]]
            else:
                target[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue
    return doc


# Every message has one of these forms; a place may itself hold ": ", so each is matched on its end.
EXPECTED = "|".join(["a number", "a finite number", "an integer", "a string", "an object", "a list",
                     "'ring' or 'tree'", "'nrz' or 'rz'", "'edfa'"])
MESSAGE_FORMS = re.compile("|".join([
    rf".+: expected ({EXPECTED}), got .+",  # a shape fault: a wrong value, object or container
    r".+: missing required key '\w+'",
    r".+: unknown key\(s\) .+",
    r"span .+: unknown fiber profile .+",
    r".+ must be in [\[(]\S+, \S+\]( [^,]+)?, got .+",  # a value class's range, with its unit
    r".+: splitter ratio must be a power of two in \[2, 1024\], got .+",
    r"span .+: from_node and to_node must differ",
]), re.DOTALL)


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(EDIT, min_size=1, max_size=3))
@example([(("nodes",), {})])
@example([(("nodes", 2), "x")])
@example([(("spans",), "x")])
@example([(("spans", 3), 3)])
@example([(("traffic",), [])])
@example([(("fiber_profiles",), [])])
@example([(("fiber_profiles", "g652-backbone"), 1)])
@example([(("standards",), [])])
@example([(("spans", 1, "amplifiers", 0), 5)])
@example([(("spans", 1, "amplifiers", 0, "kind"), "raman")])
@example([(("topology",), "mesh")])
def test_junk_is_an_input_error_never_a_crash(edits):
    try:
        parse_network(_apply_loosely(edits))
    except NetworkFileError as exc:
        assert MESSAGE_FORMS.fullmatch(str(exc)), str(exc)


# --- property: device entries read inline match the field readers, value for value and fault for fault

GAINS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.01, max_value=100.0),
    st.integers(min_value=-5, max_value=200),
    st.booleans(),
    st.sampled_from(["20", ""]),
)
KINDS = st.one_of(
    st.sampled_from(["edfa", "EDFA", "raman", "", AmplifierKind.EDFA]),
    st.text(max_size=4),
    st.integers(),
    st.none(),
    st.booleans(),
    st.just([]),
)
AMPLIFIERS = st.one_of(
    st.fixed_dictionaries({}, optional={"gain": GAINS, "kind": KINDS, "colour": st.just("red")}),
    st.integers(max_value=3),
    st.none(),
)
RATIOS = st.one_of(
    st.sampled_from([2**k for k in range(12)]),
    st.integers(min_value=-3, max_value=3000),
    st.booleans(),
    st.floats(min_value=1.0, max_value=2048.0),
    st.sampled_from(["8", None]),
)


def _listed(entries):
    """A list of ``entries``, or (as a library caller may pass) a tuple."""
    return st.one_of(st.lists(entries, max_size=3), st.lists(entries, min_size=1, max_size=2).map(tuple))


def _one_span(amplifiers, splitters) -> dict:
    span = {"id": "s", "from": "a", "to": "b", "length": 10.0, "fiber": "g652-backbone",
            "amplifiers": amplifiers, "splitters": splitters}
    return {key: SLEMAN[key] for key in ("fiber_profiles", "transceiver", "losses")} | {
        "topology": "tree", "nodes": [{"id": "a"}, {"id": "b"}], "spans": [span]}


@settings(max_examples=500, deadline=None, database=None)
@given(_listed(AMPLIFIERS), _listed(RATIOS))
@example([{"gain": 20}], [8])
@example([{"gain": 20.0, "kind": AmplifierKind.EDFA}], (8,))
@example([{"gain": 20.0}, {"gain": 20.0, "kind": "raman"}], [])
@example([], [8, 4.0])
@example([{"gain": math.nan}], [])
def test_devices_read_inline_match_the_field_readers(amplifiers, splitters):
    try:
        want = (_devices(amplifiers, "s", "amplifiers", _read_amplifier), _devices(splitters, "s", "splitters", _splitter))
    except NetworkFileError as exc:
        with pytest.raises(NetworkFileError) as info:
            parse_network(_one_span(amplifiers, splitters))
        assert str(info.value) == str(exc)
    else:
        span = parse_network(_one_span(amplifiers, splitters)).network.spans[0]
        got = (span.amplifiers, span.splitters)
        assert got == want and repr(got) == repr(want)  # repr tells an integer gain from its float
