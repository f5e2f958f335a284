"""The ``frozen`` value classes: construction, equality, hashing, repr, immutability, slots, copying.

Every value class of the package is checked against a frozen dataclass built
from the same fields, the behaviour these classes had before they stopped
using ``dataclasses``.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import subprocess
import sys
from importlib import import_module

import pytest

from fiberplan.data import sleman_path
from fiberplan.model import (
    Amplifier, AmplifierKind, ComponentLosses, DomainError, Network, Span, Splitter, ValidationFailure, Violation,
    check_valid, validate_network,
)
from fiberplan.netfile import DEFAULT_EDFA_GAIN, NetworkDocument, load_network
from fiberplan.planning import PlanReport, run_plan, span_row, verdict_table
from fiberplan.signal_chain import PowerTrace, run_trace
from fiberplan.standards import StandardProfile
from fiberplan.traffic import forecast_subscribers, traffic_input_from_mapping

from conftest import BACKBONE_FIBER, make_span

MODULES = ("model", "netfile", "planning", "power_budget", "risetime", "signal_chain", "standards", "traffic")

VALUE_CLASSES = sorted(
    (
        obj
        for name in MODULES
        for obj in vars(import_module(f"fiberplan.{name}")).values()
        if isinstance(obj, type) and obj.__module__ == f"fiberplan.{name}" and "_fields" in vars(obj)
    ),
    key=lambda cls: (cls.__module__, cls.__qualname__),
)

DEFAULTS = {
    ComponentLosses: {"splitter_excess_loss": 0.0},
    Amplifier: {"kind": AmplifierKind.EDFA},
    Span: {"connectors": 2, "splices": None, "amplifiers": (), "splitters": ()},
    Network: {"head": None},
    StandardProfile: {"notes": ""},
    NetworkDocument: {"traffic": None, "distribution_loss": 0.0, "edfa_gain": DEFAULT_EDFA_GAIN},
}


def _harvest() -> dict[type, object]:
    """One instance of every value class, taken from real results on the Sleman ring."""
    doc = load_network(sleman_path())
    report = run_plan(doc, "gpon-onu-endpoint")
    trace, ber = run_trace(doc, with_ber=True)
    inputs = traffic_input_from_mapping(doc.traffic)
    roots = [
        doc, report, report.verdicts, trace, ber, inputs, forecast_subscribers(inputs),
        [a for span in doc.network.spans for a in span.amplifiers], Splitter(4),
        Violation("network", "no-nodes", "network has no nodes"),
        span_row(doc.network.spans[0], doc.network, 70.0),
    ]
    found: dict[type, object] = {}

    def walk(value: object) -> None:
        if isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif "_fields" in vars(type(value)) and type(value) not in found:
            found[type(value)] = value
            for name in type(value)._fields:
                walk(getattr(value, name))

    walk(roots)
    return found


SAMPLES = _harvest()


def test_every_value_class_is_frozen_and_sampled():
    assert len(VALUE_CLASSES) == 18
    assert set(SAMPLES) == set(VALUE_CLASSES)


def _reference(cls: type, values: list[object]) -> object:
    """The frozen dataclass these values would have made."""
    ref_cls = dataclasses.make_dataclass(cls.__name__, list(cls._fields), frozen=True)
    ref_cls.__qualname__ = cls.__qualname__
    return ref_cls(*values)


def _hash_or_error(value: object) -> object:
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__qualname__)
def test_value_class_behaves_like_a_frozen_dataclass(cls):
    obj = SAMPLES[cls]
    names = cls._fields
    values = [getattr(obj, name) for name in names]
    assert names == tuple(vars(cls).get("__annotations__", ()))

    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for made in (by_position, by_keyword):
        assert made == obj and not made != obj
        assert [getattr(made, name) for name in names] == values

    assert obj != object() and obj.__eq__(object()) is NotImplemented
    assert repr(obj) == repr(_reference(cls, values))
    hashed = _hash_or_error(obj)
    assert (hashed is TypeError) == (_hash_or_error(_reference(cls, values)) is TypeError)
    if hashed is not TypeError:
        assert hash(by_position) == hashed

    defaults = DEFAULTS.get(cls, {})
    required = {name: getattr(obj, name) for name in names if name not in defaults}
    bare = cls(**required)
    assert {name: getattr(bare, name) for name in defaults} == defaults
    if required:
        with pytest.raises(TypeError):
            cls(*list(required.values())[:-1])

    for name in (*names[:1], "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert [getattr(obj, name) for name in names] == values


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__qualname__)
def test_copy_and_pickle_give_an_equal_value(cls):
    obj = SAMPLES[cls]
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj
        assert repr(twin) == repr(obj)
        if cls is Network:  # the node-name index is rebuilt, not copied
            assert twin.node_name("seyegan") == "Seyegan"


NON_FIELD_SLOTS = {Network: ("_names", "_violations"), PlanReport: ("_table",)}


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__qualname__)
def test_fields_live_in_slots(cls):
    assert cls.__slots__ == cls._fields + NON_FIELD_SLOTS.get(cls, ())
    assert not hasattr(SAMPLES[cls], "__dict__")


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__qualname__)
def test_every_construction_path_gives_an_instance_of_the_class_itself(cls):
    """Instances are built as a hidden twin and then moved to the class: none may stay a twin."""
    obj = SAMPLES[cls]
    names = cls._fields
    values = [getattr(obj, name) for name in names]
    required = {name: getattr(obj, name) for name in names if name not in DEFAULTS.get(cls, {})}
    made = (
        cls(*values), cls(**dict(zip(names, values))), cls(**required),
        copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj)),
    )
    assert cls.__mro__ == (cls, object)
    assert [type(value) for value in made] == [cls] * len(made)


def test_a_failing_post_init_raises_its_own_error():
    with pytest.raises(DomainError, match="^span 's1': from_node and to_node must differ$"):
        Span("s1", "a", "a", 5.0, BACKBONE_FIBER)
    with pytest.raises(DomainError, match=r"^splitter ratio must be a power of two in \[2, 1024\], got 3$"):
        Splitter(ratio=3)


def test_values_differing_in_one_field_are_unequal():
    span = make_span("s1", "a", "b", length=5.0)
    assert span == make_span("s1", "a", "b", length=5.0)
    assert span != make_span("s1", "a", "b", length=6.0)
    assert PowerTrace(("input",), (1.0,)) != PowerTrace(("input",), (2.0,))


def test_post_init_can_normalize_a_field():
    span = Span("s1", "a", "b", 5.0, BACKBONE_FIBER, 2, None, [], [])
    assert span.amplifiers == () and span.splitters == ()


def test_network_names_stay_out_of_repr_and_equality(sleman_doc):
    network = sleman_doc.network
    assert network.node_name("seyegan") == "Seyegan"
    assert "_names" not in repr(network)
    twin = Network(*(getattr(network, name) for name in Network._fields))
    assert twin == network and hash(twin) == hash(network)


def test_the_kept_check_stays_out_of_equality_hashing_repr_and_copies(write_network):
    """check_valid keeps a network's violations in a slot that no value operation sees: a copy or a
    pickle is rebuilt from the fields and checks afresh."""
    for path in (sleman_path(), write_network(lambda raw: raw["spans"].pop())):
        checked, fresh = load_network(path).network, load_network(path).network
        violations = validate_network(checked)
        try:
            check_valid(checked)
        except ValidationFailure:
            pass
        assert checked._violations == tuple(violations) and fresh._violations is None
        assert checked == fresh and hash(checked) == hash(fresh) and repr(checked) == repr(fresh)
        for twin in (copy.copy(checked), copy.deepcopy(checked), pickle.loads(pickle.dumps(checked))):
            assert twin == checked and repr(twin) == repr(checked) and twin._violations is None


def test_the_kept_verdict_table_stays_out_of_equality_hashing_repr_and_copies():
    """verdict_table keeps a report's table in a slot that no value operation sees: a copy or a pickle is
    rebuilt from the fields and judges afresh, to an equal table."""
    doc = load_network(sleman_path())
    judged, fresh = run_plan(doc, "gpon-onu-endpoint"), run_plan(doc, "gpon-onu-endpoint")
    table = verdict_table(judged)
    assert verdict_table(judged) is judged._table is table and fresh._table is None
    assert judged == fresh and hash(judged) == hash(fresh) and repr(judged) == repr(fresh)
    for twin in (copy.copy(judged), copy.deepcopy(judged), pickle.loads(pickle.dumps(judged))):
        assert twin == judged and twin._table is None and verdict_table(twin) == table


def test_importing_the_cli_loads_no_code_generation_modules():
    """Start-up guard: dataclasses (and the inspect/ast it pulls in) cost more than the CLI's own work,
    and datetime, which only ``--stamp`` uses, costs about 3 ms."""
    code = (
        "import sys; before = set(sys.modules); import fiberplan.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'datetime'} & (set(sys.modules) - before))))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == ""


VALIDATE_MODULES = ("cli", "model", "netfile", "report", "standards")
LOADED = {  # command: its flags, the submodules its process loads, and the value classes they define
    "import": ("", (), 0),
    "validate": ("", VALIDATE_MODULES, 13),
    "forecast": ("", (*VALIDATE_MODULES, "traffic"), 14),
    "plan": ("--standard gpon-onu-endpoint", (*VALIDATE_MODULES, "power_budget", "risetime", "planning"), 15),
    "trace": ("--ber", (*VALIDATE_MODULES, "power_budget", "signal_chain"), 16),
}


@pytest.mark.parametrize("command", LOADED)
def test_a_process_loads_only_the_modules_its_command_runs(command):
    """Start-up guard: with no bytecode cache each module a process loads is compiled first, so
    ``import fiberplan`` loads no submodule, and only ``forecast``, ``plan`` and ``trace`` load their own code.
    Each ``@frozen`` class a process defines is built at import, a cost that timing noise does not hide
    from this count."""
    flags, modules, classes = LOADED[command]
    run = "" if command == "import" else "import fiberplan.cli; fiberplan.cli.main(sys.argv[1:]); "
    code = (
        f"import sys, fiberplan; {run}loaded = [m for m in sys.modules.values() if m.__name__.partition('.')[0]"
        " == 'fiberplan']; print(len({o for m in loaded for o in vars(m).values() if isinstance(o, type)"
        " and o.__module__ == m.__name__ and '_fields' in vars(o)}), *(m.__name__ for m in loaded))"
    )
    argv = [command, "--network", str(sleman_path()), *flags.split()]
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True)
    count, *names = result.stdout.splitlines()[-1].split()
    assert set(names) == {"fiberplan", *(f"fiberplan.{m}" for m in modules)}
    assert int(count) == classes
