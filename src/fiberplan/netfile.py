"""Network description file: a single JSON document describing a plant.

Top-level keys: ``nodes``, ``spans``, ``topology``, ``fiber_profiles``,
``transceiver``, ``losses``; optional ``standards`` (custom compliance
profiles), ``traffic`` (forecast inputs), ``distribution_loss`` (dB for the
downstream distribution leg), ``edfa_gain`` (dB unit gain used when sizing
amplifiers), ``head`` (tree root) and ``notes``. The keys of each fiber
profile, ``transceiver``, ``losses``, amplifier, standard and ``traffic``
object are the fields of the value class it builds, read by
:func:`object_reader`; a field with a default may be left out.

Units are fixed by the format: lengths in km, powers in dBm, losses and gains
in dB, rise times in ps, dispersion in ps/(nm km). A span's ``splices`` key
accepts an integer or the string ``"auto"`` to derive the count from the
fiber's drum length. Unknown keys and unknown profile names are load-time
errors, not defaults: silent fallbacks hide unit mistakes. Every number must
be finite: NaN and +-Infinity (which Python's JSON reader accepts) are
load-time errors naming the field, as are wrong types, including ``true`` for
a number and ``2.5`` for a count. Each number must also lie in its field's
physical range, checked by the value class it builds (the ranges are the
constants in :mod:`fiberplan.model`; README "Network file format" tables them
with their units). ``traffic`` is read at load too; its ranges are checked by
``forecast``, whose flags may give the keys a file leaves out.

Nodes, spans and their amplifiers and splitters are read in one loop each: a
value's type is tested inline, and its class's ``__new__``, bound once per
parse, checks its range. The field readers (:func:`_devices` for devices) run
only on a failed test, to spell the fault or accept a value like an integer gain.

Every shape fault is spelled one way, by :func:`_field_error`: a wrong value
(``span 's1'.length: expected a number, got '10'``), a wrong object or
top-level key (``spans[3]: expected an object, got 3``, ``topology: expected
'ring' or 'tree', got 'mesh'``) or a missing key (``transceiver: missing
required key 'tx_power'``).
"""

from __future__ import annotations

import json
from collections import abc
from enum import Enum
from math import inf
from pathlib import Path
from sys import float_info
from typing import Any, Callable, Mapping, Sequence, TypeVar

from .model import (
    GAIN_DB, LOSS_DB, Amplifier, AmplifierKind, ComponentLosses, ConfigurationError, DomainError, FiberProfile,
    LineCode, Network, Node, Span, Splitter, Topology, TrafficInput, TransceiverProfile, check_range, frozen,
)
from .standards import StandardProfile

DEFAULT_EDFA_GAIN = 20.0  # dB per unit when the file does not say otherwise


class NetworkFileError(ConfigurationError):
    """The document cannot be parsed or does not satisfy the schema."""


class _FrozenMap(abc.Mapping):
    """A read-only mapping that hashes by its items and equals any mapping with the same items."""

    __slots__ = ("_items",)

    def __init__(self, items: Mapping[str, Any]):
        self._items = dict(items)

    def __getitem__(self, key: str) -> Any:
        return self._items[key]

    def __iter__(self) -> Any:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(frozenset(self._items.items()))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self._items!r})"

    def __reduce__(self) -> tuple[type, tuple[dict[str, Any]]]:  # copy and pickle by rebuilding, as a value class does
        return self.__class__, (self._items,)


@frozen
class NetworkDocument:
    """Everything a network file carries beyond the Network itself.

    A value, as a Network is: ``standards`` and ``traffic`` are held as read-only
    mappings (a copy of what was passed), so two parses of one file are equal and hash alike.
    """

    network: Network
    standards: Mapping[str, StandardProfile]  # custom compliance profiles by name
    traffic: Mapping[str, Any] | None = None
    distribution_loss: float = 0.0
    edfa_gain: float = DEFAULT_EDFA_GAIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "standards", _FrozenMap(self.standards))
        if self.traffic is not None:
            object.__setattr__(self, "traffic", _FrozenMap(self.traffic))
        check_range("distribution_loss", self.distribution_loss, LOSS_DB, "dB")
        check_range("edfa_gain", self.edfa_gain, GAIN_DB, "dB")


_MISSING: Any = object()  # default of the field readers: the key is required

_TOP_KEYS = frozenset({
    "nodes", "spans", "topology", "fiber_profiles", "transceiver", "losses",
    "standards", "traffic", "distribution_loss", "edfa_gain", "head", "notes",
})
_NODE_KEYS = frozenset({"id", "name"})
_SPAN_KEYS = frozenset({"id", "from", "to", "length", "fiber", "connectors", "splices", "amplifiers", "splitters"})
_AMPLIFIER_KEYS = frozenset(Amplifier._fields)
# An amplifier's kind by its value; an absent one (_MISSING) is the field's default.
_AMPLIFIER_KINDS = {kind.value: kind for kind in AmplifierKind} | {_MISSING: Amplifier._defaults["kind"]}

# Each field reader does the lookup, the default, the type check and (for numbers) the finiteness
# check in one call. ``where`` names the object read, e.g. "span 's1'"; "" is the top level.


def _field_error(where: str, key: str, expected: str, value: Any) -> NetworkFileError:
    """A shape fault in the one grammar; a wrong object is a top-level key: ``_field_error("", where, ...)``."""
    if value is _MISSING:
        return NetworkFileError(f"{where or 'top level'}: missing required key {key!r}")
    return NetworkFileError(f"{f'{where}.{key}' if where else key}: expected {expected}, got {value!r}")


def _reject_unknown(obj: Mapping[str, Any], allowed: frozenset[str], where: str) -> None:
    if not allowed.issuperset(obj):
        unknown = ", ".join(map(repr, sorted(obj.keys() - allowed, key=str)))  # a library caller may pass any key
        raise NetworkFileError(f"{where}: unknown key(s) {unknown}")


def _number(obj: Mapping[str, Any], key: str, where: str, default: Any = _MISSING) -> float:
    value = obj.get(key, default)
    if isinstance(value, (float, int)) and not isinstance(value, bool):
        if abs(value) <= float_info.max:  # exact for an integer of any size; false for NaN
            return float(value)
        raise _field_error(where, key, "a finite number", value)
    raise _field_error(where, key, "a number", value)


def _count(obj: Mapping[str, Any], key: str, where: str, default: Any = _MISSING) -> int:
    value = obj.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _field_error(where, key, "an integer", value)


def _text(obj: Mapping[str, Any], key: str, where: str, default: Any = _MISSING) -> str:
    value = obj.get(key, default)
    if isinstance(value, str):
        return value
    raise _field_error(where, key, "a string", value)


def _choice(enum: type[Enum]) -> Callable[..., Any]:
    """The field reader of ``enum``: a value naming no member, a string or not, is a shape fault."""
    expected = " or ".join(repr(member.value) for member in enum)

    def read(obj: Mapping[str, Any], key: str, where: str, default: Any = _MISSING) -> Any:
        value = obj.get(key, default)
        try:
            return enum(value)
        except ValueError:  # also for an unhashable value
            raise _field_error(where, key, expected, value) from None

    return read


# The reader of a field, by the annotation its value class declares it with.
_FIELD_READERS = {
    "float": _number, "int": _count, "str": _text,
    "AmplifierKind": _choice(AmplifierKind), "LineCode": _choice(LineCode), "Topology": _choice(Topology),
}

_V = TypeVar("_V")


def object_reader(cls: type[_V], given: tuple[str, ...] = (), first: Sequence[str] = ()) -> Callable[..., _V]:
    """A function building ``cls`` from a JSON object whose keys are its fields less ``given``.

    Each field is read by the reader for its annotation, ``first`` first and the
    rest in field order; an absent key takes the field's default. The caller
    names the object by ``where`` and passes ``given`` by keyword.
    """
    keys = frozenset(cls._fields).difference(given)
    order = [*first, *(name for name in cls._fields if name in keys and name not in first)]
    readers = [(name, _FIELD_READERS[cls.__annotations__[name]], cls._defaults.get(name, _MISSING)) for name in order]

    def read(raw: Any, where: str, **values: Any) -> _V:
        if not isinstance(raw, dict):
            raise _field_error("", where, "an object", raw)
        _reject_unknown(raw, keys, where)
        for name, reader, default in readers:
            values[name] = reader(raw, name, where, default)
        return cls(**values)

    return read


# These orders pin which fault a file with several is told of: transceiver keys
# sorted, an amplifier's kind before its gain, a standard's line code before its numbers.
_read_fiber = object_reader(FiberProfile, given=("name",))
_read_transceiver = object_reader(TransceiverProfile, first=sorted(TransceiverProfile._fields))
_read_losses = object_reader(ComponentLosses)
_read_amplifier = object_reader(Amplifier, first=("kind",))
_read_standard = object_reader(StandardProfile, given=("name",), first=("line_code",))


def _profiles(raw: Any, key: str, read: Callable[..., _V]) -> dict[str, _V]:
    """A map of profile names to objects, each built by ``read`` under its name."""
    if not isinstance(raw, dict):
        raise _field_error("", key, "an object", raw)
    return {name: read(body, f"{key}[{name!r}]", name=name) for name, body in raw.items()}


def _devices(raw: Any, span_id: str, key: str, build: Callable[[Any, str], _V]) -> tuple[_V, ...]:
    """Each entry of a span's ``key`` list, built by ``build`` unnamed; one that fails is read again, named."""
    if not isinstance(raw, (list, tuple)):
        raise _field_error(f"span {span_id!r}", key, "a list", raw)
    out = []
    for i, item in enumerate(raw):
        try:
            out.append(build(item, ""))
        except DomainError as exc:
            raise NetworkFileError(f"span {span_id!r}.{key}[{i}]: {exc}") from exc
        except NetworkFileError:  # a shape fault: the entry read again, named, raises it spelled in full
            build(item, f"span {span_id!r}.{key}[{i}]")
            raise
    return tuple(out)


def _splitter(ratio: Any, where: str) -> Splitter:
    if isinstance(ratio, bool) or not isinstance(ratio, int):
        raise _field_error("", where, "an integer", ratio)
    return Splitter(ratio)


def _spans(raw: list[Any], profiles: Mapping[str, FiberProfile]) -> tuple[Span, ...]:
    new_span, new_amplifier, new_splitter = Span.__new__, Amplifier.__new__, Splitter.__new__
    out = []
    for i, body in enumerate(raw):
        if not isinstance(body, dict):
            raise _field_error("", f"spans[{i}]", "an object", body)
        get = body.get
        span_id = get("id")
        if span_id.__class__ is not str:
            span_id = _text(body, "id", f"spans[{i}]")
        if not _SPAN_KEYS.issuperset(body):
            _reject_unknown(body, _SPAN_KEYS, f"span {span_id!r}")

        fiber_name = get("fiber")
        if fiber_name.__class__ is not str:  # before the lookup: a list is no dict key
            fiber_name = _text(body, "fiber", f"span {span_id!r}")
        fiber = profiles.get(fiber_name)
        if fiber is None:
            raise NetworkFileError(f"span {span_id!r}: unknown fiber profile {fiber_name!r}")

        splices = get("splices", "auto")
        if splices == "auto":
            splices = None
        elif splices.__class__ is not int:
            splices = _count(body, "splices", f"span {span_id!r}")
        # Most spans list neither amplifiers nor splitters: their default () skips the type test and the
        # loop. An entry that fails a test, or whose constructor raises, sends its list to _devices.
        amplifiers = get("amplifiers", ())
        if amplifiers.__class__ is not tuple or amplifiers:
            built = []
            if amplifiers.__class__ is list:
                try:
                    for item in amplifiers:  # an entry that fails a test is left out
                        if item.__class__ is dict and _AMPLIFIER_KEYS.issuperset(item):
                            gain, kind = item.get("gain"), _AMPLIFIER_KINDS.get(item.get("kind", _MISSING))
                            if gain.__class__ is float and kind is not None:
                                built.append(new_amplifier(Amplifier, gain, kind))
                except (DomainError, TypeError):  # a gain out of its range; a kind that is no dict key
                    pass
            if amplifiers.__class__ is not list or len(built) < len(amplifiers):
                built = _devices(amplifiers, span_id, "amplifiers", _read_amplifier)
            amplifiers = tuple(built)
        splitters = get("splitters", ())
        if splitters.__class__ is not tuple or splitters:
            built = None
            if splitters.__class__ is list:
                try:  # Splitter tests a ratio's type as well as its value
                    built = tuple([new_splitter(Splitter, ratio) for ratio in splitters])
                except DomainError:
                    pass
            splitters = _devices(splitters, span_id, "splitters", _splitter) if built is None else built

        from_node = get("from")
        if from_node.__class__ is not str:
            from_node = _text(body, "from", f"span {span_id!r}")
        to_node = get("to")
        if to_node.__class__ is not str:
            to_node = _text(body, "to", f"span {span_id!r}")
        length = get("length")
        if length.__class__ is not float or not -inf < length < inf:
            length = _number(body, "length", f"span {span_id!r}")
        connectors = get("connectors", 2)
        if connectors.__class__ is not int:
            connectors = _count(body, "connectors", f"span {span_id!r}", 2)
        # Positional, in field order: binding nine keywords made reading a span about 20% slower.
        out.append(new_span(Span, span_id, from_node, to_node, length, fiber, connectors, splices, amplifiers, splitters))
    return tuple(out)


def _nodes(raw: Any) -> tuple[Node, ...]:
    if not isinstance(raw, list):
        raise _field_error("", "nodes", "a list", raw)
    new_node = Node.__new__
    out = []
    for i, body in enumerate(raw):
        if not isinstance(body, dict):
            raise _field_error("", f"nodes[{i}]", "an object", body)
        if not _NODE_KEYS.issuperset(body):
            _reject_unknown(body, _NODE_KEYS, f"nodes[{i}]")
        node_id = body.get("id")
        if node_id.__class__ is not str:
            node_id = _text(body, "id", f"nodes[{i}]")
        name = body.get("name", node_id)
        if name.__class__ is not str:
            name = _text(body, "name", f"nodes[{i}]", node_id)
        out.append(new_node(Node, node_id, name))
    return tuple(out)


def parse_network(doc: Mapping[str, Any]) -> NetworkDocument:
    """Build a NetworkDocument from an already-decoded JSON object.

    Domain-invariant failures (negative lengths, zero attenuation, a value
    outside its field's range, ...) are reported as NetworkFileError so callers
    see one error type for bad files.
    """
    if not isinstance(doc, dict):
        raise _field_error("", "top level", "an object", doc)
    _reject_unknown(doc, _TOP_KEYS, "top level")

    topology = _FIELD_READERS["Topology"](doc, "topology", "")

    nodes = _nodes(doc.get("nodes", _MISSING))

    head = doc.get("head")
    if head is not None:
        head = _text(doc, "head", "")

    traffic = doc.get("traffic")
    if traffic is not None:  # forecast checks the ranges; the document keeps its own copy of the typed values
        if not isinstance(traffic, dict):
            raise _field_error("", "traffic", "an object", traffic)
        _reject_unknown(traffic, frozenset(TrafficInput._fields), "traffic")
        traffic = {name: _FIELD_READERS[TrafficInput.__annotations__[name]](traffic, name, "traffic")
                   for name in TrafficInput._fields if name in traffic}

    spans_raw = doc.get("spans", _MISSING)
    if not isinstance(spans_raw, list):
        raise _field_error("", "spans", "a list", spans_raw)

    try:
        profiles = _profiles(doc.get("fiber_profiles", _MISSING), "fiber_profiles", _read_fiber)
        network = Network(
            nodes=nodes,
            spans=_spans(spans_raw, profiles),
            topology=topology,
            losses=_read_losses(doc.get("losses", _MISSING), "losses"),
            transceiver=_read_transceiver(doc.get("transceiver", _MISSING), "transceiver"),
            head=head,
        )
        return NetworkDocument(
            network=network,
            standards=_profiles(doc.get("standards", {}), "standards", _read_standard),
            traffic=traffic,
            distribution_loss=_number(doc, "distribution_loss", "", 0.0),
            edfa_gain=_number(doc, "edfa_gain", "", DEFAULT_EDFA_GAIN),
        )
    except DomainError as exc:
        raise NetworkFileError(str(exc)) from exc


def load_network(path: str | Path) -> NetworkDocument:
    """Read and parse a network description file.

    Malformed JSON raises NetworkFileError carrying the line and column of
    the syntax error; schema problems name the offending element.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise NetworkFileError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise NetworkFileError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise NetworkFileError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise NetworkFileError(f"{path}: {exc}") from exc
    return parse_network(doc)
