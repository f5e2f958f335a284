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
with their units).
"""

from __future__ import annotations

import json
from math import inf, isfinite
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TypeVar

from .model import (
    GAIN_DB,
    LOSS_DB,
    Amplifier,
    AmplifierKind,
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
    check_range,
    frozen,
)
from .standards import StandardProfile

DEFAULT_EDFA_GAIN = 20.0  # dB per unit when the file does not say otherwise


class NetworkFileError(ConfigurationError):
    """The document cannot be parsed or does not satisfy the schema."""


@frozen
class NetworkDocument:
    """Everything a network file carries beyond the Network itself."""

    network: Network
    standards: dict[str, StandardProfile]  # custom compliance profiles by name
    traffic: Mapping[str, Any] | None = None
    distribution_loss: float = 0.0
    edfa_gain: float = DEFAULT_EDFA_GAIN

    def __post_init__(self) -> None:
        check_range("distribution_loss", self.distribution_loss, LOSS_DB, "dB")
        check_range("edfa_gain", self.edfa_gain, GAIN_DB, "dB")


_MISSING: Any = object()  # default of the field readers: the key is required

_TOP_KEYS = frozenset({
    "nodes", "spans", "topology", "fiber_profiles", "transceiver", "losses",
    "standards", "traffic", "distribution_loss", "edfa_gain", "head", "notes",
})
_NODE_KEYS = frozenset({"id", "name"})
_SPAN_KEYS = frozenset({"id", "from", "to", "length", "fiber", "connectors", "splices", "amplifiers", "splitters"})

# Each field reader does the lookup, the default, the type check and (for
# numbers) the finiteness check in one call. The object being read is named by
# a ``where`` template and its ``at`` arguments, e.g. ("span {!r}", (span_id,)),
# formatted only when a check fails; ``where=""`` is the top level.


def _field_error(where: str, at: tuple[Any, ...], key: str, expected: str, value: Any) -> NetworkFileError:
    place = where.format(*at)
    if value is _MISSING:
        return NetworkFileError(f"{place or 'top level'}: missing required key {key!r}")
    return NetworkFileError(f"{f'{place}.{key}' if place else key}: expected {expected}, got {value!r}")


def _reject_unknown(obj: Mapping[str, Any], allowed: frozenset[str], where: str, at: tuple[Any, ...] = ()) -> None:
    if allowed.issuperset(obj):
        return
    unknown = sorted(obj.keys() - allowed)
    raise NetworkFileError(f"{where.format(*at)}: unknown key(s) {', '.join(map(repr, unknown))}")


def _require(doc: Mapping[str, Any], key: str) -> Any:
    """A required top-level value of any type."""
    value = doc.get(key, _MISSING)
    if value is _MISSING:
        raise NetworkFileError(f"top level: missing required key {key!r}")
    return value


def _number(obj: Mapping[str, Any], key: str, where: str, at: tuple[Any, ...] = (), default: Any = _MISSING) -> float:
    value = obj.get(key, default)
    if isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = inf
        if isfinite(number):
            return number
        raise _field_error(where, at, key, "a finite number", value)
    raise _field_error(where, at, key, "a number", value)


def _count(obj: Mapping[str, Any], key: str, where: str, at: tuple[Any, ...] = (), default: Any = _MISSING) -> int:
    value = obj.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _field_error(where, at, key, "an integer", value)


def _text(obj: Mapping[str, Any], key: str, where: str, at: tuple[Any, ...] = (), default: Any = _MISSING) -> str:
    value = obj.get(key, default)
    if isinstance(value, str):
        return value
    raise _field_error(where, at, key, "a string", value)


def _amplifier_kind(obj: Mapping[str, Any], key: str, where: str, at: tuple[Any, ...], default: Any) -> AmplifierKind:
    value = obj.get(key, default)
    try:
        return AmplifierKind(value)
    except ValueError:
        raise NetworkFileError(f"{where.format(*at)}: unknown amplifier kind {value!r}") from None


def _line_code(obj: Mapping[str, Any], key: str, where: str, at: tuple[Any, ...], default: Any) -> LineCode:
    code = _text(obj, key, where, at, default)
    try:
        return LineCode(code)
    except ValueError:
        raise NetworkFileError(f"{where.format(*at)}: line_code must be 'nrz' or 'rz', got {code!r}") from None


# The reader of a field, by the annotation its value class declares it with.
_FIELD_READERS = {
    "float": _number, "int": _count, "str": _text, "AmplifierKind": _amplifier_kind, "LineCode": _line_code,
}

_V = TypeVar("_V")


def object_reader(
    cls: type[_V], where: str, given: tuple[str, ...] = (), first: Sequence[str] = ()
) -> Callable[..., _V]:
    """A function building ``cls`` from a JSON object whose keys are its fields less ``given``.

    Each field is read by the reader for its annotation, ``first`` first and the
    rest in field order; an absent key takes the field's default. The caller
    passes ``given`` by keyword and names the object by ``where`` and ``at``.
    """
    keys = frozenset(cls._fields).difference(given)
    order = [*first, *(name for name in cls._fields if name in keys and name not in first)]
    readers = [(name, _FIELD_READERS[cls.__annotations__[name]], cls._defaults.get(name, _MISSING)) for name in order]

    def read(raw: Any, at: tuple[Any, ...] = (), **values: Any) -> _V:
        if not isinstance(raw, dict):
            raise NetworkFileError(f"{where.format(*at)}: expected an object")
        _reject_unknown(raw, keys, where, at)
        for name, reader, default in readers:
            values[name] = reader(raw, name, where, at, default)
        return cls(**values)

    return read


# These orders pin which fault a file with several is told of: transceiver keys
# sorted, an amplifier's kind before its gain, a standard's line code before its numbers.
_read_fiber = object_reader(FiberProfile, "fiber_profiles[{!r}]", given=("name",))
_read_transceiver = object_reader(TransceiverProfile, "transceiver", first=sorted(TransceiverProfile._fields))
_read_losses = object_reader(ComponentLosses, "losses")
_read_amplifier = object_reader(Amplifier, "span {!r}.amplifiers[{}]", first=("kind",))
_read_standard = object_reader(StandardProfile, "standards[{!r}]", given=("name",), first=("line_code",))


def _profiles(raw: Any, key: str, read: Callable[..., _V]) -> dict[str, _V]:
    """A map of profile names to objects, each built by ``read`` under its name."""
    if not isinstance(raw, dict):
        raise NetworkFileError(f"{key!r} must map profile names to objects")
    return {name: read(body, (name,), name=name) for name, body in raw.items()}


def _devices(raw: Sequence[Any], span_id: str, key: str, build: Callable[[Any, tuple[str, int]], _V]) -> tuple[_V, ...]:
    """Each entry of a span's ``key`` list, built by ``build``; a range error names the entry."""
    out = []
    for i, item in enumerate(raw):
        try:
            out.append(build(item, (span_id, i)))
        except DomainError as exc:
            raise NetworkFileError(f"span {span_id!r}.{key}[{i}]: {exc}") from exc
    return tuple(out)


def _splitter(ratio: Any, at: tuple[str, int]) -> Splitter:
    if isinstance(ratio, bool) or not isinstance(ratio, int):
        raise NetworkFileError("span {!r}.splitters[{}]: expected an integer, got {!r}".format(*at, ratio))
    return Splitter(ratio)


def _span(raw: Any, profiles: Mapping[str, FiberProfile]) -> Span:
    if not isinstance(raw, dict):
        raise NetworkFileError("spans: each entry must be an object")
    # Each field is read and type-tested inline; its reader is called only when that test fails,
    # to raise the error or to accept what the test is too narrow for (an integer length).
    get = raw.get
    span_id = get("id")
    if span_id.__class__ is not str:
        span_id = _text(raw, "id", "span")
    where, at = "span {!r}", (span_id,)
    if not _SPAN_KEYS.issuperset(raw):
        _reject_unknown(raw, _SPAN_KEYS, where, at)

    fiber_name = get("fiber")
    if fiber_name.__class__ is not str:  # before the lookup: a list is no dict key
        fiber_name = _text(raw, "fiber", where, at)
    fiber = profiles.get(fiber_name)
    if fiber is None:
        raise NetworkFileError(f"span {span_id!r}: unknown fiber profile {fiber_name!r}")

    splices = get("splices", "auto")
    if splices == "auto":
        splices = None
    elif splices.__class__ is not int:
        splices = _count(raw, "splices", where, at)
    # Most spans list neither amplifiers nor splitters; skip the loops for them.
    amplifiers = get("amplifiers", ())
    if not isinstance(amplifiers, (list, tuple)):
        raise _field_error(where, at, "amplifiers", "a list", amplifiers)
    amplifiers = _devices(amplifiers, span_id, "amplifiers", _read_amplifier) if amplifiers else ()
    splitters = get("splitters", ())
    if not isinstance(splitters, (list, tuple)):
        raise _field_error(where, at, "splitters", "a list", splitters)
    splitters = _devices(splitters, span_id, "splitters", _splitter) if splitters else ()

    from_node = get("from")
    if from_node.__class__ is not str:
        from_node = _text(raw, "from", where, at)
    to_node = get("to")
    if to_node.__class__ is not str:
        to_node = _text(raw, "to", where, at)
    length = get("length")
    if length.__class__ is not float or not -inf < length < inf:
        length = _number(raw, "length", where, at)
    connectors = get("connectors", 2)
    if connectors.__class__ is not int:
        connectors = _count(raw, "connectors", where, at, 2)
    # Positional, in field order: binding nine keywords made reading a span about 20% slower.
    return Span(span_id, from_node, to_node, length, fiber, connectors, splices, amplifiers, splitters)


def _nodes(raw: list[Any]) -> tuple[Node, ...]:
    where = "nodes[{}]"
    out = []
    for i, body in enumerate(raw):  # read inline as in _span, the readers only on a failed test
        if not isinstance(body, dict):
            raise NetworkFileError(f"nodes[{i}]: expected an object")
        if not _NODE_KEYS.issuperset(body):
            _reject_unknown(body, _NODE_KEYS, where, (i,))
        node_id = body.get("id")
        if node_id.__class__ is not str:
            node_id = _text(body, "id", where, (i,))
        name = body.get("name", node_id)
        if name.__class__ is not str:
            name = _text(body, "name", where, (i,), node_id)
        out.append(Node(node_id, name))
    return tuple(out)


def parse_network(doc: Mapping[str, Any]) -> NetworkDocument:
    """Build a NetworkDocument from an already-decoded JSON object.

    Domain-invariant failures (negative lengths, zero attenuation, a value
    outside its field's range, ...) are reported as NetworkFileError so callers
    see one error type for bad files.
    """
    if not isinstance(doc, dict):
        raise NetworkFileError("top level: expected a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "top level")

    topology_raw = _text(doc, "topology", "")
    try:
        topology = Topology(topology_raw)
    except ValueError:
        raise NetworkFileError(f"topology must be 'ring' or 'tree', got {topology_raw!r}") from None

    nodes_raw = _require(doc, "nodes")
    if not isinstance(nodes_raw, list):
        raise NetworkFileError("'nodes' must be a list")
    nodes = _nodes(nodes_raw)

    head = doc.get("head")
    if head is not None:
        head = _text(doc, "head", "")

    traffic = doc.get("traffic")
    if traffic is not None and not isinstance(traffic, dict):
        raise NetworkFileError("'traffic' must be an object")

    spans_raw = _require(doc, "spans")
    if not isinstance(spans_raw, list):
        raise NetworkFileError("'spans' must be a list")

    try:
        profiles = _profiles(_require(doc, "fiber_profiles"), "fiber_profiles", _read_fiber)
        network = Network(
            nodes=nodes,
            spans=tuple([_span(raw, profiles) for raw in spans_raw]),
            topology=topology,
            losses=_read_losses(_require(doc, "losses")),
            transceiver=_read_transceiver(_require(doc, "transceiver")),
            head=head,
        )
        return NetworkDocument(
            network=network,
            standards=_profiles(doc.get("standards", {}), "standards", _read_standard),
            traffic=traffic,
            distribution_loss=_number(doc, "distribution_loss", "", (), 0.0),
            edfa_gain=_number(doc, "edfa_gain", "", (), DEFAULT_EDFA_GAIN),
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
