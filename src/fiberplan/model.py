"""Component-graph model of an optical plant.

A ``Network`` is a set of named nodes joined by fiber ``Span``s, carrying the
shared component-loss figures and the transceiver that drives the plant.
Everything here is immutable after construction; the structural rules a ring
or tree must satisfy are checked by :func:`validate_network`, which reports
violations as data instead of raising.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter
from typing import Any, Sequence, TypeVar


class DomainError(ValueError):
    """An argument lies outside its physically meaningful domain."""


class ConfigurationError(ValueError):
    """A reference or configuration value cannot be resolved."""


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete an attribute of a frozen value."""


_C = TypeVar("_C", bound=type)


def frozen(cls: _C) -> _C:
    """Rebuild ``cls`` as an immutable, slotted value class over its annotated fields.

    The fields are the class's own annotations, in order (``_fields``); a class
    attribute of the same name is the field's default (``_defaults``, by name).
    The new class's ``__slots__`` are the fields, then any names the class body
    lists in its own ``__slots__`` for state that is not a field (None in a new
    instance); instances have no ``__dict__``. The generated ``__new__`` takes
    the fields positionally or by keyword. It makes the instance as one of a
    hidden twin class with the same slots and no ``__setattr__`` of its own,
    stores each field with a plain attribute store, moves the instance to the
    new class (the layouts are equal, so ``__class__`` may be assigned) and
    then calls ``__post_init__`` if the class has one; that method checks the
    values and may normalize a field, or fill a non-field slot, with
    ``object.__setattr__``. Instances compare (only with their own class), hash
    and print by their fields, as a frozen dataclass does, and copy and pickle
    by being rebuilt from them; assigning or deleting any attribute raises
    :class:`FrozenInstanceError`.
    """
    body = dict(vars(cls))
    names = tuple(body.get("__annotations__", ()))
    extra = tuple(body.pop("__slots__", ()))
    defaults = {n: body.pop(n) for n in names if n in body}
    for name in ("__dict__", "__weakref__", *extra):  # a slot may not share its name with a class attribute
        body.pop(name, None)
    body.update(
        __slots__=names + extra,
        _fields=names,
        _defaults=defaults,
        # attrgetter yields the bare value for one name and a tuple for several.
        _values=attrgetter(*names) if names else staticmethod(lambda obj: ()),
        __eq__=_frozen_eq,
        __hash__=_frozen_hash,
        __repr__=_frozen_repr,
        __reduce__=_frozen_reduce,
        __setattr__=_frozen_setattr,
        __delattr__=_frozen_delattr,
    )
    twin = type(cls)(cls.__name__, cls.__bases__, {"__slots__": names + extra})
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    lines = ["    self = _twin()", *(f"    self.{n} = {n}" for n in names), *(f"    self.{n} = None" for n in extra)]
    lines.append("    self.__class__ = cls")
    if "__post_init__" in body:
        lines.append("    self.__post_init__()")
    namespace: dict[str, Any] = {"_defaults": defaults, "_twin": twin, "__name__": cls.__module__}
    exec(f"def __new__(cls{params}):\n" + "\n".join(lines) + "\n    return self", namespace)
    body["__new__"] = new = namespace["__new__"]
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    return type(cls)(cls.__name__, cls.__bases__, body)


def _frozen_eq(self: Any, other: Any) -> Any:
    if other.__class__ is self.__class__:
        return self._values(self) == self._values(other)
    return NotImplemented


def _frozen_hash(self: Any) -> int:
    return hash(self._values(self))


def _frozen_repr(self: Any) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{self.__class__.__qualname__}({fields})"


def _frozen_reduce(self: Any) -> tuple[type, tuple[Any, ...]]:
    return self.__class__, tuple(getattr(self, name) for name in self._fields)


def _frozen_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class Topology(str, Enum):
    RING = "ring"
    TREE = "tree"


class LineCode(str, Enum):
    NRZ = "nrz"
    RZ = "rz"


class AmplifierKind(str, Enum):
    EDFA = "edfa"


# The physical domain of each numeric input, (low, high), written once here and
# checked where the value is built; README "Network file format" lists them
# with their units. Both ends are allowed, except that a length, attenuation,
# spectral width, rise time or responsivity must lie above its low end of 0.
# With every input bounded, no per-span figure reaches 2**44, below which a
# double still resolves the 0.01 dB the reports print.
LENGTH_KM = (0.0, 1e5)
DRUM_LENGTH_KM = (1e-6, 1e5)
ATTENUATION_DB_PER_KM = (0.0, 1e3)
DISPERSION_PS_PER_NM_KM = (0.0, 1e3)
LOSS_DB = (0.0, 100.0)  # per-element losses, the system margin and the distribution leg
GAIN_DB = (0.01, 100.0)  # an amplifier's gain and the unit gain sizing uses
POWER_DBM = (-100.0, 100.0)  # transmit power and receiver sensitivities
COUNT = (0, 10**6)  # connectors and explicit splices per span
SPLIT_RATIO = (2, 2**10)
BIT_RATE_BPS = (1.0, 1e15)
SPECTRAL_WIDTH_NM = (0.0, 1e3)
RISE_TIME_PS = (0.0, 1e6)
RESPONSIVITY_A_PER_W = (0.0, 10.0)
POPULATION = (0, 10**10)
RATE = (0.0, 10.0)  # cellular penetration and annual growth, per unit
FRACTION = (0.0, 1.0)  # operator share and LTE penetration, parts of a whole
HORIZON_YEARS = (0, 100)


def check_range(what: str, value: Any, domain: tuple[float, float], unit: str = "", above: bool = False) -> None:
    """Raise a DomainError naming ``what``, ``domain`` and ``value`` unless the value lies in the domain.

    ``above``: the low end itself is excluded. NaN lies in no domain. The value
    is spelled with ``repr``: ``:g`` cannot format an integer too large for a float.
    """
    lo, hi = domain
    if not (lo < value <= hi if above else lo <= value <= hi):
        bounds = f"{'(' if above else '['}{lo:g}, {hi:g}]{unit and ' ' + unit}"
        raise DomainError(f"{what} must be in {bounds}, got {value!r}")


@frozen
class FiberProfile:
    """Per-km properties of a named fiber standard."""

    name: str
    attenuation: float  # dB/km
    dispersion: float  # ps/(nm km)
    drum_length: float  # km of fiber per cable drum

    def __post_init__(self) -> None:
        where = f"fiber {self.name!r}"
        check_range(f"{where}: attenuation", self.attenuation, ATTENUATION_DB_PER_KM, "dB/km", above=True)
        check_range(f"{where}: dispersion", self.dispersion, DISPERSION_PS_PER_NM_KM, "ps/(nm km)")
        check_range(f"{where}: drum_length", self.drum_length, DRUM_LENGTH_KM, "km")


@frozen
class TransceiverProfile:
    """Transmitter/receiver pair terminating a path."""

    tx_power: float  # dBm
    spectral_width: float  # nm
    tx_rise_time: float  # ps
    rx_rise_time: float  # ps
    rx_sensitivity: float  # dBm, minimum acceptable received power
    responsivity: float  # A/W

    def __post_init__(self) -> None:
        check_range("transceiver: tx_power", self.tx_power, POWER_DBM, "dBm")
        check_range("transceiver: spectral_width", self.spectral_width, SPECTRAL_WIDTH_NM, "nm", above=True)
        check_range("transceiver: tx_rise_time", self.tx_rise_time, RISE_TIME_PS, "ps", above=True)
        check_range("transceiver: rx_rise_time", self.rx_rise_time, RISE_TIME_PS, "ps", above=True)
        check_range("transceiver: rx_sensitivity", self.rx_sensitivity, POWER_DBM, "dBm")
        check_range("transceiver: responsivity", self.responsivity, RESPONSIVITY_A_PER_W, "A/W", above=True)


@frozen
class ComponentLosses:
    """Fixed per-component losses and the path-level system margin."""

    connector_loss: float  # dB per connector
    splice_loss: float  # dB per splice
    system_margin: float  # dB, applied once per evaluated path
    splitter_excess_loss: float = 0.0  # dB per splitter stage, on top of the ideal split

    def __post_init__(self) -> None:
        for name in ("connector_loss", "splice_loss", "system_margin", "splitter_excess_loss"):
            check_range(f"losses: {name}", getattr(self, name), LOSS_DB, "dB")


@frozen
class Amplifier:
    """Fixed-gain optical amplifier."""

    gain: float  # dB
    kind: AmplifierKind = AmplifierKind.EDFA

    def __post_init__(self) -> None:
        check_range("amplifier gain", self.gain, GAIN_DB, "dB")


@frozen
class Splitter:
    """Passive 1xN splitter; N must be a power of two."""

    ratio: int

    def __post_init__(self) -> None:
        n = self.ratio
        if not (isinstance(n, int) and SPLIT_RATIO[0] <= n <= SPLIT_RATIO[1]) or n & (n - 1):
            lo, hi = SPLIT_RATIO
            raise DomainError(f"splitter ratio must be a power of two in [{lo}, {hi}], got {n!r}")


@frozen
class Span:
    """A fiber run between two nodes with its joint and device inventory.

    ``splices=None`` means the count is resolved automatically from the run
    length and the fiber's drum length via :func:`splice_count`.
    """

    id: str
    from_node: str
    to_node: str
    length: float  # km
    fiber: FiberProfile
    connectors: int = 2  # one demountable joint per end by default
    splices: int | None = None
    amplifiers: tuple[Amplifier, ...] = ()
    splitters: tuple[Splitter, ...] = ()

    def __post_init__(self) -> None:
        if self.amplifiers.__class__ is not tuple:  # the parser passes tuples; library callers may not
            object.__setattr__(self, "amplifiers", tuple(self.amplifiers))
        if self.splitters.__class__ is not tuple:
            object.__setattr__(self, "splitters", tuple(self.splitters))
        # One inline test, as a span is built once per span of a plant; check_range names the field that failed.
        if not (LENGTH_KM[0] < self.length <= LENGTH_KM[1] and COUNT[0] <= self.connectors <= COUNT[1]
                and (self.splices is None or COUNT[0] <= self.splices <= COUNT[1])):
            check_range(f"span {self.id!r}: length", self.length, LENGTH_KM, "km", above=True)
            check_range(f"span {self.id!r}: connectors", self.connectors, COUNT)
            check_range(f"span {self.id!r}: splices", self.splices, COUNT)
        if self.from_node == self.to_node:
            raise DomainError(f"span {self.id!r}: from_node and to_node must differ")


@frozen
class Node:
    id: str
    name: str


@frozen
class Network:
    """A plant: nodes, spans, topology kind, and the shared equipment figures.

    ``head`` designates the root of a tree plant; it defaults to the first
    listed node and is ignored for rings.
    """

    nodes: tuple[Node, ...]
    spans: tuple[Span, ...]
    topology: Topology
    losses: ComponentLosses
    transceiver: TransceiverProfile
    head: str | None = None

    # Not fields, so left out of repr, equality, hashing, copies and pickles: node id -> name, and
    # the violations check_valid found (None until it runs).
    __slots__ = ("_names", "_violations")

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "spans", tuple(self.spans))
        ids, names = map(attrgetter("id"), self.nodes[::-1]), map(attrgetter("name"), self.nodes[::-1])
        object.__setattr__(self, "_names", dict(zip(ids, names)))  # read backwards: an id's first listing wins

    def node_name(self, node_id: str) -> str:
        return self._names.get(node_id, node_id)

    @property
    def head_node(self) -> str | None:
        if self.head is not None:
            return self.head
        return self.nodes[0].id if self.nodes else None


@frozen
class TrafficInput:
    """Inputs of the subscriber derivation chain (:mod:`fiberplan.traffic`)."""

    population: int
    cellular_penetration: float  # mobile subscriptions per inhabitant
    operator_share: float  # fraction of mobile subscribers on the operator
    lte_penetration: float  # fraction of operator subscribers on LTE
    annual_growth: float  # compound yearly growth of the LTE base
    horizon: int  # years projected beyond the base year

    def __post_init__(self) -> None:
        check_range("population", self.population, POPULATION)
        check_range("cellular_penetration", self.cellular_penetration, RATE)
        check_range("operator_share", self.operator_share, FRACTION)
        check_range("lte_penetration", self.lte_penetration, FRACTION)
        check_range("annual_growth", self.annual_growth, RATE)
        check_range("horizon", self.horizon, HORIZON_YEARS, "years")


@frozen
class Violation:
    """One broken structural rule, attached to the offending element."""

    element: str  # "node:<id>", "span:<id>", or "network"
    rule: str
    message: str


class ValidationFailure(ConfigurationError):
    """The network file parsed but its structure is invalid."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__(f"network failed validation with {len(violations)} violation(s)")


def splice_count(length: float, drum_length: float) -> int:
    """Splices on a run: one per cable-drum boundary plus the two terminating joints.

    Computed as ceil(length / drum_length) + 2; raises DomainError when that is
    beyond the float range, which a :class:`Span` and its :class:`FiberProfile` cannot reach.
    """
    if length <= 0 or drum_length <= 0:
        raise DomainError("splice_count: length and drum_length must be > 0 km")
    drums = length / drum_length
    if drums == math.inf:
        raise DomainError(f"splice count of {length:g} km over {drum_length:g} km drums is beyond the float range")
    return math.ceil(drums) + 2


def resolved_splices(span: Span) -> int:
    """The span's explicit splice count, or the automatic drum-based count."""
    if span.splices is not None:
        return span.splices
    return splice_count(span.length, span.fiber.drum_length)


def validate_network(net: Network) -> list[Violation]:
    """Check every structural invariant of the network.

    Returns the full list of violations, sorted by element id then rule name,
    so that a valid network yields an empty list. Validation is pure: the same
    network always produces the same list. One linear pass over the spans
    joins components by union-find with path halving, linking the root of each
    span's ``to`` end under the root of its ``from`` end: a tree listed head
    first (a GPON plant, OLT first) or leaf first, a chain and a ring listed in
    walk order each find a root in one or two steps. Degrees are counted on
    rings only, and span ids are walked for repeats only when their set is short.
    :func:`check_valid` keeps the result on the network, so a plant is checked once.
    """
    violations: list[Violation] = []
    known, nodes, spans = net._names, net.nodes, net.spans
    if not known:
        violations.append(Violation("network", "no-nodes", "network has no nodes"))
    if len(known) != len(nodes):  # some id repeats
        seen: set[str] = set()
        for node in nodes:
            if node.id in seen:
                violations.append(Violation(f"node:{node.id}", "duplicate-id", "node id appears more than once"))
            seen.add(node.id)
    if len({span.id for span in spans}) != len(spans):
        seen = set()
        for span in spans:
            if span.id in seen:
                violations.append(Violation(f"span:{span.id}", "duplicate-id", "span id appears more than once"))
            seen.add(span.id)

    ring = net.topology is Topology.RING
    degree = dict.fromkeys(known, 0) if ring else {}
    parent = dict(zip(known, known))  # union-find forest over the node ids
    components, edges, has_cycle = len(known), 0, False
    for span in spans:
        a, b = span.from_node, span.to_node
        try:  # find both roots, pointing each node passed at its grandparent
            while a != (up := parent[a]):
                parent[a] = a = parent[up]
            while b != (up := parent[b]):
                parent[b] = b = parent[up]
        except KeyError:  # an end names no node
            for node_id in (span.from_node, span.to_node):
                if node_id not in known:
                    violations.append(
                        Violation(f"span:{span.id}", "unresolved-node", f"references unknown node {node_id!r}")
                    )
            continue
        if ring:
            degree[span.from_node] += 1
            degree[span.to_node] += 1
            edges += 1
        if a == b:
            has_cycle = True
        else:
            parent[b] = a
            components -= 1

    if ring:
        for node_id, count in degree.items():
            if count != 2:
                violations.append(
                    Violation(f"node:{node_id}", "ring-degree", f"ring nodes need degree exactly 2, found {count}")
                )
        if known and (components != 1 or edges != len(known)):
            violations.append(Violation("network", "ring-single-cycle", "spans do not form a single closed cycle"))
    else:
        head = net.head_node
        if head is None or head not in known:
            violations.append(
                Violation("network", "tree-head", f"tree head node {head!r} does not resolve")
            )
        if known and components != 1:
            violations.append(
                Violation("network", "tree-connected", f"tree must be connected, found {components} components")
            )
        if has_cycle:
            violations.append(Violation("network", "tree-acyclic", "tree contains a cycle"))

    violations.sort(key=lambda v: (v.element, v.rule))
    return violations


def check_valid(net: Network) -> None:
    """Raise ValidationFailure if the network breaks a structural rule of :func:`validate_network`.

    A network is immutable, so the first call keeps its violations in a slot that is not a field
    and later calls read them: plans and traces of one parsed plant validate it once. Each
    failing call raises a new ValidationFailure over an equal list.
    """
    violations = net._violations
    if violations is None:
        violations = tuple(validate_network(net))
        object.__setattr__(net, "_violations", violations)
    if violations:
        raise ValidationFailure(list(violations))


def ring_spans(net: Network) -> tuple[Span, ...]:
    """Spans walking the full cycle from the first node, closing span last.

    At the first node the walk leaves by a span listed from that node, lowest
    span id first; after that it leaves each node of the cycle by the other of
    its two spans. A 7-node ring yields its 7 spans; a 2-node ring of parallel
    spans yields both. Structure is not re-validated here: a node with other
    than two spans, or a walk back at the first node early, raises
    ConfigurationError. Linear in the spans.
    """
    if net.topology is not Topology.RING:
        raise ConfigurationError("ring traversal requested on a non-ring network")
    incident: dict[str, list[Span]] = {n.id: [] for n in net.nodes}
    known, strays = len(incident), []  # below the node count when node ids repeat; the spans' unknown ends
    for span in net.spans:
        incident.get(span.from_node, strays).append(span)
        incident.get(span.to_node, strays).append(span)
    not_a_cycle = "network is not a valid ring: spans do not form a single closed cycle"
    if not known or strays or len(net.nodes) != known or len(net.spans) != known:
        raise ConfigurationError(not_a_cycle)

    start = net.nodes[0].id
    span = min(incident[start], key=lambda s: (s.from_node != start, s.id), default=None)
    if span is None:
        raise ConfigurationError(not_a_cycle)
    walk = [span]
    current = span.to_node if span.from_node == start else span.from_node
    for _ in range(known - 1):
        pair = incident[current]
        if current == start or len(pair) != 2 or pair[0] is pair[1]:  # one span listed twice is not two
            raise ConfigurationError(not_a_cycle)
        span = pair[1] if pair[0] is span else pair[0]
        walk.append(span)
        current = span.to_node if span.from_node == current else span.from_node
    if current != start:
        raise ConfigurationError(not_a_cycle)
    return tuple(walk)


def nodes_along(start: str, spans: Sequence[Span]) -> list[str]:
    """Node ids visited walking ``spans`` in order from ``start``."""
    order = [start]
    for span in spans:
        order.append(span.to_node if span.from_node == order[-1] else span.from_node)
    return order


def spans_along(net: Network, node_ids: Sequence[str]) -> list[Span]:
    """Spans joining each consecutive node pair, in path order.

    Where parallel spans join a pair, the lowest span id is taken; use
    :func:`ring_spans` to walk a ring through every span. One pass over the
    spans indexes only those with both ends on the path.
    """
    ids = list(node_ids)
    if len(ids) < 2:
        raise ConfigurationError("a path needs at least two nodes")
    known = net._names
    for node_id in ids:
        if node_id not in known:
            raise ConfigurationError(f"path references unknown node {node_id!r}")

    on_path = set(ids)
    joining: dict[tuple[str, str], Span] = {}  # keyed by the ordered pair of end ids
    for span in net.spans:
        a, b = span.from_node, span.to_node
        if a in on_path and b in on_path:
            key = (a, b) if a < b else (b, a)
            best = joining.get(key)
            if best is None or span.id < best.id:
                joining[key] = span

    path: list[Span] = []
    for a, b in zip(ids, ids[1:]):
        span = joining.get((a, b) if a < b else (b, a))
        if span is None:
            raise ConfigurationError(f"no span joins {a!r} and {b!r}")
        path.append(span)
    return path


def resolve_path(net: Network, path_spec: str) -> tuple[list[str], tuple[Span, ...]]:
    """Node ids and spans, in path order, of ``"ring"`` or comma-separated node ids."""
    spec = path_spec.strip()
    if spec.lower() == "ring":
        spans = ring_spans(net)
        return nodes_along(net.nodes[0].id, spans), spans
    nodes = [part.strip() for part in spec.split(",") if part.strip()]
    if len(nodes) < 2:
        raise ConfigurationError(f"path spec {path_spec!r} needs 'ring' or at least two node ids")
    return nodes, tuple(spans_along(net, nodes))
