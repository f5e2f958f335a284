"""Analytic signal chain: power traces over run tables and a Q-factor BER model.

:func:`route_chain` lists a path, in one pass, as the run tables of its spans (the
:func:`fiberplan.power_budget.span_runs` rows a plan folds into its loss figures)
and one margin row; :func:`propagate` expands the rows into one trace point per
element and formats the only labels. Each point is the exact sum of the elements
so far, in integers over one power-of-two scale, rounded once: the rule a plan sums
a path by, so with no distribution leg the last point is the plan's as-built
received power, bit for bit.

The BER model is a plain Gaussian decision model: photocurrent over one fixed
receiver noise sigma (:data:`NOISE_SIGMA`) gives a Q factor, and
BER = 0.5 erfc(Q / sqrt(2)). With that sigma and a 0.9 A/W detector,
end-of-line powers of -25 to -27 dBm give a BER of 2.4e-5 to 5.2e-3 (6.2e-4 at -26).

The trace command lives here too: :func:`run_trace` traces a path of a parsed
network document, and ``render_trace_*`` report it as text or JSON.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate, islice
from json.encoder import encode_basestring_ascii as _json_str

from .model import DomainError, Network, Span, check_valid, frozen, resolve_path, resolved_splices
from .netfile import NetworkDocument
from .power_budget import Run, span_runs
from .report import SLOT, db, dumps, row, skeleton, spell

NOISE_SIGMA = 7e-7  # A; receiver noise current of the Gaussian model

MAX_TRACE_ELEMENTS = 200_000
"""Most elements the rows of :func:`route_chain` may count for one path; :func:`propagate`
keeps about 50 bytes per element, mostly a label reference and a float in two flat columns
(about 11 MB at the cap), and a 10^4-node ring needs about 90k."""


@frozen
class PowerTrace:
    """Ordered power readouts as two columns of one length: the injected level, then one point per element."""

    labels: tuple[str, ...]
    powers: tuple[float, ...]  # dBm

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "powers", tuple(self.powers))
        if not len(self.labels) == len(self.powers) >= 1:
            raise DomainError(f"a trace needs n >= 1 labels and n powers, not {len(self.labels)} and {len(self.powers)}")

    @property
    def final_power(self) -> float:
        return self.powers[-1]


@frozen
class BerEstimate:
    """Q factor and the Gaussian-model bit error rate it implies."""

    q_factor: float
    ber: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ber <= 0.5:
            raise DomainError("ber must lie in [0, 0.5]")


def _label(kind: str, part: object) -> str:
    """The trace label of a run row that carries a part."""
    if kind == "fiber":
        return f"fiber {part.length:g} km ({part.fiber.name})"
    if kind == "splitter":
        return f"splitter 1x{part.ratio}"
    if kind == "amplifier":
        return f"{part.kind.value} +{part.gain:g} dB"
    return f"{kind} {part:g} dB"  # the margin


def propagate(input_power: float, runs: Sequence[Run]) -> PowerTrace:
    """Fold the rows of a run table left to right into a power trace.

    The first point is the injected power; a row of ``count`` elements appends ``count``
    points under its kind, or under a label made from its part if it has one. Each later
    point is the exact sum of the injected power and the element effects so far, rounded
    once: every finite float is an integer over a power of two, so shifted to the largest
    denominator, 2**k, the running sums are exact integers, each converted once: float()
    times 2**-k while k <= 1022, else (or past float()'s range) divided by 2**k. That is
    ``math.fsum`` over each prefix, bit for bit, and exact where fsum raises a false
    intermediate overflow. Raises DomainError on a non-finite input power or row effect,
    and names the first element whose exact running sum rounds beyond the float range.
    """
    if not math.isfinite(input_power):
        raise DomainError(f"input power must be a finite dBm value, got {input_power!r}")
    try:  # each distinct effect once: all joints of a kind, and equal devices, share one
        ratios = {delta: delta.as_integer_ratio() for delta in {row[1] for row in runs}}
    except (OverflowError, ValueError):  # what as_integer_ratio raises on an infinity and on a NaN
        kind, delta, _, part = next(row for row in runs if not math.isfinite(row[1]))
        label = kind if part is None else _label(kind, part)
        raise DomainError(f"chain element {label!r} has a non-finite effect ({delta!r} dB)") from None
    top, bottom = input_power.as_integer_ratio()
    k = max([bottom, *(d for _, d in ratios.values())]).bit_length() - 1  # each denominator is 2**(bit_length - 1)
    step = {delta: n << (k - d.bit_length() + 1) for delta, (n, d) in ratios.items()}
    labels = ["input"]
    steps: list[int] = []
    for kind, delta, count, part in runs:
        label = kind if part is None else _label(kind, part)
        if count == 1:
            labels.append(label)
            steps.append(step[delta])
        else:
            labels += [label] * count
            steps += [step[delta]] * count
    start = top << (k - bottom.bit_length() + 1)
    powers = [input_power]  # the injected power itself, kept as given (a -0.0 stays -0.0)
    scaled = k <= 1022  # float(sum), correctly rounded, times 2**-k is then exact: a nonzero point is normal
    while len(powers) <= len(steps):  # at most twice: scaled, then exact from the first point not written
        sums = accumulate(islice(steps, len(powers), None), initial=sum(steps[:len(powers)], start))
        try:
            powers += map((2.0**-k).__mul__, map(float, sums)) if scaled else map((1 << k).__rtruediv__, sums)
        except OverflowError:  # extend kept the points before the sum it could not convert
            if not scaled:  # int / int rounds correctly, and raises only past the float range
                raise DomainError(f"power after {labels[len(powers)]!r} is beyond the float range") from None
            scaled = False
    return PowerTrace(labels, powers)


def dbm_to_watts(power_dbm: float) -> float:
    """Absolute power in watts: 10^((P_dBm - 30) / 10). -inf dBm maps to 0 W.

    Raises DomainError when the result is beyond the float range.
    """
    try:
        return 10.0 ** ((power_dbm - 30.0) / 10.0)
    except OverflowError:
        raise DomainError(f"power {power_dbm:g} dBm is beyond the float range in watts") from None


def ber_from_q(q_factor: float) -> float:
    """Gaussian-model bit error rate for a Q factor: 0.5 erfc(Q / sqrt(2))."""
    if q_factor < 0:
        raise DomainError("q_factor must be >= 0")
    return 0.5 * math.erfc(q_factor / math.sqrt(2.0))


def estimate_ber(received_power: float, responsivity: float) -> BerEstimate:
    """BER at a receiver from its optical input power (dBm).

    The photocurrent is responsivity times the power in watts; dividing by
    :data:`NOISE_SIGMA` gives the Q factor. Zero power in the linear domain
    (-inf dBm) gives the coin-flip floor, BER = 0.5.
    """
    if responsivity <= 0:
        raise DomainError("responsivity must be > 0 A/W")
    photocurrent = responsivity * dbm_to_watts(received_power)
    q = photocurrent / NOISE_SIGMA
    return BerEstimate(q_factor=q, ber=ber_from_q(q))


def route_chain(network: Network, spans: Sequence[Span]) -> list[Run]:
    """The :func:`fiberplan.power_budget.span_runs` rows of each span, then one margin row.

    ``spans`` is the path in order, as given by :func:`fiberplan.model.spans_along`
    for a node path or :func:`fiberplan.model.ring_spans` for the whole ring.
    The rows' counts are the path's elements; past :data:`MAX_TRACE_ELEMENTS`, a second
    pass raises DomainError naming the span at which the path passes it, before any label is formatted.
    """
    losses, margin = network.losses, network.losses.system_margin
    runs = [run for span in spans for run in span_runs(span, losses)]
    if margin > 0:
        runs.append(("margin", -margin, 1, margin))
    if sum([count for _, _, count, _ in runs]) > MAX_TRACE_ELEMENTS:
        elements = int(margin > 0)
        for span in spans:
            elements += sum([count for _, _, count, _ in span_runs(span, losses)])
            if elements > MAX_TRACE_ELEMENTS:
                raise DomainError(
                    f"span {span.id!r}: too many joints to trace: {resolved_splices(span):.3g} splices"
                    f" (length {span.length:g} km), {span.connectors:.3g} connectors;"
                    f" the path would hold {elements:.6g} elements, over the cap of {MAX_TRACE_ELEMENTS}"
                )
    return runs


def run_trace(
    doc: NetworkDocument,
    path_spec: str = "ring",
    input_power: float | None = None,
    with_ber: bool = False,
) -> tuple[PowerTrace, BerEstimate | None]:
    """Propagate power along a path of a parsed network document.

    ``input_power`` defaults to the plant transceiver's transmit power. With
    ``with_ber`` the Gaussian-model BER at the final point is appended, using
    the transceiver's responsivity. Raises ValidationFailure if the network
    breaks a structural rule.
    """
    network = doc.network
    check_valid(network)
    _, spans = resolve_path(network, path_spec)
    power = network.transceiver.tx_power if input_power is None else input_power
    trace = propagate(power, route_chain(network, spans))
    ber = estimate_ber(trace.final_power, network.transceiver.responsivity) if with_ber else None
    return trace, ber


def render_trace_text(trace: PowerTrace, ber: BerEstimate | None = None) -> str:
    distinct = set(trace.labels)  # a few distinct labels repeat
    width = max(map(len, distinct))
    padded = {label: f"{label:<{width}}" for label in distinct}
    cells: list[object] = [None, None] * len(trace.powers)  # label, power, label, power, ...
    cells[::2], cells[1::2] = map(padded.__getitem__, trace.labels), trace.powers
    text = "%s  %9.2f dBm\n" * len(trace.powers) % tuple(cells)
    if ber is not None:
        text += f"\nQ factor at end point: {ber.q_factor:.3f}\nBER estimate: {ber.ber:.3e}\n"
    return text


_POINT_JSON = row(dict.fromkeys(("label", "power")))
_TRACE_JSON = [skeleton({"points": [], "final_power": None, **ber})  # without, then with the BER
               for ber in ({}, {"ber": dict.fromkeys(("q_factor", "ber"))})]


def render_trace_json(trace: PowerTrace, ber: BerEstimate | None = None) -> str:
    """The trace as JSON, byte for byte what json.dumps(indent=2) writes."""
    labels = {label: _json_str(label) for label in set(trace.labels)}  # a few distinct labels repeat
    spelled = spell(trace.powers, SLOT[2] * len(trace.powers))
    values = [db(trace.final_power)]
    if ber is not None:
        values += round(ber.q_factor, 3), float(f"{ber.ber:.3e}")
    return dumps(_TRACE_JSON[ber is not None], values,
                 points=list(map(_POINT_JSON.__mod__, zip(map(labels.__getitem__, trace.labels), spelled))))
