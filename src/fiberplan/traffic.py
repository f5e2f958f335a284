"""Subscriber forecasting: the population-to-LTE derivation chain plus
compound annual growth.

Every stage rounds to the nearest whole subscriber with ties toward zero;
that single rule is applied consistently at each multiplication, and growth
compounds annually on the final (LTE) stage.

The forecast command lives here too: :func:`traffic_input_from_mapping` reads
a network file's ``traffic`` object, and ``render_forecast_*`` report the
forecast as text or JSON.
"""

from __future__ import annotations

import math
from collections import abc

from .model import DomainError, TrafficInput, frozen
from .netfile import object_reader
from .report import dumps, skeleton

MAX_PROJECTED_SUBSCRIBERS = 10**11
"""Most subscribers :func:`project_growth` may project: the largest LTE base the input ranges allow
(10^10 people at 10 subscriptions each), so that every count a forecast prints stays below 1e12."""


def round_half_toward_zero(x: float) -> int:
    """Round to nearest integer; exact .5 ties go toward zero."""
    if x >= 0:
        return int(math.ceil(x - 0.5))
    return int(math.floor(x + 0.5))


@frozen
class TrafficForecast:
    """The derivation chain's stages, all in whole subscribers."""

    mobile_subscribers: int
    operator_subscribers: int
    lte_subscribers: int
    projected_subscribers: int


def project_growth(base: int, rate: float, years: int) -> int:
    """Compound ``base`` by ``rate`` annually for ``years`` years and round.

    Expects base >= 0, years >= 0. Raises DomainError naming the rate and the
    horizon when the projection passes :data:`MAX_PROJECTED_SUBSCRIBERS`.
    """
    try:
        grown = base * (1.0 + rate) ** years
    except OverflowError:
        grown = math.inf
    if not grown <= MAX_PROJECTED_SUBSCRIBERS:
        what = f"projected subscribers (annual_growth {rate:g}, horizon {years} years)"
        raise DomainError(f"{what} over the cap of {MAX_PROJECTED_SUBSCRIBERS:,}")
    return round_half_toward_zero(grown)


def forecast_subscribers(inputs: TrafficInput) -> TrafficForecast:
    """Run the three-stage multiplication chain and the horizon projection.

    population -> mobile subscribers -> operator subscribers -> LTE
    subscribers, each stage rounded before feeding the next; the projection
    compounds annual growth on the LTE stage.
    """
    mobile = round_half_toward_zero(inputs.population * inputs.cellular_penetration)
    operator = round_half_toward_zero(mobile * inputs.operator_share)
    lte = round_half_toward_zero(operator * inputs.lte_penetration)
    projected = project_growth(lte, inputs.annual_growth, inputs.horizon)
    return TrafficForecast(
        mobile_subscribers=mobile,
        operator_subscribers=operator,
        lte_subscribers=lte,
        projected_subscribers=projected,
    )


_read_traffic = object_reader(TrafficInput)


def traffic_input_from_mapping(raw: abc.Mapping[str, object]) -> TrafficInput:
    """Build forecast inputs from a network file's ``traffic`` object: counts must be integers, rates numbers."""
    return _read_traffic(dict(raw) if isinstance(raw, abc.Mapping) else raw, "traffic")


def render_forecast_text(inputs: TrafficInput, forecast: TrafficForecast) -> str:
    rows = [
        ("population", inputs.population, ""),
        ("mobile subscribers", forecast.mobile_subscribers, f"x {inputs.cellular_penetration:g}"),
        ("operator subscribers", forecast.operator_subscribers, f"x {inputs.operator_share:g}"),
        ("lte subscribers", forecast.lte_subscribers, f"x {inputs.lte_penetration:g}"),
        (
            f"projected ({inputs.horizon} yr)",
            forecast.projected_subscribers,
            f"x (1 + {inputs.annual_growth:g})^{inputs.horizon}",
        ),
    ]
    lines = [f"{name:<22} {value:>12,d}  {note}".rstrip() for name, value, note in rows]
    return "\n".join(lines) + "\n"


_FORECAST_JSON = skeleton({"inputs": dict.fromkeys(TrafficInput._fields), **dict.fromkeys(TrafficForecast._fields)})


def render_forecast_json(inputs: TrafficInput, forecast: TrafficForecast) -> str:
    """The forecast as JSON, as json.dumps(indent=2) writes it."""
    values = [getattr(inputs, name) for name in TrafficInput._fields]
    return dumps(_FORECAST_JSON, values + [getattr(forecast, name) for name in TrafficForecast._fields])
