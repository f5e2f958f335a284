"""Subscriber forecasting: the population-to-LTE derivation chain plus
compound annual growth.

Every stage rounds to the nearest whole subscriber with ties toward zero;
that single rule is applied consistently at each multiplication, and growth
compounds annually on the final (LTE) stage.
"""

from __future__ import annotations

import math

from .model import FRACTION, HORIZON_YEARS, POPULATION, RATE, DomainError, check_range, frozen


def round_half_toward_zero(x: float) -> int:
    """Round to nearest integer; exact .5 ties go toward zero."""
    if x >= 0:
        return int(math.ceil(x - 0.5))
    return int(math.floor(x + 0.5))


@frozen
class TrafficInput:
    """Inputs of the subscriber derivation chain."""

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
class TrafficForecast:
    """The derivation chain's stages, all in whole subscribers."""

    mobile_subscribers: int
    operator_subscribers: int
    lte_subscribers: int
    projected_subscribers: int


def project_growth(base: int, rate: float, years: int) -> int:
    """Compound ``base`` by ``rate`` annually for ``years`` years and round.

    Expects base >= 0, years >= 0. Raises DomainError when the projection is
    beyond the float range, which the bounds of :class:`TrafficInput` keep
    :func:`forecast_subscribers` from reaching.
    """
    try:
        grown = base * (1.0 + rate) ** years
    except OverflowError:
        grown = math.inf
    if grown == math.inf:
        what = f"projected subscribers (annual_growth {rate:g}, horizon {years} years)"
        raise DomainError(f"{what} beyond the float range")
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
