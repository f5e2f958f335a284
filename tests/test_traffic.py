from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from fiberplan.model import DomainError
from fiberplan.traffic import (
    TrafficInput,
    forecast_subscribers,
    project_growth,
    round_half_toward_zero,
)

SLEMAN = TrafficInput(
    population=850221,
    cellular_penetration=1.5,
    operator_share=0.42,
    lte_penetration=0.2,
    annual_growth=0.051,
    horizon=5,
)


class TestRounding:
    def test_half_goes_toward_zero(self):
        assert round_half_toward_zero(1275331.5) == 1275331
        assert round_half_toward_zero(2.5) == 2
        assert round_half_toward_zero(-2.5) == -2

    def test_nearest_otherwise(self):
        assert round_half_toward_zero(107127.8) == 107128
        assert round_half_toward_zero(2.4) == 2
        assert round_half_toward_zero(2.6) == 3
        assert round_half_toward_zero(-2.6) == -3

    def test_integers_pass_through(self):
        assert round_half_toward_zero(42.0) == 42


class TestForecastChain:
    def test_sleman_stages(self):
        forecast = forecast_subscribers(SLEMAN)
        assert forecast.mobile_subscribers == 1275331
        assert forecast.operator_subscribers == 535639
        assert forecast.lte_subscribers == 107128
        assert forecast.projected_subscribers == 137378

    def test_empty_population(self):
        forecast = forecast_subscribers(
            TrafficInput(0, cellular_penetration=1.5, operator_share=0.42,
                         lte_penetration=0.2, annual_growth=0.051, horizon=5)
        )
        assert forecast.mobile_subscribers == 0
        assert forecast.operator_subscribers == 0
        assert forecast.lte_subscribers == 0
        assert forecast.projected_subscribers == 0

    def test_identity_ratios_and_zero_growth(self):
        forecast = forecast_subscribers(
            TrafficInput(1000, cellular_penetration=1.0, operator_share=1.0,
                         lte_penetration=1.0, annual_growth=0.0, horizon=5)
        )
        assert forecast.mobile_subscribers == 1000
        assert forecast.operator_subscribers == 1000
        assert forecast.lte_subscribers == 1000
        assert forecast.projected_subscribers == 1000

    @given(
        population=st.integers(min_value=0, max_value=10**7),
        extra=st.integers(min_value=0, max_value=10**6),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_population(self, population, extra, share):
        base = TrafficInput(population, 1.5, share, 0.2, 0.051, 5)
        more = TrafficInput(population + extra, 1.5, share, 0.2, 0.051, 5)
        assert forecast_subscribers(more).lte_subscribers >= forecast_subscribers(base).lte_subscribers

    @given(
        low=st.floats(min_value=0.0, max_value=1.0),
        bump=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_ratio(self, low, bump):
        base = TrafficInput(850221, 1.5, low, 0.2, 0.0, 0)
        more = TrafficInput(850221, 1.5, min(low + bump, 1.0), 0.2, 0.0, 0)  # a share is at most 1
        assert forecast_subscribers(more).operator_subscribers >= forecast_subscribers(base).operator_subscribers

    def test_input_invariants(self):
        with pytest.raises(DomainError):
            TrafficInput(-1, 1.5, 0.42, 0.2, 0.051, 5)
        with pytest.raises(DomainError):
            TrafficInput(1, 1.5, -0.42, 0.2, 0.051, 5)
        with pytest.raises(DomainError):
            TrafficInput(1, 1.5, 0.42, 0.2, 0.051, -1)


class TestProjectGrowth:
    def test_five_year_compound(self):
        assert project_growth(107128, 0.051, 5) == 137378

    def test_zero_years_is_identity(self):
        assert project_growth(107128, 0.051, 0) == 107128

    def test_exact_two_year_case(self):
        assert project_growth(100, 0.10, 2) == 121

    def test_projection_beyond_the_float_range_is_a_domain_error(self):
        # Raw arguments from a library caller; TrafficInput bounds the rate and the horizon.
        with pytest.raises(DomainError, match=r"^projected subscribers \(annual_growth 0\.051, horizon 100000 years\)"
                                              r" over the cap of 100,000,000,000$"):
            project_growth(107128, 0.051, 100_000)
        with pytest.raises(DomainError, match=r"annual_growth 1e\+308, horizon 5 years"):
            project_growth(1, 1e308, 5)

    @given(
        base=st.integers(min_value=0, max_value=10**7),
        rate=st.floats(min_value=0.0, max_value=0.2),
        split=st.integers(min_value=0, max_value=5),
        total=st.integers(min_value=0, max_value=5),
    )
    def test_split_projection_drift_is_bounded(self, base, rate, split, total):
        # round-trip drift stays within one subscriber while the second leg's
        # growth multiplier is below 2; beyond that the inner rounding error
        # can be amplified past a whole unit
        m = min(split, total)
        n = total - m
        if (1.0 + rate) ** n > 1.9:
            return
        stepwise = project_growth(project_growth(base, rate, m), rate, n)
        direct = project_growth(base, rate, total)
        assert abs(stepwise - direct) <= 1
