from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from fiberplan.model import DomainError, FiberProfile, LineCode, Span
from fiberplan.risetime import dispersion_risetime, max_system_risetime, total_risetime

from conftest import make_span, plan_row

DISPERSION_FREE_FLOOR = math.sqrt(60.0**2 + 35.0**2)  # sqrt(4825), shared by every backbone link

rise_ps = st.floats(min_value=0.0, max_value=500.0)


class TestCeiling:
    def test_ten_gig_nrz_is_seventy_exactly(self):
        assert max_system_risetime(10e9, LineCode.NRZ) == 70.0

    def test_unit_scaling(self):
        assert max_system_risetime(1.0, LineCode.NRZ) == 0.7e12

    def test_rz_halves_the_ceiling(self):
        assert max_system_risetime(10e9, LineCode.RZ) == max_system_risetime(10e9, LineCode.NRZ) / 2
        assert max_system_risetime(10e9, LineCode.RZ) == 35.0

    def test_rejects_nonpositive_bit_rate(self):
        with pytest.raises(DomainError):
            max_system_risetime(0.0, LineCode.NRZ)


class TestDispersionRisetime:
    def test_full_backbone(self):
        assert dispersion_risetime(3.5, 0.1, 84.9) == pytest.approx(29.715)

    def test_zero_length(self):
        assert dispersion_risetime(3.5, 0.1, 0.0) == 0.0

    def test_longest_link(self):
        assert dispersion_risetime(3.5, 0.1, 18.8) == pytest.approx(6.58, abs=1e-9)


class TestTotalRisetime:
    def test_longest_link_total(self):
        assert total_risetime(60.0, 35.0, 6.578) == pytest.approx(69.773, abs=0.01)

    def test_zero(self):
        assert total_risetime(0.0, 0.0, 0.0) == 0.0

    def test_dispersion_free_floor(self):
        assert total_risetime(60.0, 35.0, 0.0) == pytest.approx(DISPERSION_FREE_FLOOR, abs=1e-12)
        assert total_risetime(60.0, 35.0, 0.0) == pytest.approx(69.462, abs=0.001)

    @given(a=rise_ps, b=rise_ps, c=rise_ps)
    def test_symmetric_in_all_arguments(self, a, b, c):
        reference = total_risetime(a, b, c)
        assert total_risetime(b, a, c) == reference
        assert total_risetime(c, b, a) == pytest.approx(reference, rel=1e-12)

    @given(a=rise_ps, b=rise_ps, c=rise_ps)
    def test_dominates_every_component(self, a, b, c):
        assert total_risetime(a, b, c) >= max(a, b, c) - 1e-12

    @given(a=rise_ps, b=rise_ps, bump=st.floats(min_value=1e-3, max_value=100.0))
    def test_strictly_increasing_without_dispersion(self, a, b, bump):
        assert total_risetime(a + bump, b, 0.0) > total_risetime(a, b, 0.0)
        assert total_risetime(a, b + bump, 0.0) > total_risetime(a, b, 0.0)


def rise_columns(span: Span, ceiling: float) -> tuple[float, ...]:
    """The rise-time columns of the span's plan row (ps): ceiling, dispersion, tx, rx, total."""
    return plan_row(span, ceiling=ceiling)[10:15]


class TestSpanReport:
    CEILING = max_system_risetime(10e9, LineCode.NRZ)

    def test_first_backbone_link(self):
        span = make_span("01", "a", "b", length=10.094)
        ceiling, *_, total = rise_columns(span, self.CEILING)
        assert total == pytest.approx(69.552, abs=0.01)
        assert ceiling == 70.0
        assert total <= ceiling

    def test_dispersion_free_fiber_sits_on_the_floor(self):
        flat = FiberProfile(name="flat", attenuation=0.3, dispersion=0.0, drum_length=3.0)
        span = Span(id="02", from_node="a", to_node="b", length=42.0, fiber=flat)
        ceiling, dispersion, _, _, total = rise_columns(span, self.CEILING)
        assert dispersion == 0.0
        assert total == DISPERSION_FREE_FLOOR
        assert total <= ceiling

    def test_hundred_km_fails_the_ceiling(self):
        span = make_span("03", "a", "b", length=100.0)
        ceiling, dispersion, _, _, total = rise_columns(span, self.CEILING)
        assert dispersion == pytest.approx(35.0)
        assert total == pytest.approx(77.78, abs=0.01)
        assert not total <= ceiling

    @given(
        short=st.floats(min_value=0.1, max_value=100.0),
        stretch=st.floats(min_value=0.1, max_value=100.0),
    )
    def test_monotone_in_span_length(self, short, stretch):
        near = make_span("x", "a", "b", length=short)
        far = make_span("x", "a", "b", length=short + stretch)
        total_near = rise_columns(near, self.CEILING)[4]
        total_far = rise_columns(far, self.CEILING)[4]
        assert total_far > total_near


class TestReportInvariants:
    def test_total_must_be_root_sum_square(self):
        five = FiberProfile(name="five", attenuation=0.3, dispersion=5.0, drum_length=3.0)  # 5 ps over 10 km
        span = Span(id="s", from_node="a", to_node="b", length=10.0, fiber=five)
        assert rise_columns(span, 70.0) == (70.0, 5.0, 60.0, 35.0, math.sqrt(60.0**2 + 35.0**2 + 5.0**2))

    def test_pass_flag_must_match_comparison(self):
        flat = FiberProfile(name="flat", attenuation=0.3, dispersion=0.0, drum_length=3.0)
        span = Span(id="s", from_node="a", to_node="b", length=42.0, fiber=flat)
        ceiling, *_, total = rise_columns(span, DISPERSION_FREE_FLOOR)
        assert total == DISPERSION_FREE_FLOOR and total <= ceiling  # at the ceiling passes
        ceiling, *_, total = rise_columns(span, 69.0)
        assert not total <= ceiling

    def test_total_beyond_the_float_range_names_the_span(self):
        # A span that long is refused where it is built; total_risetime still guards raw floats.
        with pytest.raises(DomainError, match=r"^span 'far': length must be in \(0, 100000\] km, got 1e\+308$"):
            make_span("far", "a", "b", length=1e308)
        with pytest.raises(DomainError, match="rise time beyond the float range"):
            total_risetime(1e200, 35.0, 0.0)
