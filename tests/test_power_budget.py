from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fiberplan.model import (
    Amplifier,
    ComponentLosses,
    DomainError,
    FiberProfile,
    Span,
    Splitter,
    resolved_splices,
    ring_spans,
)
from fiberplan.power_budget import (
    AmplifierPlan,
    amplifier_requirement,
    check_losses,
    max_allowed_loss,
    received_power,
    required_input_power,
    span_runs,
    splitter_loss,
)
from fiberplan.planning import run_plan
from fiberplan.signal_chain import propagate

from conftest import LOSSES, make_span, plan_row

loss_values = st.floats(min_value=0.0, max_value=60.0)


def backbone_worked_span():
    """The 84.9 km backbone treated as one span with its full joint inventory."""
    return make_span("backbone", "a", "b", length=84.9, connectors=14, splices=46)


class TestSpanLoss:
    def test_backbone_worked_example(self):
        losses = ComponentLosses(connector_loss=0.3, splice_loss=0.05, system_margin=3.0)
        connector, fiber, splice, _, margin, total = plan_row(backbone_worked_span(), losses)[4:10]
        assert connector == pytest.approx(4.2)
        assert fiber == pytest.approx(25.47)
        assert splice == pytest.approx(2.3)
        assert margin == 3.0
        assert total == pytest.approx(34.97, abs=0.005)

    def test_vanishing_span_loses_nothing(self):
        losses = ComponentLosses(connector_loss=0.3, splice_loss=0.05, system_margin=0.0)
        span = make_span("tiny", "a", "b", length=1e-12, connectors=0, splices=0)
        assert plan_row(span, losses)[9] == pytest.approx(0.0, abs=1e-9)

    def test_four_term_hand_sum(self):
        # independent oracle: accumulate the itemized contributions one by one
        terms = [2 * 0.3, 3 * 0.2, 3 * 0.05, 1.0]
        expected = 0.0
        for term in terms:
            expected += term
        assert expected == pytest.approx(2.35)

        fiber = FiberProfile(name="d02", attenuation=0.2, dispersion=3.5, drum_length=3.0)
        span = Span(id="d", from_node="a", to_node="b", length=3.0, fiber=fiber, connectors=2, splices=3)
        losses = ComponentLosses(connector_loss=0.3, splice_loss=0.05, system_margin=1.0)
        assert plan_row(span, losses)[9] == pytest.approx(expected, abs=1e-12)

    def test_auto_splices_follow_drum_length(self):
        losses = ComponentLosses(connector_loss=0.0, splice_loss=1.0, system_margin=0.0)
        span = make_span("auto", "a", "b", length=8.4)  # drum 3 km -> 5 splices
        assert plan_row(span, losses)[6] == pytest.approx(5.0)

    def test_breakdown_identity_enforced(self):
        span = make_span("s", "a", "b", connectors=3, splices=4, splitters=(Splitter(4),))
        connector, fiber, splice, splitter, margin, total = plan_row(span)[4:10]
        assert total == connector + fiber + splice + splitter + margin  # the row's five figures, in column order

    @pytest.mark.parametrize("field", ["connector_total", "fiber_total", "splice_total", "splitter_total", "margin"])
    @pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf])
    def test_breakdown_names_the_field_out_of_range(self, field, bad):
        parts = dict(connector_total=1.0, fiber_total=2.0, splice_total=0.0, splitter_total=-0.0, margin=3.0)
        check_losses(*parts.values())  # 0 and -0.0 are in range
        with pytest.raises(DomainError, match=f"^loss breakdown: {field} must be a finite number >= 0 dB$"):
            check_losses(*{**parts, field: bad}.values())
        with pytest.raises(DomainError, match="^loss breakdown: connector_total "):  # the first bad field is named
            check_losses(*{**parts, field: bad, "connector_total": math.nan}.values())

    @given(ratios=st.lists(st.sampled_from([2, 4, 8, 16]), min_size=0, max_size=6))
    def test_splitter_order_does_not_change_the_total(self, ratios):
        losses = ComponentLosses(connector_loss=0.3, splice_loss=0.05, system_margin=3.0)
        forward = make_span("f", "a", "b", length=5.0, splitters=tuple(Splitter(r) for r in ratios))
        backward = make_span("f", "a", "b", length=5.0, splitters=tuple(Splitter(r) for r in reversed(ratios)))
        assert plan_row(forward, losses)[9] == plan_row(backward, losses)[9]


def with_total(*figures: float) -> tuple[float, ...]:
    """Five loss figures, then their total as a row adds them: in column order."""
    connector, fiber, splice, splitter, margin = figures
    return (*figures, connector + fiber + splice + splitter + margin)


def product_span_loss(span: Span, losses: ComponentLosses) -> tuple[float, ...]:
    """Reference: the span loss as unit loss x count per kind, splitters summed exactly; laid out as row[4:10]."""
    return with_total(
        losses.connector_loss * span.connectors,
        span.fiber.attenuation * span.length,
        losses.splice_loss * resolved_splices(span),
        math.fsum(splitter_loss(s, losses.splitter_excess_loss) for s in span.splitters),
        losses.system_margin,
    )


RATIOS = st.sampled_from([2, 4, 8, 16, 64])


@st.composite
def spans_and_losses(draw):
    unit = st.floats(min_value=0.0, max_value=10.0)
    losses = ComponentLosses(connector_loss=draw(unit), splice_loss=draw(unit), system_margin=draw(unit),
                             splitter_excess_loss=draw(unit))
    fiber = FiberProfile(name="f", attenuation=draw(st.floats(min_value=1e-3, max_value=2.0)), dispersion=3.5,
                         drum_length=draw(st.floats(min_value=0.5, max_value=6.0)))
    splitters = draw(st.one_of(
        st.lists(RATIOS, max_size=4).map(tuple),
        st.tuples(RATIOS, RATIOS).filter(lambda p: p[0] != p[1]).map(lambda p: (p[0],) * 3 + (p[1],)),
    ))
    span = Span(
        id="s", from_node="a", to_node="b", length=draw(st.floats(min_value=1e-3, max_value=200.0)), fiber=fiber,
        connectors=draw(st.one_of(st.integers(0, 3), st.integers(0, 10**6))),
        splices=draw(st.one_of(st.none(), st.integers(0, 10**6))),
        amplifiers=tuple(Amplifier(g) for g in draw(st.lists(st.floats(min_value=1.0, max_value=30.0), max_size=2))),
        splitters=tuple(Splitter(r) for r in splitters),
    )
    return span, losses


class TestSpanRuns:
    def test_rows_follow_the_trace_order(self):
        span = make_span("s", "a", "b", connectors=3, splices=4, splitters=(Splitter(2), Splitter(8)),
                         amplifiers=(Amplifier(17.0),))
        rows = span_runs(span, LOSSES)
        assert [(kind, count, part) for kind, _, count, part in rows] == [
            ("connector", 1, None), ("fiber", 1, span), ("splice", 4, None), ("splitter", 1, Splitter(2)),
            ("splitter", 1, Splitter(8)), ("amplifier", 1, Amplifier(17.0)), ("connector", 2, None),
        ]
        assert propagate(0.0, rows).labels == (
            "input", "connector", "fiber 5 km (test-fiber)", *["splice"] * 4, "splitter 1x2", "splitter 1x8",
            "edfa +17 dB", "connector", "connector",
        )

    def test_row_count_does_not_grow_with_the_splice_count(self):
        few = span_runs(make_span("s", "a", "b", splices=3), LOSSES)
        many = span_runs(make_span("s", "a", "b", splices=10**5), LOSSES)
        assert len(few) == len(many) == 4
        assert [count for _, _, count, _ in many] == [1, 1, 10**5, 1]

    def test_a_span_without_connectors_keeps_zero_count_rows(self):
        span = make_span("s", "a", "b", connectors=0, splices=0)
        assert [(kind, count) for kind, _, count, _ in span_runs(span, LOSSES)] == [
            ("connector", 0), ("fiber", 1), ("splice", 0), ("connector", 0),
        ]
        assert repr(plan_row(span)[4]) == "0.0"

    @given(case=spans_and_losses())
    def test_span_loss_equals_the_product_formulas(self, case):
        span, losses = case
        assert repr(plan_row(span, losses)[4:10]) == repr(product_span_loss(span, losses))

    def test_identical_splitters_are_not_summed_as_a_product_beside_another(self):
        # fsum([l, l, l, m]) is not fsum([l * 3, m]) in general; this pair differs.
        losses = ComponentLosses(connector_loss=0.3, splice_loss=0.05, system_margin=0.0,
                                 splitter_excess_loss=0.1)
        span = make_span("s", "a", "b", splitters=(Splitter(4),) * 3 + (Splitter(2),))
        same, other = splitter_loss(Splitter(4), 0.1), splitter_loss(Splitter(2), 0.1)
        assert math.fsum([same] * 3 + [other]) != math.fsum([same * 3, other])
        assert plan_row(span, losses)[7] == math.fsum([same] * 3 + [other])


def rows_by_kind(span: Span, losses: ComponentLosses) -> tuple[tuple[float, ...], int]:
    """Reference: the span_runs rows summed by kind, laid out as row[4:10], and their element count.

    Each kind's total is its unit loss times its total count, rounded once; the
    splitters are summed with fsum, the amplifiers left out.
    """
    units: dict[str, float] = {}
    counts = {"connector": 0, "fiber": 0, "splice": 0}
    splitters: list[float] = []
    rows = span_runs(span, losses)
    for kind, effect, count, _ in rows:
        if kind == "splitter":
            splitters += [-effect] * count
        elif kind != "amplifier":
            units[kind], counts[kind] = -effect, counts[kind] + count
    totals = [units[kind] * counts[kind] for kind in ("connector", "fiber", "splice")]
    return with_total(*totals, math.fsum(splitters), losses.system_margin), sum(row[2] for row in rows)


def exact_path_losses(spans: list[Span], losses: ComponentLosses) -> tuple[list[Fraction], Fraction]:
    """Reference: a path's loss as exact sums of its spans' span_runs rows, in Fractions: connectors,
    fiber, splices, splitters, the margin once, and the total; then the exact sum of its amplifier gains."""
    kinds = {"connector": Fraction(0), "fiber": Fraction(0), "splice": Fraction(0), "splitter": Fraction(0)}
    gains = Fraction(0)
    for span in spans:
        for kind, effect, count, _ in span_runs(span, losses):
            if kind == "amplifier":
                gains += Fraction(effect) * count
            else:
                kinds[kind] -= Fraction(effect) * count
    margin = Fraction(losses.system_margin)
    return [*kinds.values(), margin, sum(kinds.values()) + margin], gains


@st.composite
def small_spans(draw):
    unit = st.floats(min_value=0.0, max_value=10.0)
    losses = ComponentLosses(connector_loss=draw(unit), splice_loss=draw(unit), system_margin=draw(unit),
                             splitter_excess_loss=draw(unit))
    fiber = FiberProfile(name="f", attenuation=draw(st.floats(min_value=1e-3, max_value=2.0)), dispersion=3.5,
                         drum_length=draw(st.floats(min_value=0.5, max_value=6.0)))
    span = Span(
        id="s", from_node="a", to_node="b", length=draw(st.floats(min_value=1e-3, max_value=200.0)), fiber=fiber,
        connectors=draw(st.integers(0, 4)),
        splices=draw(st.one_of(st.none(), st.integers(0, 50))),  # None is "auto"
        splitters=tuple(Splitter(r) for r in draw(st.lists(RATIOS, max_size=3))),
        amplifiers=tuple(Amplifier(g) for g in draw(st.lists(st.floats(min_value=1.0, max_value=30.0), max_size=2))),
    )
    return span, losses


class TestSpanSummary:
    @given(case=small_spans())
    def test_one_model_behind_the_summary_and_the_rows(self, case):
        span, losses = case
        row = plan_row(span, losses)
        reference, count = rows_by_kind(span, losses)
        assert repr(row[4:10]) == repr(reference)
        assert row[3] == resolved_splices(span)
        assert count == span.connectors + 1 + row[3] + len(span.splitters) + len(span.amplifiers)

    def test_counts_by_hand(self):
        span = make_span("s", "a", "b", connectors=3, splitters=(Splitter(4),), amplifiers=(Amplifier(17.0),))
        # 5 km over 3 km drums: 4 splices; 3 connectors + fiber + 4 splices + splitter + amplifier
        assert plan_row(span)[3] == 4
        assert sum(count for _, _, count, _ in span_runs(span, LOSSES)) == 10


class TestSplitterLoss:
    def test_ideal_split_values(self):
        assert splitter_loss(Splitter(2)) == pytest.approx(3.0103, abs=1e-4)
        assert splitter_loss(Splitter(4)) == pytest.approx(6.0206, abs=1e-4)

    def test_excess_is_additive(self):
        assert splitter_loss(Splitter(2), excess=1.0) == pytest.approx(splitter_loss(Splitter(2)) + 1.0)

    @pytest.mark.parametrize("ratio", [1, 3, 5, 0, -2])
    def test_invalid_ratio(self, ratio):
        with pytest.raises(DomainError):
            splitter_loss(Splitter(ratio))

    def test_negative_excess(self):
        with pytest.raises(DomainError):
            splitter_loss(Splitter(2), excess=-0.5)


class TestBudgetChain:
    def test_minimum_backbone_exit_power(self):
        assert required_input_power(-21.0, 16.67) == pytest.approx(-4.33, abs=0.005)

    def test_backbone_loss_budget(self):
        assert max_allowed_loss(9.0, -4.33) == pytest.approx(13.33, abs=0.005)

    def test_zero_budget(self):
        assert max_allowed_loss(0.0, 0.0) == 0.0

    def test_budget_beyond_the_float_range_is_a_domain_error(self):
        # Raw floats from a library caller; a transceiver's dBm fields are bounded.
        with pytest.raises(DomainError, match=r"^loss budget between tx_power 1e\+308 dBm and rx_sensitivity -1e\+308 dBm"
                                              r" is beyond the float range$"):
            max_allowed_loss(1e308, -1e308)


class TestAmplifierRequirement:
    def test_worked_sizing(self):
        plan = amplifier_requirement(34.97, 13.33, 20.0)
        assert plan.gain_deficit == pytest.approx(21.64, abs=0.005)
        assert plan.edfa_count == 2
        assert plan.total_gain == pytest.approx(40.0)

    def test_within_budget_needs_nothing(self):
        plan = amplifier_requirement(10.0, 13.33, 20.0)
        assert plan.gain_deficit == 0.0
        assert plan.edfa_count == 0
        assert plan.total_gain == 0.0

    def test_three_unit_case_matches_exhaustive_search(self):
        plan = amplifier_requirement(60.0, 13.33, 20.0)
        deficit = 60.0 - 13.33
        count = 0
        while 20.0 * count < deficit:  # least k with 20k >= deficit
            count += 1
        assert count == 3
        assert plan.edfa_count == count
        assert plan.total_gain == pytest.approx(60.0)

    def test_rejects_nonpositive_unit_gain(self):
        with pytest.raises(DomainError):
            amplifier_requirement(30.0, 10.0, 0.0)

    def test_plan_invariants_enforced(self):
        plan = AmplifierPlan(gain_deficit=21.64, unit_gain=20.0)
        assert (plan.edfa_count, plan.total_gain) == (2, 40.0)
        with pytest.raises(TypeError):  # count and gain are derived, so contradicting ones cannot be given
            AmplifierPlan(gain_deficit=21.64, unit_gain=20.0, edfa_count=1, total_gain=20.0)
        with pytest.raises(DomainError, match="amplifier unit gain must be > 0 dB"):
            AmplifierPlan(gain_deficit=21.64, unit_gain=0.0)

    def test_unit_gain_too_small_to_count_is_a_domain_error(self):
        with pytest.raises(DomainError, match="edfa_gain"):
            amplifier_requirement(34.97, 13.33, 1e-320)
        assert amplifier_requirement(10.0, 13.33, 1e-320).edfa_count == 0  # nothing to cover

    @given(
        actual=st.floats(min_value=0.0, max_value=120.0),
        tx=st.floats(min_value=-5.0, max_value=15.0),
        sensitivity=st.floats(min_value=-40.0, max_value=-10.0),
        unit=st.floats(min_value=5.0, max_value=30.0),
    )
    def test_planned_gain_restores_the_floor(self, actual, tx, sensitivity, unit):
        budget = max_allowed_loss(tx, sensitivity)
        plan = amplifier_requirement(actual, budget, unit)
        assert plan.total_gain >= plan.gain_deficit
        assert received_power(tx, [actual], [plan.total_gain]) >= sensitivity - 1e-9


class TestReceivedPower:
    def test_worked_example(self):
        assert received_power(9.0, [34.97, 16.67], [40.0]) == pytest.approx(-2.64, abs=0.005)

    def test_lossless(self):
        assert received_power(9.0, [], []) == 9.0

    def test_single_loss(self):
        assert received_power(10.0, [2.35]) == pytest.approx(7.65)

    def test_sum_beyond_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^received power beyond the float range$"):
            received_power(1.5e308, [], [1e308])
        assert received_power(1.5e308, [1e308], [1e308]) == 1.5e308  # only the exact sum counts

    @given(
        tx=st.floats(min_value=-10.0, max_value=15.0),
        losses=st.lists(loss_values, max_size=8),
        gains=st.lists(loss_values, max_size=4),
        extra=loss_values,
    )
    def test_linearity_in_added_loss(self, tx, losses, gains, extra):
        base = received_power(tx, losses, gains)
        lowered = received_power(tx, losses + [extra], gains)
        assert lowered == pytest.approx(base - extra, abs=1e-9)


class TestPathLoss:
    def test_margin_applied_once_across_the_ring(self, sleman_doc):
        net = sleman_doc.network
        report = run_plan(sleman_doc, "gpon-onu-endpoint")
        *_, margin, total = report.path  # the ring crosses every span once
        per_span_sum = math.fsum(row[9] for row in report.spans)
        assert len(report.spans) == len(net.spans)
        duplicated = (len(net.spans) - 1) * net.losses.system_margin
        assert total == pytest.approx(per_span_sum - duplicated, abs=1e-9)
        assert margin == net.losses.system_margin

    def test_breakdown_components_add_up(self, sleman_doc):
        """Each figure of the path, its total too, is the exact sum of the elements it counts, rounded once."""
        net = sleman_doc.network
        exact, _ = exact_path_losses(ring_spans(net), net.losses)
        assert run_plan(sleman_doc, "gpon-onu-endpoint").path == tuple(map(float, exact))

    def test_amplifiers_do_not_affect_loss(self, sleman_doc):
        net = sleman_doc.network
        with_amp = [s for s in net.spans if s.amplifiers]
        assert with_amp, "fixture should carry EDFAs"
        span = with_amp[0]
        stripped = Span(
            id=span.id, from_node=span.from_node, to_node=span.to_node,
            length=span.length, fiber=span.fiber, connectors=span.connectors,
            splices=span.splices,
        )
        assert plan_row(span, net.losses) == plan_row(stripped, net.losses)
