from __future__ import annotations

import pytest

from fiberplan import model, risetime, signal_chain
from fiberplan.model import ConfigurationError, ValidationFailure, ring_spans
from fiberplan.netfile import NetworkFileError, load_network
from fiberplan.planning import render_plan_json, render_plan_text, run_plan
from fiberplan.signal_chain import render_trace_text, run_trace
from fiberplan.traffic import TrafficInput, forecast_subscribers, render_forecast_text, traffic_input_from_mapping


def strip_amplifiers(doc):
    for span in doc["spans"]:
        span.pop("amplifiers", None)


def parallel_ring(doc):
    """A valid 2-node ring whose two spans both join west and east."""
    doc["nodes"] = [{"id": "west", "name": "West"}, {"id": "east", "name": "East"}]
    doc["spans"] = [
        {"id": "s1", "from": "west", "to": "east", "length": 10.0, "fiber": "g652-backbone", "splices": "auto"},
        {"id": "s2", "from": "east", "to": "west", "length": 50.0, "fiber": "g652-backbone", "splices": "auto"},
    ]


class TestRunPlan:
    def test_bundled_ring_passes(self, sleman_doc):
        report = run_plan(sleman_doc, "gpon-onu-endpoint")
        assert report.overall_pass
        assert report.amplifier_plan.edfa_count == 2
        assert report.amplifier_plan.total_gain == pytest.approx(40.0)
        assert report.planning_floor == pytest.approx(-4.33, abs=0.005)
        assert report.max_loss == pytest.approx(13.33, abs=0.005)
        # the reconstructed span lengths sum to 84.7 km, a touch under the
        # nominal 85 km plant, so the exit power lands ~0.05 dB above the
        # single-length worked value of -2.64 dBm
        assert report.received == pytest.approx(-2.64, abs=0.1)
        assert all(v.passed for v in report.verdicts)
        rise_rows = [row.rise.total for row in report.spans]
        assert all(total < 70.0 for total in rise_rows)
        assert [row.span_id for row in report.spans] == sorted(row.span_id for row in report.spans)
        assert sum(row.splices for row in report.spans) == 46

    def test_planned_gain_covers_missing_inventory(self, write_network):
        report = run_plan(load_network(write_network(strip_amplifiers)), "gpon-onu-endpoint")
        assert report.inventory_gain == 0.0
        assert report.applied_gain == pytest.approx(40.0)
        assert report.overall_pass

    def test_as_built_without_amplifiers_fails_the_power_verdict(self, write_network):
        report = run_plan(load_network(write_network(strip_amplifiers)), "gpon-onu-endpoint", as_built=True)
        assert not report.overall_pass
        assert report.received == pytest.approx(-42.64, abs=0.1)
        power = [v for v in report.verdicts if v.quantity == "received power"][0]
        assert not power.passed
        assert all(v.passed for v in report.verdicts if v is not power)

    def test_empty_network_is_a_validation_failure(self, write_network):
        def empty(doc):
            doc["nodes"] = []
            doc["spans"] = []

        with pytest.raises(ValidationFailure):
            run_plan(load_network(write_network(empty)), "gpon-onu-endpoint")

    def test_unknown_standard(self, sleman_doc):
        with pytest.raises(ConfigurationError, match="unknown standard"):
            run_plan(sleman_doc, "itu-nonexistent")

    def test_partial_path(self, sleman_doc):
        report = run_plan(sleman_doc, "gpon-onu-endpoint", path_spec="seyegan,tempel,pakem")
        assert [row.span_id for row in report.spans] == ["01-seyegan-tempel", "02-tempel-pakem"]
        assert report.path_nodes == ("seyegan", "tempel", "pakem")

    def test_custom_standard_from_file(self, write_network):
        def add_custom(doc):
            doc["standards"] = {
                "strict": {"bit_rate": 10e9, "line_code": "nrz", "rx_sensitivity": -1.0}
            }

        report = run_plan(load_network(write_network(add_custom)), "strict")
        assert not report.overall_pass  # -2.6 dBm cannot reach a -1 dBm floor

    def test_deterministic_rendering(self, sleman_doc):
        first = run_plan(sleman_doc, "gpon-onu-endpoint")
        second = run_plan(sleman_doc, "gpon-onu-endpoint")
        assert render_plan_text(first) == render_plan_text(second)
        assert render_plan_json(first) == render_plan_json(second)

    def test_report_mentions_each_span_once(self, sleman_doc):
        report = run_plan(sleman_doc, "gpon-onu-endpoint")
        ids = [row.span_id for row in report.spans]
        assert len(ids) == len(set(ids)) == 7

    def test_each_span_row_totals_its_rise_time_once(self, sleman_doc, monkeypatch):
        calls, real_total = [], risetime.total_risetime

        def counting_total(*components):
            calls.append(components)
            return real_total(*components)

        monkeypatch.setattr(risetime, "total_risetime", counting_total)
        report = run_plan(sleman_doc, "gpon-onu-endpoint")
        render_plan_text(report)
        render_plan_json(report)
        assert len(calls) == len(report.spans) == 7

    @pytest.mark.parametrize("path, plan_calls, path_spans", [("ring", 7, 7), ("seyegan,tempel,seyegan", 1, 2)])
    def test_each_span_resolves_its_splices_once(self, sleman_doc, monkeypatch, path, plan_calls, path_spans):
        expected = render_plan_text(run_plan(sleman_doc, "gpon-onu-endpoint", path))
        calls, real_count = [], model.splice_count

        def counting_count(*args):
            calls.append(args)
            return real_count(*args)

        def no_labels(*args):
            raise AssertionError("the plan built a trace label")

        monkeypatch.setattr(model, "splice_count", counting_count)
        monkeypatch.setattr(signal_chain, "_label", no_labels)
        report = run_plan(sleman_doc, "gpon-onu-endpoint", path)
        assert render_plan_text(report) == expected
        assert len(calls) == len(report.spans) == plan_calls

        monkeypatch.undo()
        monkeypatch.setattr(model, "splice_count", counting_count)
        del calls[:]
        trace, _ = run_trace(sleman_doc, path)
        assert len(calls) <= path_spans
        assert sum(label.startswith("fiber") for label in trace.labels) == path_spans


class TestParallelSpans:
    def test_ring_plan_counts_both_spans(self, write_network):
        net_file = write_network(parallel_ring)
        assert [s.id for s in ring_spans(load_network(net_file).network)] == ["s1", "s2"]
        report = run_plan(load_network(net_file), "gpon-onu-endpoint")
        assert report.path_nodes == ("west", "east", "west")
        assert [row.span_id for row in report.spans] == ["s1", "s2"]
        assert report.path.fiber_total == pytest.approx(18.0)  # (10 + 50) km x 0.3 dB/km
        assert "+ fiber 18.00 +" in render_plan_text(report)

    def test_ring_trace_crosses_both_spans(self, write_network):
        trace, _ = run_trace(load_network(write_network(parallel_ring)), "ring")
        fibers = [label for label in trace.labels if label.startswith("fiber")]
        assert fibers == ["fiber 10 km (g652-backbone)", "fiber 50 km (g652-backbone)"]


class TestRunTrace:
    def test_defaults_to_transmit_power(self, sleman_doc):
        trace, ber = run_trace(sleman_doc, "seyegan,tempel")
        assert trace.powers[0] == 9.0
        assert ber is None

    def test_explicit_power_and_ber(self, sleman_doc):
        trace, ber = run_trace(sleman_doc, "seyegan,tempel", input_power=-20.0, with_ber=True)
        assert trace.powers[0] == -20.0
        assert ber is not None
        assert 0.0 <= ber.ber <= 0.5

    def test_ring_trace_ends_at_plan_power(self, sleman_doc):
        report = run_plan(sleman_doc, "gpon-onu-endpoint", as_built=True)
        trace, _ = run_trace(sleman_doc, "ring")
        # the trace has no distribution leg, so add it back
        assert trace.final_power - report.distribution_loss == pytest.approx(
            report.as_built_power, abs=1e-9
        )

    def test_render_trace(self, sleman_doc):
        trace, ber = run_trace(sleman_doc, "seyegan,tempel", with_ber=True)
        text = render_trace_text(trace, ber)
        assert text.startswith("input")
        assert "BER estimate" in text


class TestForecastHelpers:
    def test_forecast_from_assembled_inputs(self):
        inputs = TrafficInput(850221, 1.5, 0.42, 0.2, 0.051, 5)
        assert forecast_subscribers(inputs).projected_subscribers == 137378

    def test_mapping_roundtrip(self, sleman_doc):
        inputs = traffic_input_from_mapping(sleman_doc.traffic)
        assert inputs.population == 850221
        assert forecast_subscribers(inputs).lte_subscribers == 107128

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(NetworkFileError, match="growth_rate"):
            traffic_input_from_mapping({"growth_rate": 0.05})

    def test_mapping_rejects_missing_keys(self):
        with pytest.raises(NetworkFileError, match="population"):
            traffic_input_from_mapping({"cellular_penetration": 1.5})

    def test_render_forecast(self):
        inputs = TrafficInput(850221, 1.5, 0.42, 0.2, 0.051, 5)
        text = render_forecast_text(inputs, forecast_subscribers(inputs))
        assert "137,378" in text
        assert "850,221" in text
