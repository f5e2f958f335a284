from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

from fiberplan import model, planning, signal_chain
from fiberplan.data import sleman_path
from fiberplan.model import ConfigurationError, ValidationFailure, resolve_path, ring_spans
from fiberplan.netfile import NetworkFileError, load_network, parse_network
from fiberplan.planning import PlanReport, render_plan_json, render_plan_text, run_plan, verdict_table
from fiberplan.risetime import dispersion_risetime, max_system_risetime, total_risetime
from fiberplan.signal_chain import render_trace_text, run_trace
from fiberplan.traffic import TrafficInput, forecast_subscribers, render_forecast_text, traffic_input_from_mapping

from test_power_budget import exact_path_losses, rows_by_kind


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
        rise_rows = [row[14] for row in report.spans]
        assert all(total < 70.0 for total in rise_rows)
        assert [row[0] for row in report.spans] == sorted(row[0] for row in report.spans)
        assert sum(row[3] for row in report.spans) == 46

    def test_planned_gain_covers_missing_inventory(self, write_network):
        report = run_plan(load_network(write_network(strip_amplifiers)), "gpon-onu-endpoint")
        assert report.inventory_gain == 0.0
        assert report.applied_gain == pytest.approx(40.0)
        assert report.overall_pass

    def test_as_built_without_amplifiers_fails_the_power_verdict(self, write_network):
        report = run_plan(load_network(write_network(strip_amplifiers)), "gpon-onu-endpoint", as_built=True)
        assert not report.overall_pass
        assert report.received == pytest.approx(-42.64, abs=0.1)
        power, *rise = report.verdicts  # each read builds new verdicts, so the power one is taken by position
        assert power.quantity == "received power" and power == report.power_verdict and not power.passed
        assert all(v.passed for v in rise)

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
        assert [row[0] for row in report.spans] == ["01-seyegan-tempel", "02-tempel-pakem"]
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
        ids = [row[0] for row in report.spans]
        assert len(ids) == len(set(ids)) == 7

    def test_each_span_row_totals_its_rise_time_once(self, sleman_doc, monkeypatch):
        calls, real_total = [], planning.total_risetime

        def counting_total(*components):
            calls.append(components)
            return real_total(*components)

        monkeypatch.setattr(planning, "total_risetime", counting_total)
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


def seeded_ring(seed: int) -> dict:
    """A seeded ring of 3-12 nodes, or of 2 nodes joined by two parallel spans on every tenth seed.

    Spans get 0-4 connectors, explicit or ``auto`` splices, and some carry 1-3 splitters or an EDFA.
    """
    rng = random.Random(seed)
    doc = json.loads(sleman_path().read_text(encoding="utf-8"))
    ids = [f"n{i}" for i in range(2 if seed % 10 == 0 else rng.randint(3, 12))]
    doc["nodes"] = [{"id": node, "name": node.upper()} for node in ids]
    doc["losses"]["splitter_excess_loss"] = rng.choice([0.0, 0.5])
    doc["spans"] = []
    for i, (a, b) in enumerate(zip(ids, ids[1:] + ids[:1])):
        span = {"id": f"s{i:02d}", "from": a, "to": b, "length": round(rng.uniform(0.5, 40.0), 3),
                "fiber": rng.choice(["g652-backbone", "g984-distribution"]),
                "splices": rng.choice(["auto", rng.randint(0, 30)]), "connectors": rng.randint(0, 4)}
        if rng.random() < 0.4:
            span["splitters"] = [rng.choice([2, 4, 8, 16]) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            span["amplifiers"] = [{"gain": 20.0, "kind": "edfa"}]
        doc["spans"].append(span)
    return doc


def gpon_tree() -> dict:
    """An OLT fanning out 8 ways over 3 levels (584 spans, 512 leaves), a 1x8 splitter on each span of
    the first two levels, as the gpon-tree benchmark plant is laid out."""
    rng = random.Random(8)
    doc = json.loads(sleman_path().read_text(encoding="utf-8"))
    doc.update(topology="tree", head="olt", nodes=[{"id": "olt", "name": "OLT"}], spans=[])
    frontier = ["olt"]
    for level in (1, 2, 3):
        children = [f"{parent}.{k}" for parent in frontier for k in range(8)]
        for child in children:
            doc["nodes"].append({"id": child, "name": child.upper()})
            doc["spans"].append({"id": f"f-{child}", "from": child.rpartition(".")[0], "to": child,
                                 "length": round(rng.uniform(0.5, 4.0), 3), "fiber": "g984-distribution",
                                 "splices": "auto", **({"splitters": [8]} if level < 3 else {})})
        frontier = children
    return doc


def assert_rows_match_the_reference_fold(doc, path: str = "ring") -> None:
    """Every figure of every row, bit for bit, against the reference fold of span_runs and the span's
    rise-time budget from dispersion_risetime and total_risetime; each path figure and both received powers
    against the exact Fraction sum of the path's rows, rounded once; and, with no distribution leg, the
    as-built power against the trace's end."""
    net = doc.network
    report = run_plan(doc, "gpon-onu-endpoint", path)
    spans = resolve_path(net, path)[1]
    by_id = {span.id: span for span in spans}
    ceiling = max_system_risetime(report.standard.bit_rate, report.standard.line_code)
    assert [row[0] for row in report.spans] == sorted(by_id)
    tx, rx = net.transceiver.tx_rise_time, net.transceiver.rx_rise_time
    for row in report.spans:
        span = by_id[row[0]]
        loss, _ = rows_by_kind(span, net.losses)
        dispersion = dispersion_risetime(span.fiber.dispersion, net.transceiver.spectral_width, span.length)
        expected = (span.id, f"{net.node_name(span.from_node)} - {net.node_name(span.to_node)}", span.length,
                    model.resolved_splices(span), *loss, ceiling, dispersion, tx, rx,
                    total_risetime(tx, rx, dispersion))
        assert repr(row) == repr(expected)
    exact, gains = exact_path_losses(spans, net.losses)
    assert repr(report.path) == repr(tuple(map(float, exact)))
    end = Fraction(net.transceiver.tx_power) - exact[5] - Fraction(doc.distribution_loss)
    assert report.as_built_power == float(end + gains)
    planned = report.applied_gain != report.inventory_gain  # the sized gain, one figure, stands in for the inventory
    assert report.received == float(end + (Fraction(report.applied_gain) if planned else gains))
    if doc.distribution_loss == 0:
        assert report.as_built_power == run_trace(doc, path)[0].final_power


class TestSpanRows:
    @pytest.mark.parametrize("seed", range(40))
    def test_ring_rows_equal_the_reference_fold(self, seed):
        doc = parse_network({**seeded_ring(seed), "distribution_loss": 0.0})
        assert_rows_match_the_reference_fold(doc)
        if len(doc.network.nodes) > 2:
            assert_rows_match_the_reference_fold(doc, "n1,n0,n1,n2")  # a span crossed twice counts twice

    def test_the_seeded_rings_reach_every_kind_of_span(self):
        spans = [span for seed in range(40) for span in parse_network(seeded_ring(seed)).network.spans]
        assert any(span.splitters for span in spans) and any(span.amplifiers for span in spans)
        assert any(span.splices is None for span in spans) and any(span.splices is not None for span in spans)
        assert len(parse_network(seeded_ring(0)).network.spans) == 2  # parallel spans
        reports = [run_plan(parse_network({**seeded_ring(seed), "distribution_loss": 0.0}), "gpon-onu-endpoint")
                   for seed in range(40)]
        assert {r.applied_gain != r.inventory_gain for r in reports} == {True, False}  # sized gain applied, or not

    def test_tree_leaf_rows_equal_the_reference_fold(self):
        raw = gpon_tree()
        doc = parse_network({**raw, "distribution_loss": 0.0})
        leaves = [node["id"] for node in raw["nodes"] if node["id"].count(".") == 3]
        assert len(leaves) == 512
        for leaf in leaves:
            parts = leaf.split(".")  # olt.a.b.c lies under olt.a.b, under olt.a, under olt
            assert_rows_match_the_reference_fold(doc, ",".join(".".join(parts[:k]) for k in (1, 2, 3, 4)))

    @pytest.mark.parametrize("path, rows", [("ring", 7), ("seyegan,tempel,seyegan,tempel", 1)])
    def test_every_row_is_built_by_span_row(self, sleman_doc, monkeypatch, path, rows):
        calls, real = [], planning.span_row

        def counting_row(span, network, ceiling):
            calls.append(span.id)
            return real(span, network, ceiling)

        expected = run_plan(sleman_doc, "gpon-onu-endpoint", path)
        monkeypatch.setattr(planning, "span_row", counting_row)
        report = run_plan(sleman_doc, "gpon-onu-endpoint", path)
        assert report == expected
        assert sorted(calls) == [row[0] for row in report.spans] and len(calls) == rows

    def test_verdicts_are_derived_from_the_rows(self, sleman_doc):
        report = run_plan(sleman_doc, "gpon-onu-endpoint", "seyegan,tempel,pakem")
        power, *rise = report.verdicts
        assert power == report.power_verdict
        assert [(v.quantity, v.value, v.threshold, v.unit, v.direction) for v in rise] == [
            (f"rise time {row[0]}", row[14], row[10], "ps", "max") for row in report.spans]

    def test_the_power_verdict_is_built_without_the_table(self, sleman_doc):
        report = run_plan(sleman_doc, "gpon-onu-endpoint")
        power = report.power_verdict
        assert report._table is None
        assert power == report.verdicts[0] and power.quantity == "received power"

    @pytest.mark.parametrize("received", [-28.0, -28.01, math.inf, math.nan])
    def test_each_table_row_judges_as_its_verdict(self, sleman_doc, received):
        """Margin and pass, taken once per table row, follow Verdict's rule: at the threshold, between
        infinities (a NaN margin that passes) and against NaN."""
        report = run_plan(sleman_doc, "gpon-onu-endpoint")
        fields = {name: getattr(report, name) for name in report._fields}
        budgets = [(70.0, 70.0), (70.0, 70.5), (math.inf, math.inf), (70.0, math.nan)]  # (ceiling, total) ps
        odd = [(f"s-{i}", "X - Y", 1.0, 0, *report.spans[0][4:10], ceiling, 0.0, 0.0, 0.0, total)
               for i, (ceiling, total) in enumerate(budgets)]
        strange = PlanReport(**{**fields, "spans": (*report.spans, *odd), "received": received})
        table = verdict_table(strange)
        assert [row[:5] for row in table] == [(v.quantity, v.value, v.threshold, v.unit, v.direction)
                                              for v in strange.verdicts]
        for row, verdict in zip(table, strange.verdicts):
            assert row[6] is verdict.passed
            assert row[5] == verdict.margin or math.isnan(row[5]) and math.isnan(verdict.margin)
        assert [row[6] for row in table[-4:]] == [True, False, True, False]
        assert strange.overall_pass is all(row[6] for row in table)


class TestParallelSpans:
    def test_ring_plan_counts_both_spans(self, write_network):
        net_file = write_network(parallel_ring)
        assert [s.id for s in ring_spans(load_network(net_file).network)] == ["s1", "s2"]
        report = run_plan(load_network(net_file), "gpon-onu-endpoint")
        assert report.path_nodes == ("west", "east", "west")
        assert [row[0] for row in report.spans] == ["s1", "s2"]
        assert report.path[1] == pytest.approx(18.0)  # the fiber: (10 + 50) km x 0.3 dB/km
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

    def test_ring_trace_ends_at_plan_power(self, write_network):
        def no_distribution_leg(doc):  # the trace has none, so the plan's end power is the same exact sum
            doc["distribution_loss"] = 0.0

        doc = load_network(write_network(no_distribution_leg))
        report = run_plan(doc, "gpon-onu-endpoint", as_built=True)
        trace, _ = run_trace(doc, "ring")
        assert trace.final_power == report.as_built_power == report.received

    def test_render_trace(self, sleman_doc):
        trace, ber = run_trace(sleman_doc, "seyegan,tempel", with_ber=True)
        text = render_trace_text(trace, ber)
        assert text.startswith("input")
        assert "BER estimate" in text


def count_validations(monkeypatch) -> list:
    """The networks model.validate_network is called on from here on."""
    calls, real = [], model.validate_network

    def counted(net):
        calls.append(net)
        return real(net)

    monkeypatch.setattr(model, "validate_network", counted)
    return calls


class TestKeptCheck:
    """check_valid keeps a network's violations, so one parsed plant is validated once."""

    def test_a_sweep_over_every_leaf_validates_the_plant_once(self, monkeypatch):
        raw = gpon_tree()
        doc = parse_network(raw)
        leaves = [node["id"] for node in raw["nodes"] if node["id"].count(".") == 3]
        calls = count_validations(monkeypatch)
        for leaf in leaves:
            parts = leaf.split(".")
            run_plan(doc, "gpon-onu-endpoint", ",".join(".".join(parts[:k]) for k in (1, 2, 3, 4)))
        assert len(leaves) == 512
        assert calls == [doc.network]

    def test_a_plan_then_a_trace_validate_once(self, sleman_doc, monkeypatch):
        calls = count_validations(monkeypatch)
        run_plan(sleman_doc, "gpon-onu-endpoint")
        run_trace(sleman_doc, "seyegan,tempel", with_ber=True)
        assert calls == [sleman_doc.network]

    def test_an_invalid_network_raises_the_same_failure_on_every_call(self, write_network, monkeypatch):
        doc = load_network(write_network(lambda raw: raw["spans"].pop()))
        calls = count_validations(monkeypatch)
        failures = []
        for run in (lambda: run_plan(doc, "gpon-onu-endpoint"), lambda: run_trace(doc), lambda: run_plan(doc, "x")):
            with pytest.raises(ValidationFailure) as caught:
                run()
            failures.append(caught.value)
        assert len(calls) == 1
        first = failures[0]
        assert first.violations and first.violations == model.validate_network(doc.network)
        for failure in failures[1:]:
            assert failure is not first and failure.violations is not first.violations
            assert (str(failure), failure.violations) == (str(first), first.violations)


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
