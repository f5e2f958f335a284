from __future__ import annotations

import json
import subprocess
import sys

import pytest


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "fiberplan", *args], capture_output=True, text=True
    )


def test_plan_passes_on_the_bundled_ring(sleman_file):
    result = run_cli("plan", "--network", str(sleman_file), "--standard", "gpon-onu-endpoint")
    assert result.returncode == 0, result.stderr
    assert "OVERALL: PASS" in result.stdout
    assert "2 x 20.00 dB EDFA" in result.stdout


def test_plan_output_is_byte_deterministic(sleman_file):
    args = ("plan", "--network", str(sleman_file), "--standard", "gpon-onu-endpoint")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout.encode() == second.stdout.encode()
    json_first = run_cli(*args, "--format", "json")
    json_second = run_cli(*args, "--format", "json")
    assert json_first.stdout.encode() == json_second.stdout.encode()


def test_plan_json_payload(sleman_file):
    result = run_cli(
        "plan", "--network", str(sleman_file), "--standard", "gpon-onu-endpoint", "--format", "json"
    )
    payload = json.loads(result.stdout)
    assert payload["overall_pass"] is True
    assert payload["amplifier_plan"]["edfa_count"] == 2
    assert len(payload["spans"]) == 7
    assert payload["spans"][0]["rise_time"]["total"] == 69.552


def test_plan_compliance_failure_exits_one(write_network):
    def strip(doc):
        for span in doc["spans"]:
            span.pop("amplifiers", None)

    path = write_network(strip)
    result = run_cli("plan", "--network", str(path), "--standard", "gpon-onu-endpoint", "--as-built")
    assert result.returncode == 1
    assert "OVERALL: FAIL" in result.stdout


def test_malformed_file_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    result = run_cli("plan", "--network", str(bad), "--standard", "gpon-onu-endpoint")
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert ":1:" in result.stderr  # line:column of the syntax error


def test_unknown_standard_exits_two(sleman_file):
    result = run_cli("plan", "--network", str(sleman_file), "--standard", "missing")
    assert result.returncode == 2
    assert "unknown standard" in result.stderr


def test_validation_failure_exits_two_for_plan(write_network):
    def orphan(doc):
        doc["spans"][0]["to"] = "atlantis"

    result = run_cli(
        "plan", "--network", str(write_network(orphan)), "--standard", "gpon-onu-endpoint"
    )
    assert result.returncode == 2
    assert "unresolved-node" in result.stderr


def test_validate_ok(sleman_file):
    result = run_cli("validate", "--network", str(sleman_file))
    assert result.returncode == 0
    assert "structurally valid" in result.stdout


def test_validate_reports_violations(write_network):
    def orphan(doc):
        doc["spans"][0]["to"] = "atlantis"

    result = run_cli("validate", "--network", str(write_network(orphan)))
    assert result.returncode == 1
    assert "unresolved-node" in result.stdout


def test_forecast_from_flags():
    result = run_cli(
        "forecast",
        "--population", "850221",
        "--cellular-penetration", "1.5",
        "--operator-share", "0.42",
        "--lte-penetration", "0.2",
        "--annual-growth", "0.051",
        "--horizon", "5",
    )
    assert result.returncode == 0
    for figure in ("1,275,331", "535,639", "107,128", "137,378"):
        assert figure in result.stdout


def test_forecast_from_file_with_flag_override(sleman_file):
    result = run_cli("forecast", "--network", str(sleman_file), "--horizon", "0", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["projected_subscribers"] == payload["lte_subscribers"] == 107128


def test_forecast_incomplete_flags_exit_two():
    result = run_cli("forecast", "--population", "1000")
    assert result.returncode == 2
    assert "--cellular-penetration" in result.stderr


def test_trace_with_ber(sleman_file):
    result = run_cli("trace", "--network", str(sleman_file), "--path", "seyegan,tempel", "--ber")
    assert result.returncode == 0
    assert result.stdout.startswith("input")
    assert "BER estimate" in result.stdout


def test_trace_power_override_json(sleman_file):
    result = run_cli(
        "trace", "--network", str(sleman_file), "--path", "seyegan,tempel",
        "--power", "0", "--format", "json",
    )
    payload = json.loads(result.stdout)
    assert payload["points"][0]["power"] == 0
    assert payload["final_power"] == payload["points"][-1]["power"]


@pytest.mark.parametrize("power", ["inf", "nan"])
def test_non_finite_power_exits_two_naming_the_flag(sleman_file, power):
    result = run_cli("trace", "--network", str(sleman_file), "--power", power, "--ber")
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and "--power" in lines[0]


def test_out_file_matches_stdout(sleman_file, tmp_path):
    args = ("plan", "--network", str(sleman_file), "--standard", "gpon-onu-endpoint")
    piped = run_cli(*args)
    out = tmp_path / "report.txt"
    written = run_cli(*args, "--out", str(out))
    assert written.returncode == 0
    assert written.stdout == ""
    assert out.read_text(encoding="utf-8") == piped.stdout


def test_stamp_stays_out_of_the_report(sleman_file):
    args = ("plan", "--network", str(sleman_file), "--standard", "gpon-onu-endpoint")
    plain = run_cli(*args)
    stamped = run_cli(*args, "--stamp")
    assert stamped.stdout == plain.stdout
    assert "generated" in stamped.stderr


def test_missing_required_flag_exits_two():
    result = run_cli("plan", "--standard", "gpon-onu-endpoint")
    assert result.returncode == 2
