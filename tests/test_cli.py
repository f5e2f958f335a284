from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fiberplan import planning
from fiberplan.cli import _build_parser, main
from fiberplan.data import sleman_path


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
    assert result.stderr.startswith("usage: fiberplan plan ")  # the sub-command's prog, however it is set


# --- the parser is built once per process; in-process calls share it ---

GOLDEN = Path(__file__).parent / "golden"


def test_the_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_plan_command_judges_its_report_once(capsys, monkeypatch, fmt):
    """The renderer and the exit code read one kept verdict table, so the received power is judged once."""
    calls, real = [], planning.power_verdict

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(planning, "power_verdict", counting)
    assert main(["plan", "--network", str(sleman_path()), "--standard", "gpon-onu-endpoint", "--format", fmt]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_repeated_in_process_calls_keep_no_state(capsys):
    """Each flag an earlier call set is back at its default in the next call."""
    network = ("--network", str(sleman_path()), "--standard", "gpon-onu-endpoint")
    calls = [
        (["--format", "json", "--as-built"], "sleman-plan-as-built.json"),
        (["--format", "json", "--path", "seyegan,tempel,pakem"], "sleman-plan-partial.json"),
        ([], "sleman-plan.txt"),
    ]
    for flags, golden in calls * 2:
        assert main(["plan", *network, *flags]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes(), (flags, golden)


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["plan", "--help"], 0), (["plan", "--standard", "gpon-onu-endpoint"], 2)],
    ids=["help", "plan-help", "usage-error"],
)
def test_help_and_usage_errors_match_a_fresh_process_at_any_width(capsys, monkeypatch, argv, code):
    """The shared parser lays help out at the width COLUMNS gives when it prints, as a fresh one does."""
    assert main(["validate", "--network", str(sleman_path())]) == 0
    capsys.readouterr()
    texts = set()
    for columns in ("60", "140"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        fresh = run_cli(*argv)
        assert fresh.returncode == code
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)
        texts.add(captured.out + captured.err)
    assert len(texts) == 2


# --- input errors end in exit 2 with one "error:" line (run in-process) ---

STANDARD = ("--standard", "gpon-onu-endpoint")
LAB = {"bit_rate": float("nan"), "line_code": "nrz", "rx_sensitivity": -30.0}
TINY = {"bit_rate": 1e-320, "line_code": "nrz", "rx_sensitivity": -28.0}  # 0.7 / bit_rate is inf


def _set(path, value):
    def mutate(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value

    return mutate


def _all(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)

    return mutate


EDFA_1E308 = {"gain": 1e308, "kind": "edfa"}
DEAF = {"bit_rate": 1e9, "line_code": "nrz", "rx_sensitivity": -1e308}


def assert_one_error_line(capsys, argv, *fragments):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for fragment in fragments:
        assert fragment in lines[0]


# Each row: how to break the Sleman file (None: leave it as shipped), the command, a fragment of
# the one error line, and for a row whose error moved from an after-the-fact float-range guard
# to a field's physical range, the message it pinned before; such a row keeps the id that
# message gave it, so its results compare with earlier runs.
MALFORMED = [
    (_set(("spans", 2, "length"), float("nan")), ("plan", *STANDARD),
     "span '03-pakem-ngemplak'.length: expected a finite number, got nan"),
    (_set(("fiber_profiles", "g652-backbone", "attenuation"), float("inf")), ("plan", *STANDARD),
     "fiber_profiles['g652-backbone'].attenuation: expected a finite number, got inf"),
    (_set(("edfa_gain",), float("nan")), ("plan", *STANDARD), "edfa_gain: expected a finite number"),
    (_set(("transceiver", "tx_power"), float("nan")), ("trace", "--ber"), "transceiver.tx_power"),
    (_set(("standards",), {"lab": LAB}), ("plan", "--standard", "lab"), "standards['lab'].bit_rate"),
    (_set(("spans", 1, "amplifiers"), 5), ("validate",),
     "span '02-tempel-pakem'.amplifiers: expected a list, got 5"),
    (_set(("spans", 0, "splitters"), 3), ("validate",),
     "span '01-seyegan-tempel'.splitters: expected a list, got 3"),
    (_set(("traffic", "population"), 850221.9), ("forecast",),
     "traffic.population: expected an integer, got 850221.9"),
    (_set(("traffic", "horizon"), True), ("forecast",), "traffic.horizon: expected an integer, got True"),
    (_set(("distribution_loss",), -5), ("plan", *STANDARD), "distribution_loss must be in [0, 100] dB, got -5.0",
     "distribution_loss: expected a number >= 0, got -5"),
    (_set(("spans", 0, "connectors"), 10**400), ("plan", *STANDARD),
     f"span '01-seyegan-tempel': connectors must be in [0, 1e+06], got {10**400}",
     "span '01-seyegan-tempel'.connectors: expected an integer within the float range"),
    (_set(("edfa_gain",), 0), ("plan", *STANDARD), "edfa_gain must be in [0.01, 100] dB, got 0.0",
     "edfa_gain: expected a number > 0, got 0"),
    (None, ("forecast", "--horizon", "100000"), "horizon must be in [0, 100] years, got 100000",
     "projected subscribers (annual_growth 0.051, horizon 100000 years) beyond the float range"),
    (None, ("forecast", "--annual-growth", "1e308"), "annual_growth must be in [0, 10], got 1e+308",
     "projected subscribers (annual_growth 1e+308, horizon 5"),
    (None, ("forecast", "--population", "9" * 300, "--cellular-penetration", "1e10"),
     f"population must be in [0, 1e+10], got {'9' * 300}",
     "mobile subscribers (population x cellular_penetration) beyond the float range"),
    (None, ("trace", "--power", "1e308", "--ber"), "--power must be in [-100, 100] dBm, got 1e+308",
     "power 1e+308 dBm is beyond the float range in watts"),
    (_set(("spans", 0, "length"), 1e308), ("plan", *STANDARD),
     "span '01-seyegan-tempel': length must be in (0, 100000] km, got 1e+308",
     "span '01-seyegan-tempel' (length 1e+308 km): rise time beyond the float range"),
    (_set(("spans", 0, "length"), 1e308), ("trace",),
     "span '01-seyegan-tempel': length must be in (0, 100000] km, got 1e+308",
     "span '01-seyegan-tempel': too many joints to trace: 3.33e+307 splices (length 1e+308 km)"),
    (_set(("edfa_gain",), 1e-320), ("plan", *STANDARD), "edfa_gain must be in [0.01, 100] dB, got 1e-320",
     "with edfa_gain 9.99989e-321 dB units is beyond the float range"),
    (_set(("fiber_profiles", "g652-backbone", "attenuation"), 5e306), ("plan", *STANDARD),
     "fiber 'g652-backbone': attenuation must be in (0, 1000] dB/km, got 5e+306",
     "path loss beyond the float range"),
    (_set(("losses", "connector_loss"), 1e308), ("plan", *STANDARD),
     "losses: connector_loss must be in [0, 100] dB, got 1e+308",
     "span '01-seyegan-tempel': connector loss (2 x connector_loss 1e+308 dB) is beyond the float range"),
    (_set(("losses", "connector_loss"), 1e308), ("trace",), "losses: connector_loss must be in [0, 100] dB, got 1e+308",
     "power after 'connector' is beyond the float range"),
    # A 1 mm drum length asks for ten million splices: the trace is refused before it is built.
    (_set(("fiber_profiles", "g652-backbone", "drum_length"), 1e-6), ("trace", "--format", "json"),
     "span '01-seyegan-tempel': too many joints to trace: 1.01e+07 splices (length 10.094 km), 2 connectors;"
     " the path would hold 1.0094e+07 elements, over the cap of 200000"),
    (_set(("standards",), {"tiny": TINY}), ("plan", "--standard", "tiny", "--format", "json"),
     "standard 'tiny': bit_rate must be in [1, 1e+15] b/s, got 1e-320",
     "standards['tiny'].bit_rate: expected a number whose rise-time ceiling is within the float range"),
    (_all(_set(("transceiver", "tx_power"), 1.5e308), _set(("spans", 1, "amplifiers"), [EDFA_1E308])),
     ("plan", "--standard", "table2-receiver"), "amplifier gain must be in [0.01, 100] dB, got 1e+308",
     "received power beyond the float range"),
    (_set(("spans", 1, "amplifiers"), [EDFA_1E308, EDFA_1E308]), ("plan", *STANDARD),
     "amplifier gain must be in [0.01, 100] dB, got 1e+308", "amplifier gain of the path beyond the float range"),
    (_all(_set(("transceiver", "tx_power"), 1e308), _set(("transceiver", "rx_sensitivity"), -1e308)),
     ("plan", *STANDARD, "--format", "json"), "transceiver: tx_power must be in [-100, 100] dBm, got 1e+308",
     "loss budget between tx_power 1e+308 dBm and rx_sensitivity -1e+308 dBm is beyond the float range"),
    (_all(_set(("transceiver", "tx_power"), 1e308), _set(("standards",), {"deaf": DEAF})),
     ("plan", "--standard", "deaf", "--format", "json"), "transceiver: tx_power must be in [-100, 100] dBm, got 1e+308",
     "received power 1e+308 dBm against standard 'deaf' rx_sensitivity -1e+308 dBm: margin beyond the float range"),
    # A drum length near zero would ask for more splices than a float can count.
    (_set(("fiber_profiles", "g652-backbone", "drum_length"), 1e-320), ("plan", *STANDARD),
     "fiber 'g652-backbone': drum_length must be in [1e-06, 100000] km, got 1e-320",
     "span '01-seyegan-tempel': splice count of 10.094 km over 9.99989e-321 km drums is beyond the float range"),
    (_set(("fiber_profiles", "g652-backbone", "drum_length"), 1e-320), ("trace",),
     "fiber 'g652-backbone': drum_length must be in [1e-06, 100000] km, got 1e-320",
     "span '01-seyegan-tempel': splice count of 10.094 km over 9.99989e-321 km drums is beyond the float range"),
    (_all(_set(("losses", "splitter_excess_loss"), 1e308), _set(("spans", 0, "splitters"), [2, 2])),
     ("plan", *STANDARD), "losses: splitter_excess_loss must be in [0, 100] dB, got 1e+308",
     "span '01-seyegan-tempel': splitter loss beyond the float range"),
    (_set(("losses", "splice_loss"), 1e308), ("plan", *STANDARD),
     "losses: splice_loss must be in [0, 100] dB, got 1e+308",
     "span '01-seyegan-tempel': splice loss (6 x splice_loss 1e+308 dB) is beyond the float range"),
    (_set(("fiber_profiles", "g652-backbone", "attenuation"), 1e307), ("plan", *STANDARD),
     "fiber 'g652-backbone': attenuation must be in (0, 1000] dB/km, got 1e+307",
     "span '02-tempel-pakem': fiber loss (18.795 km x attenuation 1e+307 dB/km of fiber 'g652-backbone')"
     " is beyond the float range"),
    # Inputs that used to pass: 7e306 EDFAs and -7.67 dBm, a 70-digit forecast, 301-digit trace points.
    (_set(("losses", "connector_loss"), 1e307), ("plan", *STANDARD),
     "losses: connector_loss must be in [0, 100] dB, got 1e+307"),
    (None, ("forecast", "--horizon", "3000"), "horizon must be in [0, 100] years, got 3000"),
    (None, ("trace", "--power", "1e300"), "--power must be in [-100, 100] dBm, got 1e+300"),
    # Every traffic input at the top of its range would compound 11^100 into a 116-digit count.
    (None, ("forecast", "--population", "10000000000", "--cellular-penetration", "10", "--operator-share", "1",
            "--lte-penetration", "1", "--annual-growth", "10", "--horizon", "100"),
     "projected subscribers (annual_growth 10, horizon 100 years) over the cap of 100,000,000,000"),
    # The traffic object is read at load, so every command refuses a bad one, not only forecast.
    (_set(("traffic", "foo"), 1), ("validate",), "traffic: unknown key(s) 'foo'"),
    (_set(("traffic", "foo"), 1), ("plan", *STANDARD), "traffic: unknown key(s) 'foo'"),
    (_set(("traffic", "population"), "many"), ("trace",), "traffic.population: expected an integer, got 'many'"),
    (_set(("traffic", "population"), "many"), ("validate",), "traffic.population: expected an integer, got 'many'"),
]


@pytest.mark.parametrize(
    "mutate, command, fragment",
    [
        pytest.param(mutate, command, fragment, id=f"{'mutate' if mutate else None}-command{i}-{was[0]}")
        if was else (mutate, command, fragment)
        for i, (mutate, command, fragment, *was) in enumerate(MALFORMED)
    ],
)
def test_malformed_values_exit_two(capsys, write_network, mutate, command, fragment):
    path = write_network(mutate)
    assert_one_error_line(capsys, (command[0], "--network", str(path), *command[1:]), fragment)


def test_plan_needs_no_trace_on_a_plant_too_dense_to_trace(capsys, write_network):
    path = write_network(_set(("fiber_profiles", "g652-backbone", "drum_length"), 1e-6))
    assert main(["plan", "--network", str(path), *STANDARD]) == 0
    assert "Path loss" in capsys.readouterr().out


def test_non_utf8_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"notes": "Sléman"}'.encode("latin-1"))
    assert_one_error_line(capsys, ("validate", "--network", str(bad)), str(bad), "not UTF-8")


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"notes": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert_one_error_line(capsys, ("validate", "--network", str(deep)), str(deep), "nested too deeply")


def test_out_into_a_missing_directory_exits_two(capsys, sleman_file, tmp_path):
    target = tmp_path / "no-such-dir" / "report.txt"
    argv = ("plan", "--network", str(sleman_file), *STANDARD, "--out", str(target))
    assert_one_error_line(capsys, argv, f"--out {target}: No such file or directory")


def test_an_empty_out_path_exits_two_and_writes_no_report(capsys, sleman_file):
    """An empty --out names no file: it is an input error, not a request for stdout."""
    assert main(["plan", "--network", str(sleman_file), *STANDARD, "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: --out '': No such file or directory\n")


@pytest.mark.parametrize("command, spec", [(("plan", *STANDARD), "seyegan"), (("trace",), ",")], ids=["plan", "trace"])
def test_a_path_spec_of_fewer_than_two_node_ids_exits_two(capsys, sleman_file, command, spec):
    assert main([command[0], "--network", str(sleman_file), *command[1:], "--path", spec]) == 2
    assert capsys.readouterr() == ("", f"error: path spec {spec!r} needs 'ring' or at least two node ids\n")
