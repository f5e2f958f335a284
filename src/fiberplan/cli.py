"""Command-line surface: validate, plan, forecast, trace.

Exit codes: 0 when the command's checks pass, 1 when a compliance or
validation check fails, 2 on input errors (unreadable files, schema problems,
unknown names, bad flags). Reports never embed timestamps; ``--stamp`` emits
one on stderr so stdout stays byte-comparable.

A process compiles only the modules its command runs, since there may be no
bytecode cache: every command loads the plant reader, the validation code and
:mod:`fiberplan.report`; ``forecast`` imports :mod:`fiberplan.traffic`,
``plan`` :mod:`fiberplan.planning` and ``trace`` :mod:`fiberplan.signal_chain`
only in their own branches, at call time. The argument parser is built once per
process, so a caller that runs :func:`main` many times pays for it once.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Any

from .model import POWER_DBM, ConfigurationError, DomainError, TrafficInput, ValidationFailure, check_range
from .model import validate_network
from .netfile import load_network
from .report import render_violations_json, render_violations_text

# (field, argparse type) per TrafficInput field, in field order: counts parse as int, rates as float.
_FORECAST_FLAGS = tuple(
    (name, int if TrafficInput.__annotations__[name] == "int" else float) for name in TrafficInput._fields
)


@cache  # parsing leaves the parser as it was, and help reads its width when it is printed
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberplan",
        description="Plan optical backbone and distribution links: budgets, forecasts, traces.",
    )
    # With prog given, argparse builds no usage string on each parser build to find the sub-commands' prefix.
    sub = parser.add_subparsers(dest="command", required=True, prog="fiberplan")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    common.add_argument("--out", metavar="PATH", help="write the report to a file instead of stdout")
    common.add_argument("--stamp", action="store_true", help="emit a timestamp on stderr")

    p = sub.add_parser("validate", parents=[common], help="check a network file's structure")
    p.add_argument("--network", required=True, metavar="PATH")

    p = sub.add_parser("plan", parents=[common], help="power and rise-time plan for a path")
    p.add_argument("--network", required=True, metavar="PATH")
    p.add_argument("--standard", required=True, metavar="NAME", help="compliance profile name")
    p.add_argument("--path", default="ring", metavar="SPEC", help="'ring' or comma-separated node ids")
    p.add_argument(
        "--as-built",
        action="store_true",
        help="judge only amplifiers present in the span inventory, ignoring the sized plan",
    )

    p = sub.add_parser("forecast", parents=[common], help="subscriber forecast")
    p.add_argument("--network", metavar="PATH", help="network file with a 'traffic' key")
    for name, kind in _FORECAST_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=kind, dest=name)

    p = sub.add_parser("trace", parents=[common], help="per-element power trace along a path")
    p.add_argument("--network", required=True, metavar="PATH")
    p.add_argument("--path", default="ring", metavar="SPEC", help="'ring' or comma-separated node ids")
    p.add_argument("--power", type=float, metavar="DBM", help="injected power; defaults to the transmitter's")
    p.add_argument("--ber", action="store_true", help="append a BER estimate at the final point")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"--out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _forecast_inputs(args: argparse.Namespace) -> TrafficInput:
    from .traffic import traffic_input_from_mapping

    values: dict[str, Any] = {}
    if args.network:
        doc = load_network(args.network)
        if doc.traffic is None:
            raise ConfigurationError(f"{args.network}: no 'traffic' key to forecast from")
        values.update(doc.traffic)
    values.update((name, getattr(args, name)) for name, _ in _FORECAST_FLAGS if getattr(args, name) is not None)
    missing = [name for name, _ in _FORECAST_FLAGS if name not in values]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ConfigurationError(f"forecast inputs incomplete; provide {flags} or a network file")
    return traffic_input_from_mapping(values)


def _run(args: argparse.Namespace) -> int:
    as_json = args.format == "json"
    if args.command == "validate":
        violations = validate_network(load_network(args.network).network)
        _emit(render_violations_json(violations) if as_json else render_violations_text(violations), args.out)
        return 0 if not violations else 1

    if args.command == "plan":
        from .planning import render_plan_json, render_plan_text, run_plan

        report = run_plan(load_network(args.network), args.standard, args.path, as_built=args.as_built)
        _emit(render_plan_json(report) if as_json else render_plan_text(report), args.out)
        return 0 if report.overall_pass else 1

    if args.command == "forecast":
        from .traffic import forecast_subscribers, render_forecast_json, render_forecast_text

        inputs = _forecast_inputs(args)
        forecast = forecast_subscribers(inputs)
        _emit(render_forecast_json(inputs, forecast) if as_json else render_forecast_text(inputs, forecast), args.out)
        return 0

    if args.command == "trace":
        if args.power is not None:
            check_range("--power", args.power, POWER_DBM, "dBm")  # the range of the tx_power it stands for
        from .signal_chain import render_trace_json, render_trace_text, run_trace

        trace, ber = run_trace(load_network(args.network), args.path, input_power=args.power, with_ber=args.ber)
        _emit(render_trace_json(trace, ber) if as_json else render_trace_text(trace, ber), args.out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.stamp:
        from datetime import datetime, timezone  # only --stamp needs it; it costs about 3 ms to import

        print(f"generated {datetime.now(timezone.utc).isoformat()}", file=sys.stderr)
    try:
        return _run(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation.element}: {violation.rule}: {violation.message}", file=sys.stderr)
        return 2
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
