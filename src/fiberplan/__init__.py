"""Fiber-optic network planning: component-graph modeling, power and
rise-time budgets, amplifier sizing, signal traces with BER estimates,
standards compliance verdicts, and subscriber forecasting.

The public names load on first use (PEP 562): ``import fiberplan`` imports no
submodule, so a command line process compiles only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "model": "Amplifier AmplifierKind ComponentLosses ConfigurationError DomainError FiberProfile LineCode"
        " Network Node Span Splitter Topology TrafficInput TransceiverProfile ValidationFailure Violation"
        " resolved_splices ring_spans spans_along splice_count validate_network",
        "netfile": "NetworkDocument NetworkFileError load_network parse_network",
        "planning": "PlanReport run_plan span_row",
        "power_budget": "AmplifierPlan amplifier_requirement max_allowed_loss received_power required_input_power"
        " span_losses span_runs splitter_loss",
        "risetime": "dispersion_risetime max_system_risetime total_risetime",
        "signal_chain": "BerEstimate PowerTrace ber_from_q estimate_ber propagate route_chain run_trace",
        "standards": "StandardProfile Verdict builtin_profiles power_verdict resolve_standard",
        "traffic": "TrafficForecast forecast_subscribers project_growth round_half_toward_zero",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
