"""fiberplan benchmark: seeded plants, oracle-checked commands, per-layer traces.

Usage, from the root of a fiberplan source tree:

    python3 perfbench/run.py --workload {sleman-cli,ring-1k,gpon-tree} \\
        --seed N --seconds S --trace {0,1}

Every workload is a closed loop with one client: the next command starts
when the previous one has finished, one at a time, in one process (or one
child process at a time for ``sleman-cli``). Commands run in whole cycles
of the workload's mix until ``--seconds`` have passed, so every run sees the
same mix. Each command's exit code, output and stderr are checked against
the closed-form oracle in ``oracle.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends the first
half of the window untraced and the second half with every fiberplan module
wrapped by ``tracer.py``, and reports per-layer self times and counts; the
spans are written to ``.perfbench_work/<workload>/spans.bin``. The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import plants
from tracer import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
# Untimed whole cycles run after set-up: for the first few seconds of a
# process, commands run about 10% slower than later on, as its heap grows.
WARM_UP_S = 3.0
CHILD_TIMEOUT_S = 60
ENV = dict(os.environ, PYTHONPATH=str(SRC))
STD = ["--standard", oracle.STANDARD]


@dataclass
class Cmd:
    """One fiberplan invocation and what the oracle expects of it."""

    case: str
    argv: list[str]
    expect: dict
    path_spans: int = 0
    known_defect: str | None = None  # ROADMAP item that makes this case fail today
    defect_expect: dict | None = None  # what the case prints today, defect and all
    fmt: str = field(init=False)

    def __post_init__(self) -> None:
        self.fmt = "json" if "json" in self.argv else "text"


@dataclass
class Sample:
    cmd: Cmd
    ns: float  # CPU time scaled to the reference speed, see ``scale``
    raw_ns: int  # CPU time as measured
    out_bytes: int
    problems: list[str]
    known: bool  # the problems are exactly the case's known defect


# --- workloads --------------------------------------------------------------


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def sleman_cli(seed: int, work: Path):
    """Bundled Sleman ring and small variants, one fresh process per command."""
    sleman = json.loads((SRC / "fiberplan" / "data" / "sleman.json").read_text(encoding="utf-8"))
    paper = oracle.sleman_paper_figures(sleman)
    if paper:
        raise SystemExit(f"oracle disagrees with the paper figures: {paper}")
    docs = plants.sleman_variants(sleman, seed)
    f = {name: _rel(plants.write_plant(doc, work / f"{name}.json")) for name, doc in docs.items()}
    ring = oracle.ring_spans(sleman)
    plan, built = oracle.plan_expect(sleman, ring), oracle.plan_expect(sleman, ring, as_built=True)
    trace = oracle.trace_expect(sleman, ring)
    typo = next(k for s in docs["unknown"]["spans"] for k in s if k in plants.TYPO_KEYS)
    parallel = docs["parallel"]
    n = len(ring)
    mix = [
        Cmd("plan", ["plan", "--network", f["sleman"], *STD], {"kind": "plan", **plan}, n),
        Cmd("plan-json", ["plan", "--network", f["sleman"], *STD, "--format", "json"], {"kind": "plan", **plan}, n),
        Cmd("plan-as-built", ["plan", "--network", f["sleman"], *STD, "--as-built"], {"kind": "plan", **built}, n),
        Cmd("trace-ber", ["trace", "--network", f["sleman"], "--ber"], {"kind": "trace", **trace}, n),
        Cmd("trace-ber-json", ["trace", "--network", f["sleman"], "--ber", "--format", "json"],
            {"kind": "trace", **trace}, n),
        Cmd("validate", ["validate", "--network", f["sleman"]],
            {"kind": "validate", **oracle.validate_expect(sleman)}),
        Cmd("forecast", ["forecast", "--network", f["sleman"]],
            {"kind": "forecast", **oracle.forecast_expect(sleman["traffic"])}),
        Cmd("validate-broken", ["validate", "--network", f["broken"]],
            {"kind": "validate", **oracle.validate_expect(docs["broken"])}),
        Cmd("plan-unknown-key", ["plan", "--network", f["unknown"], *STD],
            {"kind": "plan", "exit": 2, "reason": typo}),
        Cmd("plan-parallel-spans", ["plan", "--network", f["parallel"], *STD, "--format", "json"],
            {"kind": "plan", **oracle.plan_expect(parallel, parallel["spans"])}, 2,
            known_defect="ROADMAP item 2: parallel spans on a 2-node ring",
            # spans_along picks the lower span id for both hops of west -> east -> west
            defect_expect={"kind": "plan", **oracle.plan_expect(parallel, parallel["spans"][:1] * 2)}),
        Cmd("plan-nan-length", ["plan", "--network", f["nan"], *STD],
            {"kind": "plan", "exit": 2, "reason": "length"},
            known_defect="ROADMAP item 5: NaN span length",
            defect_expect={"kind": "plan", "exit": 1, "traceback": oracle.NAN_TRACEBACK}),
    ]
    random.Random(f"sleman-mix/{seed}").shuffle(mix)
    return lambda k: mix, f["sleman"]


def ring_1k(seed: int, work: Path):
    """A seeded 1000-node ring; every path covers every span."""
    doc = plants.ring_plant(seed)
    net = _rel(plants.write_plant(doc, work / "ring.json"))
    ring = oracle.ring_spans(doc)
    plan, built = oracle.plan_expect(doc, ring), oracle.plan_expect(doc, ring, as_built=True)
    trace = oracle.trace_expect(doc, ring)
    n = len(ring)
    validate = Cmd("validate", ["validate", "--network", net], {"kind": "validate", **oracle.validate_expect(doc)})
    heavy = [
        Cmd("plan", ["plan", "--network", net, *STD], {"kind": "plan", **plan}, n),
        Cmd("plan-json", ["plan", "--network", net, *STD, "--format", "json"], {"kind": "plan", **plan}, n),
        Cmd("plan-as-built", ["plan", "--network", net, *STD, "--as-built"], {"kind": "plan", **built}, n),
        Cmd("trace-ber", ["trace", "--network", net, "--ber"], {"kind": "trace", **trace}, n),
        Cmd("trace-ber-json", ["trace", "--network", net, "--ber", "--format", "json"],
            {"kind": "trace", **trace}, n),
    ]
    # A validate after each heavy command: it costs ~1/20 of a plan, and without
    # the repeats a run would hold too few validate samples for a steady median.
    mix = [c for cmd in heavy for c in (cmd, validate)]
    mix.append(Cmd("forecast", ["forecast", "--network", net],
                   {"kind": "forecast", **oracle.forecast_expect(doc["traffic"])}))
    return lambda k: mix, net


LEAVES_PER_CYCLE = 4


def gpon_tree(seed: int, work: Path):
    """A seeded 584-span GPON tree; 3-hop leaf paths visited in seeded order."""
    doc = plants.gpon_tree(seed)
    net = _rel(plants.write_plant(doc, work / "tree.json"))
    leaves = plants.tree_leaf_paths(doc)
    random.Random(f"gpon-leaves/{seed}").shuffle(leaves)
    validate = Cmd("validate", ["validate", "--network", net],
                   {"kind": "validate", **oracle.validate_expect(doc)})
    tail = [
        Cmd("forecast", ["forecast", "--network", net],
            {"kind": "forecast", **oracle.forecast_expect(doc["traffic"])}),
        Cmd("plan-ring-on-tree", ["plan", "--network", net, *STD],
            {"kind": "plan", "exit": 2, "reason": "ring"}),
    ]

    def leaf_cmds(path: list[str], j: int) -> list[Cmd]:
        spans = oracle.tree_path_spans(doc, path)
        spec = ["--path", ",".join(path)]
        plan, trace = oracle.plan_expect(doc, spans), oracle.trace_expect(doc, spans)
        fmt = ["--format", "json"] if j % 2 else []
        return [
            Cmd("plan", ["plan", "--network", net, *STD, *spec], {"kind": "plan", **plan}, 3),
            Cmd("plan-json", ["plan", "--network", net, *STD, *spec, "--format", "json"],
                {"kind": "plan", **plan}, 3),
            Cmd("trace-ber" + "-json" * (j % 2), ["trace", "--network", net, *spec, "--ber", *fmt],
                {"kind": "trace", **trace}, 3),
        ]

    def cycle(k: int) -> list[Cmd]:
        cmds: list[Cmd] = []
        for j in range(LEAVES_PER_CYCLE):
            cmds += leaf_cmds(leaves[(k * LEAVES_PER_CYCLE + j) % len(leaves)], j)
            if j % 2:
                cmds.append(validate)
        return cmds + tail

    return cycle, net


WORKLOADS = {"sleman-cli": sleman_cli, "ring-1k": ring_1k, "gpon-tree": gpon_tree}


# --- executing commands -----------------------------------------------------


def cpu_ns() -> int:
    """CPU time of this process and of its waited-for children, in ns.

    Commands are timed by CPU time, not wall time: the work is single-threaded
    and never waits, so the two differ only by the time the host takes the CPU
    away, which is noise here.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


# A shared host changes speed under the benchmark: on a 2-vCPU KVM guest the
# same work took up to 1.7x longer from one second, and from one minute, to
# the next, and whole 30 s runs landed mostly in a fast or a slow phase. CPU
# time does not see this. So each measured time is scaled by the speed of a
# fixed pure-Python loop timed just before and just after it: a time reads as
# it would on a host where REF_ITERATIONS of the loop take REF_NS.
REF_ITERATIONS = 10_000
REF_NS = 400_000


def ref_ns() -> int:
    """CPU time of the fixed reference loop, in ns."""
    t0 = time.process_time_ns()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i
    return time.process_time_ns() - t0


def scale(ns: int, before: int, after: int) -> float:
    """``ns`` at the reference speed, from the loop times around it."""
    return ns * 2 * REF_NS / (before + after)


class InProcess:
    """Calls ``fiberplan.cli.main(argv)`` with stdout and stderr captured in memory."""

    def __init__(self) -> None:
        self.cli = None
        self.tracer: Tracer | None = None

    def import_program(self) -> None:
        for name in [m for m in sys.modules if m == "fiberplan" or m.startswith("fiberplan.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("fiberplan.cli")

    def __call__(self, cmd: Cmd, command_id: int) -> tuple[int, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.command = command_id
        t0 = cpu_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(cmd.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the CLI process would die with a traceback and exit 1
                traceback.print_exc()
                rc = 1
        ns = cpu_ns() - t0
        return ns, rc, out.getvalue(), err.getvalue()


class Processes:
    """Runs each command as a fresh ``python -m fiberplan`` child, one at a time."""

    def __init__(self, work: Path) -> None:
        self.tracer: Tracer | None = None
        self.spans_file = work / "child.spans"

    def import_program(self) -> None:
        pass

    def __call__(self, cmd: Cmd, command_id: int) -> tuple[int, int, str, str]:
        if self.tracer is None:
            argv = [sys.executable, "-m", "fiberplan", *cmd.argv]
        else:
            argv = [sys.executable, str(HERE / "child.py"), str(self.spans_file), *cmd.argv]
        t0 = cpu_ns()
        proc = subprocess.run(argv, capture_output=True, text=True, env=ENV, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=False)
        ns = cpu_ns() - t0
        if self.tracer is not None:
            self.tracer.absorb(Tracer.load(self.spans_file), command_id)
        return ns, proc.returncode, proc.stdout, proc.stderr


def run_window(cycle, execute, seconds: float, samples: list[Sample], refs: list[int]) -> float:
    """Run whole mix cycles until ``seconds`` have passed; returns the elapsed seconds.

    ``refs`` receives the reference loop's time before the first command and
    after each one.
    """
    gc.collect()
    gc.freeze()
    refs.append(ref_ns())
    t0 = time.perf_counter_ns()
    deadline = t0 + int(seconds * 1e9)
    k = 0
    while True:
        for cmd in cycle(k):
            ns, rc, out, err = execute(cmd, len(samples))
            refs.append(ref_ns())
            problems = oracle.check(cmd.expect, cmd.fmt, rc, out, err)
            known = bool(problems and cmd.defect_expect
                         and not oracle.check(cmd.defect_expect, cmd.fmt, rc, out, err))
            samples.append(Sample(cmd, scale(ns, refs[-2], refs[-1]), ns, len(out.encode()), problems, known))
        k += 1
        # Keep the harness's own objects out of the collector's way, as in a
        # fresh process: only objects made after this point are scanned.
        gc.freeze()
        if time.perf_counter_ns() >= deadline:
            return (time.perf_counter_ns() - t0) / 1e9


def setup(workload: str, seed: int, execute):
    """Import, generate and write the plants, warm up; repeated, median reported."""
    times, built = [], None
    for rep in range(SETUP_REPEATS):
        work = WORK / workload / f"setup{rep}"
        before = ref_ns()
        t0 = cpu_ns()
        execute.import_program()
        cycle, network = WORKLOADS[workload](seed, work)
        _, rc, _, err = execute(Cmd("warm-up", ["validate", "--network", network], {}), -1)
        if rc not in (0, 1) or err:
            raise SystemExit(f"warm-up validate failed with exit {rc}: {err.strip()}")
        ns = cpu_ns() - t0
        times.append(scale(ns, before, ref_ns()) / 1e9)
        built = cycle
    return built, statistics.median(times)


# --- metrics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    n = len(values)
    k = max(n - 11, 0)
    return sorted(values)[k], 100.0 * (k + 1) / n, n


def end_to_end(samples: list[Sample], refs: list[int], elapsed: float, setup_s: float,
               rss_mb: float) -> tuple[dict, dict]:
    metrics = {"setup_s": (setup_s, "s")}
    ref = statistics.median(refs)
    # As measured, before scaling to the reference speed.
    detail = {"ref_loop_us": ref / 1e3, "raw_cmds_per_s": len(samples) / elapsed}
    for kind in ("plan", "trace", "validate"):
        values = [s.ns / 1e6 for s in samples if s.cmd.expect["kind"] == kind]
        metrics[f"{kind}_ms_p50"] = (statistics.median(values), "ms")
        detail[f"raw_{kind}_ms_p50"] = statistics.median(s.raw_ns / 1e6 for s in samples
                                                         if s.cmd.expect["kind"] == kind)
        if kind != "validate":
            value, pct, n = tail(values)
            metrics[f"{kind}_ms_tail"] = (value, "ms")
            detail[f"{kind}_ms_tail"] = {"percentile": round(pct, 1), "n": n}
    metrics["cmds_per_s"] = (len(samples) / elapsed * ref / REF_NS, "1/s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics, detail


SELF_MS = {
    "cli.main.self_ms": ["cli.main"],
    "netfile.load_network.self_ms": ["netfile.load_network"],
    "netfile.parse_network.self_ms": ["netfile.parse_network"],
    "model.validate_network.self_ms": ["model.validate_network"],
    "model.ring_order.self_ms": ["model.ring_order"],
    "model.spans_along.self_ms": ["model.spans_along"],
    "power_budget.span_loss.self_ms": ["power_budget.span_loss"],
    "power_budget.path_loss.self_ms": ["power_budget.path_loss"],
    "risetime.span_risetime_report.self_ms": ["risetime.span_risetime_report"],
    "standards.resolve_standard.self_ms": ["standards.resolve_standard"],
    "standards.verdicts.self_ms": ["standards.power_verdict", "standards.risetime_verdict"],
    "signal_chain.route_chain.self_ms": ["signal_chain.route_chain"],
    "signal_chain.propagate.self_ms": ["signal_chain.propagate"],
    "signal_chain.estimate_ber.self_ms": ["signal_chain.estimate_ber"],
    "planning.run_plan.self_ms": ["planning.run_plan"],
    "planning.run_trace.self_ms": ["planning.run_trace"],
    "planning.render_text.self_ms": ["planning.render_plan_text", "planning.render_trace_text",
                                     "planning.render_violations_text", "planning.render_forecast_text"],
    "planning.render_json.self_ms": ["planning.plan_to_dict", "planning.trace_to_dict",
                                     "planning.violations_to_dict", "planning.forecast_to_dict",
                                     "planning.to_json"],
    "traffic.forecast_subscribers.self_ms": ["traffic.forecast_subscribers"],
}
CALLS_PER_PLAN = ("model.validate_network", "model.spans_along")
# Rendering metrics are medians over plan and trace commands only; the cheap
# validate and forecast reports would otherwise set the median.
REPORT_KINDS = ("plan", "trace")
PER_UNIT_US = {  # metric -> function; its recorded size is the unit (span, hop, element)
    "netfile.parse_network.us_per_span": "netfile.parse_network",
    "model.spans_along.us_per_hop": "model.spans_along",
    "signal_chain.propagate.us_per_element": "signal_chain.propagate",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(rows: dict, samples: list[Sample]) -> dict:
    """Per-command medians of self times and counts over the traced commands."""
    cmds = [(s, rows.get(i, {})) for i, s in enumerate(samples)]

    def over(wanted: list[str], pick, kinds: tuple[str, ...] | None = None) -> list[float]:
        return [pick([r[n] for n in wanted if n in r]) for s, r in cmds
                if any(n in r for n in wanted) and (kinds is None or s.cmd.expect["kind"] in kinds)]

    def self_ms(hit: list[list[int]]) -> float:
        return sum(h[0] for h in hit) / 1e6

    metrics = {}
    for metric, funcs in SELF_MS.items():
        kinds = REPORT_KINDS if metric.startswith("planning.render_") else None
        metrics[metric] = (_median(over(funcs, self_ms, kinds)), "ms")
    for name in CALLS_PER_PLAN:
        metrics[f"{name}.calls_per_cmd"] = (_median(over([name], lambda hit: hit[0][1], ("plan",))), "count")
    for metric, name in PER_UNIT_US.items():
        metrics[metric] = (_median(over([name], lambda hit: hit[0][0] / 1e3 / max(hit[0][2], 1))), "us")
    metrics["power_budget.span_loss.calls_per_span"] = (_median(
        [r["power_budget.span_loss"][1] / s.cmd.path_spans for s, r in cmds
         if "power_budget.span_loss" in r and s.cmd.path_spans]), "count")
    metrics["signal_chain.chain_elements"] = (_median(over(["signal_chain.route_chain"], lambda hit: hit[0][2])),
                                              "count")
    metrics["planning.output_bytes"] = (_median(
        [s.out_bytes for s in samples if s.cmd.expect["kind"] in REPORT_KINDS]), "count")
    netfile_errors = sum(1 for _, r in cmds if any(v[3] for n, v in r.items() if n.startswith("netfile.")))
    metrics["netfile.errors"] = (netfile_errors / len(samples), "count/cmd")
    return metrics


def _child_ms(argv: list[str], repeats: int = 5) -> list[tuple[float, str]]:
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(argv, capture_output=True, text=True, env=ENV, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=True)
        runs.append(((time.perf_counter_ns() - t0) / 1e6, proc.stderr))
    return runs


def import_probes() -> dict:
    """Bare interpreter start-up and ``-X importtime`` totals for fiberplan.cli."""
    startup = [ms for ms, _ in _child_ms([sys.executable, "-c", "pass"])]
    imports, self_us = [], {}
    for _, err in _child_ms([sys.executable, "-X", "importtime", "-c", "import fiberplan.cli"]):
        total = 0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue  # the header line
            self_us[parts[2].strip()] = int(parts[0].split(":")[1])
            # top-level entries only: nested ones are indented past the one separating space
            if parts[2].startswith(" fiberplan"):
                total += int(parts[1])
        imports.append(total / 1e3)
    top = sorted(self_us.items(), key=lambda kv: -kv[1])[:8]
    print("import self-time, top: " + ", ".join(f"{name} {us / 1e3:.1f} ms" for name, us in top))
    return {"python.startup_ms": (statistics.median(startup), "ms"),
            "cli.import_ms": (statistics.median(imports), "ms")}


# --- main -------------------------------------------------------------------


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "sleman-cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _report(metrics: dict, samples: list[Sample], detail: dict) -> dict:
    failures: dict[str, Sample] = {}
    for s in samples:
        if s.problems:
            failures.setdefault(s.cmd.case, s)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6f} {unit}")
    unexpected = sorted({s.cmd.case for s in samples if s.problems and not s.known})
    for case, s in sorted(failures.items()):
        known = f" [known: {s.cmd.known_defect}]" if case not in unexpected else ""
        print(f"FAILED {case}: {'; '.join(s.problems)[:300]}{known}")
    failed = sum(1 for s in samples if s.problems)
    detail.update(fail_ratio=failed / len(samples), failed_cases=sorted(failures))
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {"correct": not unexpected, "attempted": len(samples), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _check_source_tree() -> None:
    if not (SRC / "fiberplan" / "cli.py").is_file():
        sys.exit(f"no fiberplan source tree under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import fiberplan

    if Path(fiberplan.__file__).resolve().parent != (SRC / "fiberplan").resolve():
        sys.exit(f"imported fiberplan from {fiberplan.__file__}, not from {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _check_source_tree()

    work = WORK / args.workload
    execute = Processes(work) if args.workload == "sleman-cli" else InProcess()
    cycle, setup_s = setup(args.workload, args.seed, execute)

    run_window(cycle, execute, WARM_UP_S, [], [])
    samples: list[Sample] = []
    refs: list[int] = []
    if not args.trace:
        elapsed = run_window(cycle, execute, args.seconds, samples, refs)
        metrics, detail = end_to_end(samples, refs, elapsed, setup_s, _peak_rss_mb(args.workload))
    else:
        untraced: list[Sample] = []
        plain_elapsed = run_window(cycle, execute, args.seconds / 2, untraced, refs)
        tracer = Tracer()
        if isinstance(execute, InProcess):
            tracer.install()
        execute.tracer = tracer
        traced_elapsed = run_window(cycle, execute, args.seconds / 2, samples, [])
        execute.tracer = None
        tracer.uninstall()
        tracer.dump(work / "spans.bin")
        rows = tracer.per_command()
        metrics = per_layer(rows, samples)
        metrics.update(import_probes())
        metrics["bench.trace_overhead_ratio"] = (
            len(samples) / traced_elapsed / (len(untraced) / plain_elapsed), "ratio")
        _print_breakdown(rows, samples)
        samples = untraced + samples
        detail = {"spans": len(tracer.cols["start"]), "spans_file": _rel(work / "spans.bin")}
    print(json.dumps(_report(metrics, samples, detail)))
    return 0


def _print_breakdown(rows: dict, samples: list[Sample]) -> None:
    """Share of each function's self time in the total, per command kind."""
    by_kind: dict[str, dict[str, int]] = {}
    for i, s in enumerate(samples):
        acc = by_kind.setdefault(s.cmd.expect["kind"], {})
        for name, (self_ns, *_rest) in rows.get(i, {}).items():
            acc[name] = acc.get(name, 0) + self_ns
    for kind, acc in sorted(by_kind.items()):
        total = sum(acc.values()) or 1
        top = sorted(acc.items(), key=lambda kv: -kv[1])[:6]
        print(f"self-time share, {kind}: " + ", ".join(f"{n} {100 * v / total:.1f}%" for n, v in top))


if __name__ == "__main__":
    sys.exit(main())
