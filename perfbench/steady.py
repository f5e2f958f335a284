"""Steadiness self-check for the benchmark described by BENCHMARK.json.

Usage, from the root of a fiberplan source tree:

    python3 perfbench/steady.py

Runs every workload RUNS times per set, in SETS sets, each run with its own
seed (1, 2, ... in run order), and prints one row per workload and set: each
end-to-end metric's median, quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median. A metric passes when that spread
stays within a third of its bound, and when the second set's median is no
worse than the first's by more than the bound. ``setup_s`` is held to the
second rule only: its spread is printed but not judged. Exits 1 if any check
fails. Raw results go to ``.perfbench_work/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180, check=False)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    names = {m["name"] for m in SPEC["end_to_end"]}
    raw: dict[str, list[list[dict]]] = {}
    ok = True
    seed = 1
    for s in range(SETS):
        for workload in (w["name"] for w in SPEC["workloads"]):
            runs = []
            for _ in range(RUNS):
                result = run_once(workload, seed)
                if set(result["metrics"]) != names or not result["correct"]:
                    print(f"BAD {workload} seed {seed}: correct={result['correct']} "
                          f"metrics differ by {sorted(set(result['metrics']) ^ names)}")
                    ok = False
                seed += 1
                runs.append(result)
            raw.setdefault(workload, []).append(runs)
            walls = [r["wall_s"] for r in runs]
            print(f"set {s + 1} {workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
                  f"failed/attempted {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
            cells = []
            for metric in SPEC["end_to_end"]:
                med, q1, q3, rel = spread([r["metrics"][metric["name"]]["value"] for r in runs])
                judged = metric["name"] != "setup_s"
                flag = " SPREAD" if judged and rel > metric["bound"] / 3 else ""
                ok = ok and not flag
                cells.append(f"{metric['name']}={med:.4g} [{q1:.4g}..{q3:.4g}] {100 * rel:.1f}%{flag}")
            print("    " + " | ".join(cells))
    for workload, sets in raw.items():
        for metric in SPEC["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            first, second = (statistics.median(r["metrics"][name]["value"] for r in runs) for runs in sets)
            drift = sign * (second - first) / first
            if drift > metric["bound"]:
                print(f"DRIFT {workload} {name}: {first:.4g} -> {second:.4g} ({100 * drift:+.1f}%)")
                ok = False
    Path(".perfbench_work").mkdir(exist_ok=True)
    Path(".perfbench_work/steady.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
