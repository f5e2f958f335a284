"""Independent oracle: expected command results in closed form.

Expected values are computed from the generator's documents with plain
arithmetic and never by calling fiberplan. :func:`check` returns a list of
disagreements; an empty list means the command's exit code, every checked
number and the shape of its stderr agree with the oracle.
"""

from __future__ import annotations

import json
import math
import re

STANDARD = "gpon-onu-endpoint"
STANDARD_SENSITIVITY = -28.0  # dBm, ITU-T G.984.2 class ONU
RISE_CEILING = 70.0  # ps: 0.7 bit periods of 10 Gb/s NRZ
NOISE_SIGMA = 7e-7  # A, the receiver noise of fiberplan's Gaussian BER model
DB_TOL = 0.011  # reports print dB with two decimals
# Last line of the traceback a NaN span length ends in today (ROADMAP item 5).
NAN_TRACEBACK = "ValueError: cannot convert float NaN to integer"

# Paper figures for the bundled Sleman ring.
SLEMAN_RING_LOSS = 34.92
SLEMAN_EDFAS = 2
SLEMAN_RECEIVED = -2.59
SLEMAN_RISE = {
    "01-seyegan-tempel": 69.552,
    "02-tempel-pakem": 69.773,
    "03-pakem-ngemplak": 69.541,
    "04-ngemplak-kalasan": 69.524,
    "05-kalasan-depok": 69.606,
    "06-depok-gamping": 69.625,
    "07-gamping-seyegan": 69.582,
}
SLEMAN_FORECAST = (1275331, 535639, 107128, 137378)


def _splices(span: dict, fiber: dict) -> int:
    if span.get("splices", "auto") == "auto":
        return math.ceil(span["length"] / fiber["drum_length"]) + 2
    return span["splices"]


def ring_spans(doc: dict) -> list[dict]:
    """Every span of a ring once: the ring path covers each span exactly once."""
    return list(doc["spans"])


def tree_path_spans(doc: dict, path: list[str]) -> list[dict]:
    by_pair = {frozenset((s["from"], s["to"])): s for s in doc["spans"]}
    return [by_pair[frozenset(pair)] for pair in zip(path, path[1:])]


def plan_expect(doc: dict, spans: list[dict], as_built: bool = False) -> dict:
    """Loss budget, amplifier sizing, received power and verdicts of a path."""
    losses, trx = doc["losses"], doc["transceiver"]
    connectors = fiber = splices = splitters = 0.0
    gains = []
    for span in spans:
        profile = doc["fiber_profiles"][span["fiber"]]
        connectors += span.get("connectors", 2) * losses["connector_loss"]
        fiber += profile["attenuation"] * span["length"]
        splices += _splices(span, profile) * losses["splice_loss"]
        splitters += sum(10 * math.log10(r) + losses.get("splitter_excess_loss", 0.0)
                         for r in span.get("splitters", []))
        gains += [a["gain"] for a in span.get("amplifiers", [])]
    margin = losses["system_margin"]
    total = connectors + fiber + splices + splitters + margin
    distribution = doc.get("distribution_loss", 0.0)
    budget = trx["tx_power"] - (trx["rx_sensitivity"] + distribution)
    deficit = max(0.0, total - budget)
    unit = doc.get("edfa_gain", 20.0)
    edfas = math.ceil(deficit / unit) if deficit > 0 else 0
    inventory = sum(gains)
    applied = inventory if as_built else max(inventory, edfas * unit)
    received = trx["tx_power"] - total - distribution + applied
    rises = {}
    for span in spans:
        profile = doc["fiber_profiles"][span["fiber"]]
        dispersion = profile["dispersion"] * trx["spectral_width"] * span["length"]
        rises[span["id"]] = math.sqrt(trx["tx_rise_time"] ** 2 + trx["rx_rise_time"] ** 2 + dispersion**2)
    passed = received >= STANDARD_SENSITIVITY and all(r <= RISE_CEILING for r in rises.values())
    return {
        "connectors": connectors, "fiber": fiber, "splices": splices, "splitters": splitters,
        "margin": margin, "total": total, "edfa_count": edfas, "received": received,
        "as_built": trx["tx_power"] - total - distribution + inventory, "rises": rises,
        "exit": 0 if passed else 1,
    }


def trace_expect(doc: dict, spans: list[dict]) -> dict:
    """Point count and final power of a trace injected at the transmit power."""
    losses, trx = doc["losses"], doc["transceiver"]
    elements = 1 if losses["system_margin"] > 0 else 0
    for span in spans:
        profile = doc["fiber_profiles"][span["fiber"]]
        elements += (span.get("connectors", 2) + 1 + _splices(span, profile)
                     + len(span.get("splitters", [])) + len(span.get("amplifiers", [])))
    plan = plan_expect(doc, spans, as_built=True)
    final = plan["as_built"] + doc.get("distribution_loss", 0.0)
    q = trx["responsivity"] * 10 ** ((final - 30.0) / 10.0) / NOISE_SIGMA
    return {"points": elements + 1, "final_power": final, "q": q,
            "ber": 0.5 * math.erfc(q / math.sqrt(2.0)), "exit": 0}


def validate_expect(doc: dict) -> dict:
    """Structural violations as (element, rule) pairs, sorted like the report."""
    found = []
    if doc["topology"] == "ring":
        ids = [n["id"] for n in doc["nodes"]]
        degree = dict.fromkeys(ids, 0)
        parent = {n: n for n in ids}

        def root(x: str) -> str:
            while parent[x] != x:
                x = parent[x]
            return x

        for span in doc["spans"]:
            degree[span["from"]] += 1
            degree[span["to"]] += 1
            parent[root(span["from"])] = root(span["to"])
        found += [(f"node:{n}", "ring-degree") for n in ids if degree[n] != 2]
        if len({root(n) for n in ids}) != 1 or len(doc["spans"]) != len(ids):
            found.append(("network", "ring-single-cycle"))
    return {"violations": sorted(found), "exit": 1 if found else 0}


def _round_half_toward_zero(x: float) -> int:
    return math.ceil(x - 0.5)


def forecast_expect(traffic: dict) -> dict:
    mobile = _round_half_toward_zero(traffic["population"] * traffic["cellular_penetration"])
    operator = _round_half_toward_zero(mobile * traffic["operator_share"])
    lte = _round_half_toward_zero(operator * traffic["lte_penetration"])
    projected = _round_half_toward_zero(lte * (1.0 + traffic["annual_growth"]) ** traffic["horizon"])
    return {"counts": (mobile, operator, lte, projected), "exit": 0}


# --- output checks ---------------------------------------------------------


def _near(problems: list[str], what: str, got: float, want: float, tol: float = DB_TOL) -> None:
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        problems.append(f"{what}: got {got!r}, want {want:.3f}")


def _stderr_shape(problems: list[str], rc: int, stderr: str, traceback: str | None) -> None:
    if traceback is not None:
        if not (stderr.startswith("Traceback") and stderr.rstrip().endswith(traceback)):
            problems.append(f"want a traceback ending {traceback!r}, got {stderr[-120:]!r}")
    elif "Traceback" in stderr:
        problems.append("traceback on stderr")
    elif rc == 2:
        lines = stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            problems.append(f"exit 2 needs a one-line 'error:' reason, got {stderr!r}")
    elif stderr:
        problems.append(f"unexpected stderr {stderr[:120]!r}")


def check(expect: dict, fmt: str, rc: int, stdout: str, stderr: str) -> list[str]:
    """Compare one command's exit code, output and stderr with the oracle.

    ``expect`` may also name a ``traceback``: the last stderr line of a crash
    that is expected, used only to recognise a known defect.
    """
    problems: list[str] = []
    if rc != expect["exit"]:
        problems.append(f"exit {rc}, want {expect['exit']}")
    _stderr_shape(problems, rc, stderr, expect.get("traceback"))
    if expect.get("reason") and expect["reason"] not in stderr:
        problems.append(f"stderr does not name {expect['reason']!r}")
    if expect["exit"] == 2 or expect.get("traceback") or rc not in (0, 1):  # no report to read
        return problems
    if not stdout:
        problems.append("empty report")
        return problems
    try:
        CHECKS[expect["kind"], fmt](problems, expect, stdout)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        problems.append(f"unreadable {expect['kind']} {fmt} output: {exc!r}")
    return problems


_PATH_LINE = re.compile(
    r"^Path loss \(margin once\): connectors (\S+) \+ fiber (\S+) \+ splices (\S+)"
    r" \+ splitters (\S+) \+ margin (\S+) = (\S+) dB$", re.M)
_AMP_LINE = re.compile(r"^Amplifier plan: deficit \S+ dB -> (\d+) x ", re.M)
_RX_LINE = re.compile(r"^Received power: (\S+) dBm \(as built (\S+) dBm", re.M)
_COMPONENTS = ("connectors", "fiber", "splices", "splitters", "margin", "total")


def _plan_text(problems: list[str], e: dict, out: str) -> None:
    for key, value in zip(_COMPONENTS, _PATH_LINE.search(out).groups()):
        _near(problems, f"path {key}", float(value), e[key])
    if int(_AMP_LINE.search(out).group(1)) != e["edfa_count"]:
        problems.append("edfa_count disagrees")
    received, as_built = map(float, _RX_LINE.search(out).groups())
    _near(problems, "received", received, e["received"])
    _near(problems, "as built", as_built, e["as_built"])
    if f"OVERALL: {'PASS' if e['exit'] == 0 else 'FAIL'}" not in out:
        problems.append("overall verdict disagrees")


def _plan_json(problems: list[str], e: dict, out: str) -> None:
    doc = json.loads(out)
    for key in _COMPONENTS:
        _near(problems, f"path {key}", doc["path_loss"][key], e[key])
    if doc["amplifier_plan"]["edfa_count"] != e["edfa_count"]:
        problems.append(f"edfa_count {doc['amplifier_plan']['edfa_count']}, want {e['edfa_count']}")
    _near(problems, "received", doc["received_power"]["effective"], e["received"])
    _near(problems, "as built", doc["received_power"]["as_built"], e["as_built"])
    rises = {row["id"]: row["rise_time"]["total"] for row in doc["spans"]}
    if set(rises) != set(e["rises"]):
        problems.append(f"plan covers spans {sorted(rises)[:4]}..., want {sorted(e['rises'])[:4]}...")
    for span_id in set(rises) & set(e["rises"]):
        _near(problems, f"rise time {span_id}", rises[span_id], e["rises"][span_id], 0.0015)
    if doc["overall_pass"] != (e["exit"] == 0):
        problems.append("overall_pass disagrees")


def _ber(problems: list[str], e: dict, q: float, ber: float) -> None:
    _near(problems, "q factor", q, e["q"], 0.0015 + 1e-6 * e["q"])
    if not math.isclose(ber, e["ber"], rel_tol=2e-3, abs_tol=1e-300):
        problems.append(f"ber {ber!r}, want {e['ber']:.3e}")


def _trace_text(problems: list[str], e: dict, out: str) -> None:
    body, _, tail = out.partition("\n\n")
    points = body.splitlines()
    if len(points) != e["points"]:
        problems.append(f"{len(points)} trace points, want {e['points']}")
    _near(problems, "final power", float(points[-1].split()[-2]), e["final_power"])
    q_line, ber_line = tail.splitlines()
    _ber(problems, e, float(q_line.rsplit(" ", 1)[1]), float(ber_line.rsplit(" ", 1)[1]))


def _trace_json(problems: list[str], e: dict, out: str) -> None:
    doc = json.loads(out)
    if len(doc["points"]) != e["points"]:
        problems.append(f"{len(doc['points'])} trace points, want {e['points']}")
    _near(problems, "final power", doc["final_power"], e["final_power"])
    _ber(problems, e, doc["ber"]["q_factor"], doc["ber"]["ber"])


def _validate_text(problems: list[str], e: dict, out: str) -> None:
    if not e["violations"]:
        if out != "network is structurally valid\n":
            problems.append(f"validate printed {out[:80]!r}")
        return
    lines = out.splitlines()
    got = sorted(tuple(line.split(": ")[:2]) for line in lines[:-1])
    if got != e["violations"] or lines[-1] != f"{len(e['violations'])} violation(s)":
        problems.append(f"violations {got}, want {e['violations']}")


def _forecast_text(problems: list[str], e: dict, out: str) -> None:
    # rows are "<name:22> <count:12,>  <note>"; the first row is the population
    numbers = [int(line[23:35].replace(",", "")) for line in out.splitlines()[1:]]
    if tuple(numbers) != e["counts"]:
        problems.append(f"forecast {numbers}, want {list(e['counts'])}")


CHECKS = {
    ("plan", "text"): _plan_text,
    ("plan", "json"): _plan_json,
    ("trace", "text"): _trace_text,
    ("trace", "json"): _trace_json,
    ("validate", "text"): _validate_text,
    ("forecast", "text"): _forecast_text,
}


def sleman_paper_figures(doc: dict) -> list[str]:
    """The paper's worked figures, checked against the closed form on Sleman."""
    e = plan_expect(doc, ring_spans(doc))
    problems: list[str] = []
    _near(problems, "Sleman ring loss", e["total"], SLEMAN_RING_LOSS, 0.005)
    _near(problems, "Sleman received power", e["received"], SLEMAN_RECEIVED, 0.005)
    if e["edfa_count"] != SLEMAN_EDFAS:
        problems.append(f"Sleman EDFAs {e['edfa_count']}, want {SLEMAN_EDFAS}")
    for span_id, rise in SLEMAN_RISE.items():
        _near(problems, f"Sleman rise {span_id}", e["rises"][span_id], rise, 0.0005)
    if forecast_expect(doc["traffic"])["counts"] != SLEMAN_FORECAST:
        problems.append("Sleman forecast disagrees with the paper")
    return problems
