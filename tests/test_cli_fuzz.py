"""Hypothesis drives ``cli.main`` over mutated Sleman documents and flag values.

Every run must end in exit 0, 1 or 2 without an uncaught exception. Exit 2
leaves stdout empty and prints exactly one line starting with ``error:`` (a
validation failure adds indented violation lines below it).

Generated numbers lie on a 1/8 grid within +-1000 and counts stay below 1000,
so no signal chain exceeds about 10^5 elements. Every plan that ends in exit
0 or 1 prints a path-loss total that is the exact rational sum of its inputs
at the printed precision. A value outside its field's physical range is
refused where it is built, so no input reaches a result beyond the float
range: the last property draws every bounded field at an end of its range or
between and runs ``plan`` and ``trace --ber`` on it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from fractions import Fraction
from functools import reduce
from operator import getitem
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from fiberplan import model
from fiberplan.cli import main
from fiberplan.data import sleman_path
from fiberplan.model import resolved_splices, ring_spans, spans_along
from fiberplan.netfile import parse_network
from fiberplan.power_budget import splitter_loss
from fiberplan.standards import builtin_profiles

SLEMAN = json.loads(sleman_path().read_text(encoding="utf-8"))
NODE_IDS = [node["id"] for node in SLEMAN["nodes"]]
LAB = {"bit_rate": 10e9, "line_code": "nrz", "rx_sensitivity": -30.0}

numbers = st.integers(-8000, 8000).map(lambda k: k / 8)
counts = st.integers(-3, 1000)
words = st.sampled_from(["auto", "ring", "tree", "nrz", "rz", "edfa", "", "zz", *NODE_IDS])
# Copied on each draw: an edit may append to a drawn list, which must not change the strategy's own.
odd = st.sampled_from([math.nan, math.inf, -math.inf, True, None, [], {}, [2], {"gain": 20.0}]).map(copy.deepcopy)
values = st.one_of(numbers, counts, words, odd)


def _paths(value, prefix=()):
    """Every key or index path into a decoded JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


@st.composite
def documents(draw):
    doc = copy.deepcopy(SLEMAN)
    if draw(st.booleans()):
        doc["standards"] = {"lab": dict(LAB)}
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = reduce(getitem, path[:-1], doc)
        action = draw(st.sampled_from(["set", "set", "delete", "add"]))
        if action == "set":
            parent[path[-1]] = draw(values)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["unknown"] = draw(values)
        else:
            parent.append(draw(values))
    return doc


def _flag(name: str, value: object) -> str:
    return f"--{name}={value}"  # one token, so negative values are not read as flags


path_specs = st.one_of(st.just("ring"), st.lists(st.sampled_from([*NODE_IDS, "zz"]), max_size=4).map(",".join))


@st.composite
def arguments(draw):
    """A plan, trace, validate or forecast command line, less ``--network``."""
    command = draw(st.sampled_from(["plan", "trace", "validate", "forecast"]))
    argv = [command, "--format", draw(st.sampled_from(["text", "json"]))]
    if command == "plan":
        argv.append(_flag("standard", draw(st.sampled_from([*builtin_profiles(), "lab", "nope"]))))
        if draw(st.booleans()):
            argv.append(_flag("path", draw(path_specs)))
        if draw(st.booleans()):
            argv.append("--as-built")
    elif command == "trace":
        if draw(st.booleans()):
            argv.append(_flag("path", draw(path_specs)))
        if draw(st.booleans()):
            argv.append(_flag("power", draw(st.one_of(numbers, st.sampled_from([math.nan, math.inf])))))
        if draw(st.booleans()):
            argv.append("--ber")
    return argv


@st.composite
def forecast_arguments(draw):
    """A forecast command line, less ``--network``, overriding some of the file's traffic inputs."""
    argv = ["forecast", "--format", draw(st.sampled_from(["text", "json"]))]
    if draw(st.booleans()):
        argv.append(_flag("population", draw(st.integers(-1, 10**7))))
    if draw(st.booleans()):
        argv.append(_flag("horizon", draw(st.sampled_from([-1, 0, 5, 20_000, 100_000]))))
    for name in ("cellular-penetration", "operator-share", "lte-penetration", "annual-growth"):
        if draw(st.booleans()):
            argv.append(_flag(name, draw(st.integers(-1, 8000).map(lambda k: k / 8))))
    return argv


def assert_clean_exit(doc, argv) -> tuple[int, str, list[str]]:
    """``main`` returns 0, 1 or 2; exit 2 prints one ``error:`` line and nothing on stdout.

    Returns the exit code, stdout and the lines of stderr.
    """
    with tempfile.TemporaryDirectory() as tmp:
        network = Path(tmp) / "plant.json"
        network.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, "--network", str(network)])
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out.getvalue() == ""
        assert [line for line in lines if not line.startswith("  ")] == lines[:1]
        assert lines[0].startswith("error: ")
    else:
        assert lines == []
    return rc, out.getvalue(), lines


def exact_path_loss(doc, path_spec: str) -> tuple[Fraction, int]:
    """The path loss of a plan as the exact rational sum of the file's numbers, and the span count.

    Each span adds connector_loss x connectors, attenuation x length and
    splice_loss x splices, each product exact, plus its splitter losses (the
    ideal split is irrational, so its float is the input); the system margin
    is added once.
    """
    net = parse_network(doc).network
    nodes = [part.strip() for part in path_spec.split(",") if part.strip()]
    spans = ring_spans(net) if path_spec.strip().lower() == "ring" else spans_along(net, nodes)
    losses = net.losses
    total = Fraction(losses.system_margin) if spans else Fraction(0)
    for span in spans:
        total += Fraction(losses.connector_loss) * span.connectors
        total += Fraction(span.fiber.attenuation) * Fraction(span.length)
        total += Fraction(losses.splice_loss) * resolved_splices(span)
        total += sum(Fraction(splitter_loss(s, losses.splitter_excess_loss)) for s in span.splitters)
    return total, len(spans)


def printed_path_loss(out: str, as_json: bool) -> Fraction:
    if as_json:
        return Fraction(repr(json.loads(out)["path_loss"]["total"]))
    return Fraction(re.search(r"^Path loss \(margin once\): .* = (\S+) dB$", out, re.MULTILINE).group(1))


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(doc=documents(), argv=arguments())
def test_commands_on_mutated_documents_never_end_in_a_traceback(doc, argv):
    rc, out, _ = assert_clean_exit(doc, argv)
    if argv[0] == "plan" and rc != 2:
        path = next((arg.partition("=")[2] for arg in argv if arg.startswith("--path=")), "ring")
        exact, spans = exact_path_loss(doc, path)
        # The float total is the exact sum but for one rounding per product (three per span), per
        # kind's fsum and per addition of the five kinds, each at most half an ulp of a value no
        # larger than the total (a whole ulp of the exact total, should the float cross a power
        # of two); printing to 0.01 dB adds at most 0.005 dB.
        slack = Fraction(1, 200) + Fraction(math.ulp(float(exact))) * (3 * spans + 4 + 4)
        assert abs(printed_path_loss(out, argv[2] == "json") - exact) <= slack


@FUZZ
@given(argv=forecast_arguments())
def test_forecast_flags_never_end_in_a_traceback(argv):
    assert_clean_exit(SLEMAN, argv)


# --- every bounded field at an end of its range or between ---

def bounded(domain, above: bool = False):
    """A value of ``domain``: either end (the least value above the low end when ``above``) or one between."""
    lo, hi = domain
    if isinstance(lo, int):
        return st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))
    low = math.nextafter(lo, math.inf) if above else lo
    return st.one_of(st.sampled_from([low, hi]), st.floats(low, hi))


@st.composite
def bounded_plants(draw):
    """A 3-node ring or a 3-node tree, whose leaf path is ``h,x,y``, of bounded values."""
    ring = draw(st.booleans())
    links = [("a", "b"), ("b", "c"), ("c", "a")] if ring else [("h", "x"), ("x", "y")]
    spans = []
    for i, (a, b) in enumerate(links):
        span = {
            "id": f"s{i}", "from": a, "to": b, "fiber": "f",
            "length": draw(bounded(model.LENGTH_KM, above=True)),
            "connectors": draw(bounded(model.COUNT)),
            "splices": draw(st.one_of(st.just("auto"), bounded(model.COUNT))),
            "amplifiers": [{"gain": g} for g in draw(st.lists(bounded(model.GAIN_DB), max_size=2))],
            "splitters": draw(st.lists(st.sampled_from([2**k for k in range(1, 11)]), max_size=2)),
        }
        spans.append(span)
    doc = {
        "topology": "ring" if ring else "tree",
        "nodes": [{"id": n} for n in (["a", "b", "c"] if ring else ["h", "x", "y"])],
        "spans": spans,
        "fiber_profiles": {"f": {
            "attenuation": draw(bounded(model.ATTENUATION_DB_PER_KM, above=True)),
            "dispersion": draw(bounded(model.DISPERSION_PS_PER_NM_KM)),
            "drum_length": draw(bounded(model.DRUM_LENGTH_KM)),
        }},
        "transceiver": {
            "tx_power": draw(bounded(model.POWER_DBM)),
            "spectral_width": draw(bounded(model.SPECTRAL_WIDTH_NM, above=True)),
            "tx_rise_time": draw(bounded(model.RISE_TIME_PS, above=True)),
            "rx_rise_time": draw(bounded(model.RISE_TIME_PS, above=True)),
            "rx_sensitivity": draw(bounded(model.POWER_DBM)),
            "responsivity": draw(bounded(model.RESPONSIVITY_A_PER_W, above=True)),
        },
        "losses": {name: draw(bounded(model.LOSS_DB))
                   for name in ("connector_loss", "splice_loss", "system_margin", "splitter_excess_loss")},
        "standards": {"lab": {
            "bit_rate": draw(bounded(model.BIT_RATE_BPS)),
            "line_code": draw(st.sampled_from(["nrz", "rz"])),
            "rx_sensitivity": draw(bounded(model.POWER_DBM)),
        }},
        "distribution_loss": draw(bounded(model.LOSS_DB)),
        "edfa_gain": draw(bounded(model.GAIN_DB)),
    }
    return doc, "ring" if ring else "h,x,y"


NOT_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plant=bounded_plants(), as_json=st.booleans())
def test_plants_at_the_ends_of_every_range_plan_and_trace_finite_figures(plant, as_json):
    """No guard the field ranges made unreachable is needed: every figure stays finite."""
    doc, path = plant
    form = ["--format", "json" if as_json else "text"]
    for argv in (["plan", "--standard=lab", f"--path={path}", *form], ["trace", "--ber", f"--path={path}", *form]):
        rc, out, err = assert_clean_exit(doc, argv)
        if rc == 2:  # only a trace too long to build may be refused
            assert argv[0] == "trace" and "too many joints to trace" in err[0], err
        else:
            assert not NOT_FINITE.search(out), out
