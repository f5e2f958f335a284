"""Hypothesis drives ``cli.main`` over mutated Sleman documents and flag values.

Every run must end in exit 0, 1 or 2 without an uncaught exception. Exit 2
leaves stdout empty and prints exactly one line starting with ``error:`` (a
validation failure adds indented violation lines below it).

Generated numbers lie on a 1/8 grid within +-1000 and counts stay below 1000,
so no signal chain exceeds about 10^5 elements. Values whose results leave
the float range are covered by the exit-2 table in ``test_cli.py``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from fiberplan.cli import main
from fiberplan.data import sleman_path
from fiberplan.standards import builtin_profiles

SLEMAN = json.loads(sleman_path().read_text(encoding="utf-8"))
NODE_IDS = [node["id"] for node in SLEMAN["nodes"]]
LAB = {"bit_rate": 10e9, "line_code": "nrz", "rx_sensitivity": -30.0}

numbers = st.integers(-8000, 8000).map(lambda k: k / 8)
counts = st.integers(-3, 1000)
words = st.sampled_from(["auto", "ring", "tree", "nrz", "rz", "edfa", "", "zz", *NODE_IDS])
odd = st.sampled_from([math.nan, math.inf, -math.inf, True, None, [], {}, [2], {"gain": 20.0}])
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


def assert_clean_exit(doc, argv) -> None:
    """``main`` returns 0, 1 or 2; exit 2 prints one ``error:`` line and nothing on stdout."""
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


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(doc=documents(), argv=arguments())
def test_commands_on_mutated_documents_never_end_in_a_traceback(doc, argv):
    assert_clean_exit(doc, argv)


@FUZZ
@given(argv=forecast_arguments())
def test_forecast_flags_never_end_in_a_traceback(argv):
    assert_clean_exit(SLEMAN, argv)
