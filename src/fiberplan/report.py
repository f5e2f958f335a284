"""Report spelling shared by every command, and the validate command's report.

dB and dBm print with two decimals, rise times with three, counts as
integers; the same precision is applied to JSON payloads. Each row of a
ring-sized table is one C-level %-format of the template for its kind.

A JSON report is a skeleton json.dumps(keys, indent=2) writes at import (:func:`skeleton`), filled by
:func:`dumps` with each value as json.dumps spells it: an indent runs CPython's pure-Python encoder, too
slow for a ring-sized table, whose closures form a cycle only the garbage collector frees. The tables that
grow with the plant stand in a skeleton as ``[]``, and their rows are spliced in after, each one %-format
of a template written at import too (:func:`row`). A table's numbers are spelled by :func:`spell` in one
%-format, of slots taken from :data:`SLOT`: fixed-point digits, trimmed to the shortest form json.dumps
writes for round(x, n). A table with a value that is not a finite float below 1e12 takes the exact path
instead, json.dumps of each rounded value. A column that holds the same object in every row of a plan's
span table is spelled once per report, into that report's row template
(:func:`fiberplan.planning.render_plan_json`).
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Sequence

from .model import Violation


def db(x: float) -> float:
    """A dB or dBm value rounded to the two decimals reports show."""
    return round(x, 2)


def spell(values: tuple[float, ...], slots: str) -> list[str]:
    """How json.dumps spells each value, rounded as its slot in ``slots`` says (see :data:`SLOT`).

    One %-format writes every value: ``%r``, or ``%.nf`` and n - 1 NUL markers for a
    value rounded to n = 2 or 3 decimals. Dropping the zeros before a marker that
    json.dumps would not write, at most n - 1 of them, then the markers, gives exactly
    repr(round(x, n)): both take their digits from the same correctly rounded dtoa,
    below 1e12 there are at most 15 significant ones, and a double round-trips 15,
    so the shortest repr of the rounded value has the same digits. Unless the values
    are all floats (json.dumps writes an int without a point), finite, and below 1e12
    in root-sum-square, they are spelled one by one by json.dumps, after round().
    """
    if math.hypot(*values) < 1e12 and {*map(type, values)} == {float}:  # inf and NaN fail the first test
        return (slots % values).replace("0\0\0", "\0").replace("0\0", "").replace("\0", "").split("\n")
    # slot[2] is the n of "%.nf".
    return [json.dumps(x if slot == "%r" else round(x, int(slot[2]))) for x, slot in zip(values, slots.split("\n"))]


BOOL = ("false", "true")


def skeleton(keys: dict[str, Any]) -> str:
    """A report's %-template: json.dumps(keys, indent=2), each null value a ``%s`` slot, each ``[]`` a table."""
    return json.dumps(keys, indent=2).replace(": null", ": %s")


def row(keys: dict[str, Any]) -> str:
    """The %-template of one table item: :func:`skeleton` indented two levels."""
    return "    " + skeleton(keys).replace("\n", "\n    ")


SLOT = {None: "%r\n", 2: "%.2f\0\n", 3: "%.3f\0\0\n"}
"""The :func:`spell` slot of a number, by the decimals it is rounded to (None: not rounded)."""


def dumps(template: str, values: Sequence[Any], **tables: list[str]) -> str:
    """json.dumps(payload, indent=2) and a newline, for the payload whose :func:`skeleton` is ``template``:
    each slot holds json.dumps of its value (a string, number, bool or None), and each top-level key
    named in ``tables``, in the template's order, holds that table's items, indented two levels.

    ``\n  "key": []`` can only start that top-level key: json.dumps escapes both the
    newline and the quote inside strings, and writes a nested key deeper. The items are
    copied once, by the final join; a table's first and last items take its brackets.
    """
    rows, rest = [""], template % tuple(map(json.dumps, values))
    for key, items in tables.items():
        if items:
            head, rest = rest.split(f'\n  "{key}": []')
            rows[-1] += f'{head}\n  "{key}": [\n{items[0]}'
            rows += items[1:]
            rows[-1] += "\n  ]"
    rows[-1] += rest + "\n"
    return ",\n".join(rows)


def render_violations_text(violations: list[Violation]) -> str:
    if not violations:
        return "network is structurally valid\n"
    lines = [f"{v.element}: {v.rule}: {v.message}" for v in violations]
    lines.append(f"{len(violations)} violation(s)")
    return "\n".join(lines) + "\n"


_VIOLATION_JSON = row(dict.fromkeys(Violation._fields))
_VALIDATE_JSON = skeleton({"valid": None, "violations": []})


def render_violations_json(violations: list[Violation]) -> str:
    """The validation result as JSON, byte for byte what json.dumps(indent=2) writes."""
    items = [_VIOLATION_JSON % (_json_str(v.element), _json_str(v.rule), _json_str(v.message)) for v in violations]
    return dumps(_VALIDATE_JSON, (not violations,), violations=items)
