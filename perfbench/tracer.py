"""Span tracing of fiberplan's modules from outside the package.

:meth:`Tracer.install` wraps every public function (and public method of a
public class) of each layer module, and rebinds the wrapper in every
fiberplan namespace that imported the original, e.g. both
``fiberplan.model.spans_along`` and ``fiberplan.signal_chain.spans_along``.
Wrapping every binding keeps the real call nesting. Each call records one
span: name, start, end, parent span and command id, held in flat arrays in
memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "netfile", "model", "power_budget", "risetime", "standards",
          "signal_chain", "planning", "traffic")

# Work-size of a call, for per-unit metrics: hops, elements, spans.
SIZERS = {
    "model.spans_along": lambda args, result: len(result),
    "signal_chain.route_chain": lambda args, result: len(result),
    "signal_chain.propagate": lambda args, result: len(args[1]),
    "netfile.parse_network": lambda args, result: len(result.network.spans),
}

COLUMNS = (("name", "i"), ("parent", "q"), ("command", "q"), ("start", "q"), ("end", "q"),
           ("size", "q"), ("raised", "b"))


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.cols = {key: array.array(code) for key, code in COLUMNS}
        self.command = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fiberplan.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._rebind(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        for name, module in list(sys.modules.items()):
            if name == "fiberplan" or name.startswith("fiberplan."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        self._rebind(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner: object, attr: str, wrapper: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        sizer = SIZERS.get(name)
        cols, stack, clock = self.cols, self._stack, time.perf_counter_ns
        c_name, c_parent, c_cmd, c_start, c_end, c_size, c_raised = (cols[k] for k, _ in COLUMNS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(c_start)
            c_name.append(name_id)
            c_parent.append(stack[-1] if stack else -1)
            c_cmd.append(self.command)
            c_size.append(-1)
            c_raised.append(0)
            c_end.append(0)
            stack.append(i)
            c_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                c_end[i] = clock()
                c_raised[i] = 1
                raise
            finally:
                stack.pop()
            c_end[i] = clock()
            if sizer is not None:
                c_size[i] = sizer(args, result)
            return result

        return traced

    def absorb(self, other: "Tracer", command: int) -> None:
        """Append another tracer's spans (e.g. a child process's) as one command."""
        offset = len(self.cols["start"])
        remap = [self._name_id(n) for n in other.names]
        for key, _ in COLUMNS:
            col = other.cols[key]
            if key == "name":
                col = array.array("i", (remap[v] for v in col))
            elif key == "parent":
                col = array.array("q", (v + offset if v >= 0 else -1 for v in col))
            elif key == "command":
                col = array.array("q", [command]) * len(col)
            self.cols[key].extend(col)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def dump(self, path: Path) -> None:
        """Write the spans: one JSON header line, then each column's raw bytes."""
        header = {"names": self.names, "spans": len(self.cols["start"]),
                  "columns": [[k, c] for k, c in COLUMNS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in COLUMNS:
                self.cols[key].tofile(fh)

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            tracer.names = header["names"]
            for key, code in header["columns"]:
                tracer.cols[key] = array.array(code)
                tracer.cols[key].fromfile(fh, header["spans"])
        return tracer

    def per_command(self) -> dict[int, dict[str, list[int]]]:
        """{command: {name: [self_ns, calls, size, raised]}} with self = duration - children."""
        c = self.cols
        n = len(c["start"])
        child = [0] * n
        start, end, parent = c["start"], c["end"], c["parent"]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[int, dict[str, list[int]]] = {}
        names, cmd, size, raised = self.names, c["command"], c["size"], c["raised"]
        for i in range(n):
            row = out.setdefault(cmd[i], {}).setdefault(names[c["name"][i]], [0, 0, 0, 0])
            row[0] += end[i] - start[i] - child[i]
            row[1] += 1
            row[2] += max(size[i], 0)
            row[3] += raised[i]
        return out
