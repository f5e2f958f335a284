"""Traced stand-in for ``python -m fiberplan``.

Usage: python child.py SPANS_FILE <fiberplan arguments...>

Installs the tracer's wrappers, runs ``fiberplan.cli.main`` with the given
arguments, writes the recorded spans to SPANS_FILE and exits with main's
code. An uncaught exception still prints its traceback, as the real entry
point would.
"""

import sys
from pathlib import Path

import fiberplan.cli
from tracer import Tracer


def _main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return fiberplan.cli.main(argv)
    finally:
        tracer.dump(Path(spans_file))


if __name__ == "__main__":
    sys.exit(_main())
