"""Each fiberplan module uses only the public names of the others."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fiberplan

PACKAGE = Path(fiberplan.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _private_imports(path: Path) -> list[str]:
    """``module.name`` for every private name ``path`` imports from another fiberplan module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level or module == "fiberplan" or module.startswith("fiberplan.")):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{'.' * node.level}{module}.{alias.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_module_imports_a_private_name_of_another(path):
    assert _private_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .netfile import NetworkDocument, _number\nfrom fiberplan.model import _frozen_eq\n")
    assert _private_imports(probe) == [".netfile._number", "fiberplan.model._frozen_eq"]
