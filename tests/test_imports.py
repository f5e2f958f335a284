"""Each fiberplan module uses only the public names of the others, imports on its own,
defines no function or module-level name that nothing names, and the package root
hands out every public name on first use."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fiberplan

PACKAGE = Path(fiberplan.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def _dotted(path: Path) -> str:
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(("fiberplan", *(part for part in parts if part != "__init__")))


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


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level function definition or assignment binds, dunders excepted."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if not re.fullmatch(r"__\w+__", name)]


def _uncalled(modules: list[Path], texts: list[str]) -> list[str]:
    """``module.name`` for each module-level function or assigned name, dunders excepted,
    that neither another module nor a text names, nor its own module outside the
    statement that defines it."""
    sources = {path: path.read_text(encoding="utf-8") for path in modules}
    found = []
    for path, source in sources.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))]) - 1
            elsewhere = ["\n".join(lines[:start] + lines[node.end_lineno:]),
                         *(text for other, text in sources.items() if other != path), *texts]
            for name in _defined(node):
                if not any(re.search(rf"\b{name}\b", text) for text in elsewhere):
                    found.append(f"{path.stem}.{name}")
    return found


def test_every_function_has_a_caller():
    """A function or module-level name that ``src``, README.md and demos/ never name is dead code."""
    texts = [path.read_text(encoding="utf-8") for path in [ROOT / "README.md", *sorted(ROOT.glob("demos/*.py"))]]
    assert len(texts) > 1
    assert _uncalled(MODULES, texts) == []


def test_the_check_sees_an_uncalled_function(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def used():\n    return 1\n\n\ndef dead(n):\n    return dead(n - 1) + used() if n else 0\n\n\n"
                     "def __dir__():\n    return []\n\n\n@staticmethod\ndef named():\n    pass\n")
    assert _uncalled([probe], ["named in a text"]) == ["probe.dead"]


def test_the_check_sees_an_unused_module_level_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('__all__ = []\nUSED, _READ = 1, 2\n_DEAD: int = (\n    _READ\n)\n_NAMED = 3\n'
                     '_LEFTOVER = "%s"\n\n\ndef f():\n    return USED\n')
    assert _uncalled([probe], ["_NAMED in a text", "f"]) == ["probe._DEAD", "probe._LEFTOVER"]


# __main__ is left out: importing it runs the command line.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__main__.py"], ids=_dotted)
def test_each_module_imports_on_its_own(path):
    """A fresh interpreter imports the module first, so an import cycle between modules shows."""
    result = subprocess.run([sys.executable, "-c", f"import {_dotted(path)}"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_the_root_gives_each_public_name_from_the_module_defining_it():
    assert len(fiberplan.__all__) == 55
    for name in fiberplan.__all__:
        obj = getattr(fiberplan, name)
        assert obj.__name__ == name and vars(sys.modules[obj.__module__])[name] is obj
    assert set(fiberplan.__all__) <= set(dir(fiberplan))
    # The forecast module names the traffic inputs it reads; the plant reader checks them from model.
    assert import_module("fiberplan.traffic").TrafficInput is fiberplan.TrafficInput


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from fiberplan import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == fiberplan.__all__


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'fiberplan' has no attribute 'no_such_name'"):
        getattr(fiberplan, "no_such_name")
