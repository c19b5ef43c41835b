"""The hand-written export lists: every listed name exists, and the package
list matches what ``mclab/__init__.py`` imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mclab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(mclab.__path__))


def test_package_exports_resolve():
    missing = [name for name in mclab.__all__ if not hasattr(mclab, name)]
    assert missing == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"mclab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_are_what_init_binds():
    tree = ast.parse(Path(mclab.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {n for n in bound - {"__all__"}
              if not n.startswith("_") or n.startswith("__") and n.endswith("__")}
    assert len(mclab.__all__) == len(set(mclab.__all__))
    assert set(mclab.__all__) == public
