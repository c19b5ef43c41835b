"""The hand-written export lists: every listed name exists, and the package
list matches what ``mclab/__init__.py`` imports. The benchmark's calls into
mclab resolve too, so a removed name fails here, not only in a benchmark run."""

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


BENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def _unresolved_chains(source: str) -> list[str]:
    """Dotted chains rooted at a module of ``from mclab import ...`` that do
    not resolve, such as ``metrics.PairedPredictions.from_log``."""
    tree = ast.parse(source)
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mclab":
            for alias in node.names:
                roots[alias.asname or alias.name] = importlib.import_module(
                    f"mclab.{alias.name}")
    missing = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not parts or not isinstance(node, ast.Name) or node.id not in roots:
            continue
        target, path = roots[node.id], [node.id]
        for name in reversed(parts):
            path.append(name)
            if not hasattr(target, name):
                missing.add(".".join(path))
                break
            target = getattr(target, name)
    return sorted(missing)


@pytest.mark.parametrize("script", BENCH, ids=lambda p: p.name)
def test_benchmark_calls_resolve(script):
    assert _unresolved_chains(script.read_text(encoding="utf-8")) == []


def test_benchmark_guard_reports_a_missing_name():
    source = ("from mclab import metrics as m\n"
              "m.PairedPredictions.from_log(m.evaluate.gone.deeper, m.nothing)\n")
    assert _unresolved_chains(source) == ["m.evaluate.gone", "m.nothing"]
