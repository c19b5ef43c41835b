"""The hand-written export lists: every listed name exists, and the package
list matches what ``mclab/__init__.py`` imports. The benchmark's calls into
mclab resolve too, so a removed name fails here, not only in a benchmark run,
and one compose_infer pass passes its own check.
Only ``core``'s line reader decodes a file's text or names a fault's line,
no config has a ``validate`` method, and no rule has a second copy."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
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


def test_one_line_reader():
    found = []
    for source in sorted(Path(mclab.__file__).parent.glob("*.py")):
        if source.name == "core.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in ("fail", "number"):
                found.append(f"{source.name}:{node.lineno}: def {node.name}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "decode"):
                found.append(f"{source.name}:{node.lineno}: .decode(")
    assert found == []


def test_no_environment_input():
    """No module reads an environment variable, so a run is a function of its
    config document and master seed alone."""
    found = []
    for source in sorted(Path(mclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb",
                                                                 "getenv", "getenvb"):
                found.append(f"{source.name}:{node.lineno}: .{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    a.name in ("environ", "environb", "getenv", "getenvb") for a in node.names):
                found.append(f"{source.name}:{node.lineno}: from os import")
    assert found == []


def test_configs_check_themselves():
    """No config has a ``validate`` method for a consumer to call: each checks
    itself in ``__post_init__``."""
    found = []
    for source in sorted(Path(mclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "validate":
                found.append(f"{source.name}:{node.lineno}: def validate")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "validate"):
                found.append(f"{source.name}:{node.lineno}: .validate(")
    assert found == []


def test_each_rule_is_stated_once():
    """No policy method repeats the document's range checks, and only
    ``harness`` calls ``default_config_dict``, so no second walk over the
    schema (such as one for ``--set``) comes back."""
    found = []
    for source in sorted(Path(mclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "field_problems":
                found.append(f"{source.name}:{node.lineno}: def field_problems")
            if (isinstance(node, ast.Call) and source.name != "harness.py"
                    and "default_config_dict" in ast.unparse(node.func)):
                found.append(f"{source.name}:{node.lineno}: default_config_dict(")
    assert found == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH = sorted(PERFBENCH.glob("*.py"))


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


def _bindings() -> dict:
    """Every attribute of the mclab modules and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "mclab" and not name.startswith("mclab."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, attr, key), item) for key, item in vars(value).items())
    return out


def test_benchmark_tracer_installs_and_restores():
    """The tracer wraps methods it names as strings, which no chain above
    checks: a renamed one must fail here, not in every traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _bindings()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        wrapped = {key for key, value in _bindings().items() if value is not before.get(key)}
    finally:
        tracer.close()
    assert {key[-1] for key in wrapped} >= {"train", "write", "forward", "backward"}
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", ["train_base", "sweep", "compose_infer"])
def test_benchmark_workload_checks_clean(tmp_path, monkeypatch, name):
    """One pass of each benchmark workload passes its own check. The checks
    read instance attributes, such as ``policy.excluded_label``, ``.tau``,
    ``.as_new_class`` and each row's ``overridden``, that no chain above can
    resolve, and the ``sweep`` check reloads its manifest with
    ``load_sweep``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)  # the workload writes under ./.bench_work
    workload = workloads.WORKLOADS[name](PERFBENCH.parent, seed=0)
    workload.setup()
    assert workload.check(workload.run_pass(1)) == []
