"""The hand-written export lists: the package binds only ``__version__``,
and every name a module lists exists and is defined in that module, so each
public name has one home. The benchmark's calls into mclab resolve too, so a
removed name fails here, not only in a benchmark run, and one compose_infer
pass passes its own check.
Only ``core``'s line reader decodes a file's text or names a fault's line,
the package defines two exception types, no config has a ``validate``
method, no rule has a second copy, and only ``harness.plan_run`` derives a
run's seeds."""

import ast
import builtins
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import mclab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(mclab.__path__))


def test_package_binds_only_its_version():
    """``mclab/__init__.py`` is its docstring and ``__version__``: callers
    import each name from its module, so no second list of them can drift."""
    body = ast.parse(Path(mclab.__file__).read_text(encoding="utf-8")).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign]
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
    assert [ast.unparse(t) for t in body[1].targets] == ["__version__"]
    assert isinstance(body[1].value, ast.Constant) and isinstance(body[1].value.value, str)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"mclab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_are_defined_there(module):
    """A module lists only what it defines: a class or function by its
    ``__module__``, any other value by a top-level assignment in its file."""
    mod = importlib.import_module(f"mclab.{module}")
    assigned = set()
    for node in ast.parse(Path(mod.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            assigned.update(ast.unparse(target) for target in node.targets)
        elif isinstance(node, ast.AnnAssign):
            assigned.add(ast.unparse(node.target))
    foreign = []
    for name in mod.__all__:
        value = getattr(mod, name, None)
        if isinstance(value, type) or inspect.isfunction(value):
            if value.__module__ != mod.__name__:
                foreign.append(f"{name} from {value.__module__}")
        elif name not in assigned:
            foreign.append(name)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert foreign == []


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


def test_two_exception_types():
    """``ConfigError`` (a bad config) and ``StageError`` (a failed stage) are
    the only exception classes the package defines; a bad file raises a plain
    ``ValueError`` that names it, whichever loader reads it."""
    found = []
    for source in sorted(Path(mclab.__file__).parent.glob("*.py")):
        module = importlib.import_module("mclab" if source.stem == "__init__"
                                         else f"mclab.{source.stem}")
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                head, *rest = ast.unparse(base).split(".")
                target = getattr(module, head, getattr(builtins, head, None))
                for name in rest:
                    target = getattr(target, name, None)
                if isinstance(target, type) and issubclass(target, BaseException):
                    found.append(f"{source.name}: {node.name}")
    assert found == ["core.py: ConfigError", "harness.py: StageError"]


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


ROOT = Path(__file__).resolve().parent.parent


def _run_seed_paths(tree: ast.AST) -> list[tuple[int, str]]:
    """Calls that derive a seed on a run's path: ``derived_seed`` with a
    ``"split"`` or ``"run"`` word, or ``.derive`` with a ``"run"`` word."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        words = {a.value for a in node.args if isinstance(a, ast.Constant)}
        if (name.endswith("derived_seed") and words & {"split", "run"}
                or name.endswith(".derive") and "run" in words):
            found.append((node.lineno, name))
    return found


def test_a_runs_seed_paths_are_written_once():
    """``harness.plan_run`` is the one place a run's split seed and its
    ``"run"`` seeds are derived. Every other module, the demos and the
    reference fixture take them from a ``RunPlan``, so no hand copy can drift
    from the run it means to replay."""
    sources = sorted(Path(mclab.__file__).parent.glob("*.py"))
    sources += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "reference_fixture.py"]
    found = []
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        if source.name == "harness.py":
            tree.body = [node for node in tree.body
                         if not (isinstance(node, ast.FunctionDef) and node.name == "plan_run")]
        found += [f"{source.name}:{line}: {name}(" for line, name in _run_seed_paths(tree)]
    assert found == []


def test_the_seed_path_guard_sees_each_form():
    source = ("derived_seed(s, 'split')\ncore.derived_seed(s, 'run', w, 'train')\n"
              "Rng.from_seed(s).derive('run', w, 'init')\nderived_seed(s, 'heldout')\n"
              "Rng.from_seed(s).derive('split')\n")
    assert [line for line, _ in _run_seed_paths(ast.parse(source))] == [1, 2, 3]


PERFBENCH = ROOT / "perfbench"
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
