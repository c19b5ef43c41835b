"""Class-exclusion experiment harness.

One run is three stages. ``plan_run`` splits the data, carves the
early-stopping slice off the train split (``core.validation_slice``), drops
the excluded class from both parts and derives the run's seeds, all held in
a frozen ``RunPlan``. ``train_run`` trains the base model on the plan, and
``score_run`` fits the corrector on the correct split's latents and scores
the test split; neither split takes part in training or model selection.
``run_single`` chains the stages and persists. A sweep repeats this for every class plus
one no-exclusion baseline, then renders cross-run tables:

    table3: retention and harm of each true class under each corrector
    table4: per-corrector macro delta-FPR and excluded-class gain
    table5: per-class accuracy matrix, no-correction column, accuracy ratio P

Every run derives its seeds from (master seed, excluded class), so single
runs replay sweep entries exactly and whole sweeps are byte-reproducible on
one host, with any number of worker processes. Across hosts only the dataset
and the split are meant to be byte-stable (counter-based RNG streams and
exact IEEE arithmetic); the acceptance gate checks their checksums on every
host. Training goes through BLAS matrix products and numpy's SIMD
``exp``/``tanh``, whose rounding depends on the numpy build and the CPU, so
trained weights and every number downstream of them may differ across hosts.

The experiment config is a tree of frozen dataclasses rooted at
``ExperimentConfig``. Each checks its own fields when it is built, whether
from a document (``normalize_config``) or in code with ``replace``, so a run
never starts from an invalid config. The master seed is the only seed it
holds, and the class a run excludes is not in it: that is ``plan_run``'s
argument, checked there. Its ``root`` names the sweep directory after
``name``, or after the seed (``sweep_seed<seed>``) when ``name`` is empty.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Iterator, Mapping, get_type_hints

import numpy as np

from . import __version__
from .basemodel import (
    ModelConfig,
    StagedModel,
    TrainConfig,
    TrainingHistory,
    forward_latents,
    predict_batch,
    save_model,
    train,
)
from .composer import (
    DecisionPolicy,
    compose_batch,
    decide_batch,
    read_prediction_log,
    write_prediction_log,
)
from .core import (
    ConfigError,
    LabeledDataset,
    Rng,
    SplitSpec,
    class_weights,
    default_names,
    derived_seed,
    exclude_class,
    split_dataset,
    _check_seed,
    _value,
    validation_slice,
)
from .corrector import GbdtConfig, save_ensemble
from .corrector import fit as fit_corrector
from .datagen import (
    ProfileConfig,
    SequenceImageSpec,
    check_gaussian_scale,
    check_n_total,
    generate_gaussian,
    generate_toy_images,
    load_dataset,
    patch_positions,
)
from .metrics import EvalReport, PairedPredictions, _cell, evaluate, report_to_csv

__all__ = [
    "DatasetConfig",
    "ExperimentConfig",
    "RunPlan",
    "RunResult",
    "StageError",
    "SweepResult",
    "default_config_dict",
    "load_sweep",
    "normalize_config",
    "plan_run",
    "render_report",
    "run_single",
    "run_sweep",
    "score_run",
    "train_run",
]


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r} failed: {message}")
        self.stage = stage
        self.message = message

    def __reduce__(self):
        return (StageError, (self.stage, self.message))


# ---- configuration ----


@dataclass(frozen=True)
class DatasetConfig:
    """Where the data comes from: the dataset file at ``path`` (the CSV that
    ``mclab gen`` writes), or the generator when ``path`` is None. Generated
    data is checked against what the generator would reject, before any stage
    runs."""

    path: str | None = None
    kind: str = "gaussian"  # gaussian | images
    n_total: int = 7000
    profile: ProfileConfig = ProfileConfig()
    image: SequenceImageSpec = SequenceImageSpec()

    def __post_init__(self) -> None:
        if self.path == "":
            raise ConfigError("path", "must not be empty; null generates the data")
        if self.kind not in ("gaussian", "images"):
            raise ConfigError("kind", "must be 'gaussian' or 'images'")
        if self.path is not None:
            return
        k = len(self.profile.proportions)
        checks = {"n_total": partial(check_n_total, self.n_total, k)}
        if self.kind == "images":
            checks["image.side"] = partial(patch_positions, k, self.image.side)
        else:
            checks["profile.covariance_scale"] = partial(
                check_gaussian_scale, self.profile.covariance_scale)
        for field, check in checks.items():
            try:
                check()
            except ValueError as exc:
                raise ConfigError(field, str(exc)) from None


# (section, field) pairs a run sets (plan_run, score_run); never in the config document
_RUN_TIME_FIELDS = (("split", "seed"), ("policy", "excluded_label"))
# the "artifact" tag of a sweep manifest.json
MANIFEST_ARTIFACT = "mclab-sweep v1"


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole experiment; its fields, types and defaults are the schema of
    the config document. ``root`` is the sweep directory, ``sweep_seed<seed>``
    when ``name`` is empty, so a replay at another seed gets its own.
    A run sets the per-run fields (``split.seed`` and ``policy.excluded_label``),
    so a config cannot. Each section checks its own fields when it is built;
    this class checks the master seed, the per-run fields and the rules that
    span sections: for generated data, the class count and feature shape the
    model must take."""

    name: str = ""
    seed: int = 0
    output_dir: str = "runs"
    dataset: DatasetConfig = DatasetConfig()
    split: SplitSpec = SplitSpec()
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    gbdt: GbdtConfig = GbdtConfig()
    policy: DecisionPolicy = DecisionPolicy()

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        for section, key in _RUN_TIME_FIELDS:
            part = getattr(self, section)
            if getattr(part, key) != getattr(type(part), key):
                raise ConfigError(f"{section}.{key}", "is set per run, not in the config")
        d, shape = self.dataset, self.model.input_shape
        if d.path is None:
            k = len(d.profile.proportions)
            if self.model.n_classes != k:
                raise ConfigError("model.n_classes", f"profile defines {k} classes")
            if d.kind == "gaussian" and d.profile.dim != math.prod(shape):
                raise ConfigError("model.input_shape", f"holds {math.prod(shape)} features, "
                                                       f"dataset.profile.dim is {d.profile.dim}")
            if d.kind == "images" and d.image.shape != shape:
                raise ConfigError("model.input_shape", "must be the generated image shape "
                                                       f"(1, side, side) = {list(d.image.shape)}")

    @property
    def root(self) -> Path:
        """The sweep directory; every run directory is below it."""
        return Path(self.output_dir) / (self.name or f"sweep_seed{self.seed}")

    def to_dict(self) -> dict:
        """The config document, as plain JSON values."""
        doc = json.loads(json.dumps(asdict(self)))
        for section, key in _RUN_TIME_FIELDS:
            del doc[section][key]
        return doc


def default_config_dict() -> dict:
    return ExperimentConfig().to_dict()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _build(cls: type, doc: Any, path: str) -> Any:
    """Check ``doc`` against dataclass ``cls`` and construct it.

    Unknown keys are rejected and missing keys keep the class default. A
    nested section's default is its class's default instance, so the section
    is built from its own part of ``doc`` alone. The class checks itself when
    it is built: a ConfigError it raises at one of its fields is raised again
    below ``path``, and any other ValueError becomes a ConfigError at ``path``.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(path, "expected an object")
    names = [f.name for f in fields(cls) if (path, f.name) not in _RUN_TIME_FIELDS]
    for key in doc:
        if key not in names:
            raise ConfigError(_join(path, key), "unknown field")
    hints = get_type_hints(cls)
    values = {}
    for name in names:
        if is_dataclass(hints[name]):
            values[name] = _build(hints[name], doc.get(name, {}), _join(path, name))
        elif name in doc:
            values[name] = _value(hints[name], doc[name], _join(path, name))
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(_join(path, exc.path), exc.message) from None
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def normalize_config(document: Mapping | None) -> ExperimentConfig:
    """Check a config document against the schema, filling defaults.

    Raises ConfigError naming the offending field path: an unknown path (a
    per-run field included), a value of the wrong type, or whatever the
    dataclasses reject. This walk is the only one over the schema; ``--set``
    relies on it too. Besides what the dataclasses check, the document's
    ``policy.tau`` must lie in [0, 1]; a policy built in code may set ``tau``
    above 1 to switch overrides off. A sweep manifest is not a config document;
    ``cli.load_config`` unwraps one when it reads the file.
    """
    config = _build(ExperimentConfig, dict(document or {}), "")
    if not 0.0 <= config.policy.tau <= 1.0:
        raise ConfigError("policy.tau", "must be in [0, 1]")
    return config


def config_sha256(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True).encode("ascii")
    return hashlib.sha256(canonical).hexdigest()


# ---- pipeline ----


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Run a block as pipeline stage ``name``: a StageError passes through
    unchanged, any other exception is re-raised as ``StageError(name, ...)``."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


@dataclass
class RunResult:
    run_dir: str
    report: EvalReport | None
    history: TrainingHistory  # empty when reloaded, so best_val_acc is NaN


def _dir_tag(excluded: int | None) -> str:
    return "excl_none" if excluded is None else f"excl_{excluded}"


def build_dataset(config: ExperimentConfig) -> LabeledDataset:
    """Materialize the experiment dataset (deterministic in the master seed)."""
    d = config.dataset
    if d.path is not None:
        data = load_dataset(d.path)
    else:
        cluster = d.profile.to_cluster_spec()
        rng = Rng.from_seed(config.seed).derive("data")
        if d.kind == "gaussian":
            data = generate_gaussian(cluster, d.n_total, rng)
        else:
            data = generate_toy_images(d.image, cluster, d.n_total, rng)
    if data.n_classes != config.model.n_classes:
        raise ValueError(
            f"dataset has {data.n_classes} classes, model expects "
            f"{config.model.n_classes}"
        )
    # ExperimentConfig checks a generated shape; a file's is known only here
    flat = int(np.prod(data.feature_shape))
    expected = int(np.prod(config.model.input_shape))
    if flat != expected:
        raise ValueError(
            f"dataset feature size {flat} incompatible with model input "
            f"{config.model.input_shape}"
        )
    return data


@dataclass(frozen=True)
class RunPlan:
    """A run as ``plan_run`` sets it up: its splits, weights and training seeds."""

    config: ExperimentConfig
    excluded: int | None
    train_set: LabeledDataset
    correct_set: LabeledDataset
    test_set: LabeledDataset
    fit_set: LabeledDataset  # the train split minus the validation slice, and
    val_set: LabeledDataset  # that slice; neither holds the excluded class
    weights: np.ndarray
    init_rng: Rng
    train_seed: int


def plan_run(config: ExperimentConfig, excluded: int | None) -> RunPlan:
    """Stages ``data``, ``split`` and ``exclude``, and the one place a run's seeds are derived."""
    k = config.model.n_classes
    if isinstance(excluded, bool) or not isinstance(excluded, (int, np.integer, type(None))):
        raise StageError("exclude", f"excluded class {excluded!r} is not an int")
    if excluded is not None and not 0 <= excluded < k:
        raise StageError("exclude", f"excluded class {excluded} outside [0, {k})")
    excluded = None if excluded is None else int(excluded)
    word = "baseline" if excluded is None else f"class{excluded}"

    with _stage("data"):
        data = build_dataset(config)
    with _stage("split"):
        spec = replace(config.split, seed=derived_seed(config.seed, "split"))
        train_set, correct_set, test_set = split_dataset(data, spec)
        fit_set, val_set = validation_slice(train_set, spec.seed)
    with _stage("exclude"):
        if excluded is not None:
            if not np.any(correct_set.labels == excluded):
                raise ValueError(f"correct split contains no samples of excluded class {excluded}")
            fit_set, val_set = exclude_class(fit_set, excluded), exclude_class(val_set, excluded)
        weights = class_weights(fit_set, excluded=() if excluded is None else (excluded,))
    return RunPlan(config, excluded, train_set, correct_set, test_set, fit_set, val_set,
                   weights, Rng.from_seed(config.seed).derive("run", word, "init"),
                   derived_seed(config.seed, "run", word, "train"))


def train_run(plan: RunPlan) -> tuple[StagedModel, TrainingHistory]:
    """Stage ``train``: the base model, blind to the excluded class."""
    with _stage("train"):
        model = StagedModel(plan.config.model, rng=plan.init_rng)
        return train(model, plan.fit_set, plan.val_set, plan.weights, plan.config.train,
                     plan.train_seed)


def score_run(plan: RunPlan, model: StagedModel) -> tuple:
    """Stages ``latents``, ``corrector``, ``compose`` and ``metrics``: the corrector fit on
    the correct split (None for the baseline), the test split's ``Predictions`` and report."""
    config, k, ensemble = plan.config, plan.config.model.n_classes, None
    if plan.excluded is not None:
        with _stage("latents"):
            _, latents, layout = forward_latents(model, plan.correct_set)
        with _stage("corrector"):
            ensemble = fit_corrector(latents, plan.correct_set.labels, config.gbdt,
                                     n_classes=k, layout=layout)
    with _stage("compose"):
        if ensemble is None:
            _, base_probs = predict_batch(model, plan.test_set)
            preds = decide_batch(base_probs, np.zeros_like(base_probs), None)
        else:
            policy = replace(config.policy, excluded_label=plan.excluded)
            preds = compose_batch(model, ensemble, policy, plan.test_set)
    with _stage("metrics"):
        report = evaluate(PairedPredictions(
            plan.test_set.labels, preds.base_labels, preds.corrected_labels, k))
    return ensemble, preds, report


def run_single(config: ExperimentConfig, excluded: int | None,
               base_only: bool = False) -> RunResult:
    """One exclusion run (the baseline when excluded is None): ``plan_run``, ``train_run``,
    ``score_run`` unless ``base_only``, and stage ``persist``, which writes model.bin,
    history.csv and what was scored. A failing stage raises StageError naming it."""
    plan = plan_run(config, excluded)
    model, history = train_run(plan)
    ensemble, preds, report = (None, None, None) if base_only else score_run(plan, model)
    k, run_dir = config.model.n_classes, config.root / _dir_tag(plan.excluded)
    with _stage("persist"):
        run_dir.mkdir(parents=True, exist_ok=True)
        save_model(model, run_dir / "model.bin")
        if ensemble is not None:
            save_ensemble(ensemble, run_dir / "corrector.txt")
        if report is not None:
            write_prediction_log(preds, plan.test_set.labels, k, run_dir / "preds.csv")
            (run_dir / "metrics.csv").write_text(report_to_csv(report), encoding="ascii")
        history.write(run_dir / "history.csv")
    return RunResult(str(run_dir), report, history)


@dataclass
class SweepResult:
    config: ExperimentConfig
    root: Path  # where the tables go: config.root, or the directory it was loaded from
    baseline: RunResult
    runs: dict[int, RunResult]


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> SweepResult:
    """Run the baseline plus every exclusion, then render the report tables.

    ``jobs`` > 1 runs them in worker processes, at most one per run."""
    k = config.model.n_classes
    entries: list[int | None] = [None] + list(range(k))
    results: dict[int | None, RunResult] = {}
    if jobs <= 1:
        for entry in entries:
            results[entry] = run_single(config, excluded=entry)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(entries))) as pool:
            futures = {pool.submit(run_single, config, entry): entry for entry in entries}
            try:
                for fut in concurrent.futures.as_completed(futures):
                    results[futures[fut]] = fut.result()
            except BaseException:
                for fut in futures:
                    fut.cancel()
                raise
    sweep = SweepResult(
        config=config,
        root=config.root,
        baseline=results[None],
        runs={c: results[c] for c in range(k)},
    )
    render_report(sweep)
    return sweep


# ---- report rendering ----

# a table row: CSV label, text label, cells (None: undefined), and the cell
# the text marks with '*' (None: no mark)
Row = tuple[str, str, list[float | None], int | None]


def _report_tables(sweep: SweepResult) -> Iterator[tuple]:
    """Tables 3-5 as (tag, CSV header, text heads, column width, blocks); a
    block is a text title (or None) and its rows."""
    k, dataset = sweep.config.model.n_classes, sweep.config.dataset
    names = dataset.profile.names if dataset.path is None else default_names(k)
    runs = [sweep.runs[c].report for c in range(k)]
    cols = [str(c + 1) for c in range(k)]
    labels = [f"{i + 1}:{names[i]:<10.10}" for i in range(k)]

    blocks = []
    for metric in ("retention", "harm"):
        grid = [[getattr(runs[c].per_class[i], metric) for c in range(k)] for i in range(k)]
        # the corrected class itself is marked where its cell is defined
        rows: list[Row] = [(f"{metric},{i + 1}", labels[i], grid[i],
                            i if grid[i][i] is not None else None) for i in range(k)]
        defined = [[v for v in column if v is not None] for column in zip(*grid)]
        averages = [sum(d) / len(d) if d else None for d in defined]
        rows.append((f"{metric},Average", f"{'Average':>12}", averages, None))
        blocks.append((f"{metric.capitalize()} (rows: true class, columns: corrector)", rows))
    yield "table3", "metric,label," + ",".join(cols), ["label", *cols], 9, blocks

    rows = [(cols[c], f"{cols[c] + ':' + names[c]:>12.12}",
             [runs[c].aggregate.delta_fpr_macro, runs[c].per_class[c].gain], None)
            for c in range(k)]
    yield ("table4", "corrector,delta_fpr_macro,gain_excluded",
           ["corrector", "dFPR_macro", "gain_excl"], 12, [(None, rows)])

    rows = []
    for i in range(k):
        base = sweep.baseline.report.per_class[i].tpr_base
        accs = [runs[c].per_class[i].tpr_corrected for c in range(k)]
        power = accs[i] / base if accs[i] is not None and base else None
        rows.append((cols[i], labels[i], [base, *accs, power], 1 + i))  # diagonal always marked
    yield ("table5", "label,no_correction," + ",".join(cols) + ",power",
           ["label", "no_corr", *cols, "P"], 9, [(None, rows)])


def _write_table(root: Path, tag: str, csv_header: str, heads: list[str], width: int,
                 blocks: list[tuple[str | None, list[Row]]]) -> None:
    """Write one table as ``<tag>.csv`` ({:.6f} cells) and ``<tag>.txt``
    ({:.3f} cells right-aligned to ``width``, blocks apart by a blank line)."""
    csv_lines, texts = [csv_header], []
    for title, rows in blocks:
        lines = [] if title is None else [title]
        lines.append(f"{heads[0]:>12} " + " ".join(f"{h:>{width}}" for h in heads[1:]))
        for csv_label, label, values, marked in rows:
            csv_lines.append(csv_label + "," + ",".join(_cell(v) for v in values))
            cells = [_cell(v, "{:.3f}") + "*" * (c == marked) for c, v in enumerate(values)]
            lines.append(label + " " + " ".join(f"{s:>{width}}" for s in cells))
        texts.append("\n".join(lines))
    (root / f"{tag}.csv").write_text("\n".join(csv_lines) + "\n", encoding="ascii")
    (root / f"{tag}.txt").write_text("\n\n".join(texts) + "\n", encoding="ascii")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def render_report(sweep: SweepResult) -> None:
    """Write table3/4/5 CSV + text and the manifest under the sweep root; a failed write
    raises ``StageError('report', ...)`` naming the file."""
    with _stage("report"):
        root = sweep.root
        root.mkdir(parents=True, exist_ok=True)
        tables = list(_report_tables(sweep))
        for table in tables:
            _write_table(root, *table)
        runs = {}
        for result in [sweep.baseline] + [sweep.runs[c] for c in sorted(sweep.runs)]:
            run_dir = Path(result.run_dir)
            runs[run_dir.name] = {p.name: _sha256(p) for p in sorted(run_dir.iterdir())
                                  if p.is_file()}
        manifest = {
            "artifact": MANIFEST_ARTIFACT,
            "package_version": __version__,
            "master_seed": sweep.config.seed,
            "config": sweep.config.to_dict(),
            "config_sha256": config_sha256(sweep.config),
            "runs": runs,
            "tables": {tag + ext: _sha256(root / (tag + ext))
                       for tag, *_ in tables for ext in (".csv", ".txt")},
        }
        (root / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="ascii"
        )


def load_sweep(root: str | Path) -> SweepResult:
    """Rebuild a SweepResult from persisted run artifacts (for re-rendering).

    Every file of each run directory is checked against its sha256 in
    ``manifest.json`` before any log is read. A manifest that does not parse
    or holds no valid config, a run file the manifest does not list, a listed
    file that is missing, and a file that does not match its sha256 raise
    ``StageError`` naming the file.
    """
    root = Path(root)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise StageError("report", f"no manifest.json under {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
            raise ValueError("not a sweep manifest: expected an object with a 'config' object")
        config = normalize_config(manifest["config"])
    except ValueError as exc:  # also bad bytes, bad JSON and ConfigError
        raise StageError("report", f"{manifest_path}: {exc}") from None
    run_dirs = [root / _dir_tag(c) for c in [None, *range(config.model.n_classes)]]

    for run_dir in run_dirs:
        try:
            listed = dict(manifest["runs"][run_dir.name])
        except (KeyError, TypeError, ValueError):  # no listing, or not a JSON object
            listed = {}
        held = {p.name for p in run_dir.glob("*") if p.is_file()}
        # the log the report reads first, then every other file held or listed
        for name in ["preds.csv", *sorted((held | set(listed)) - {"preds.csv"})]:
            path = run_dir / name
            if name not in listed:
                raise StageError("report", f"manifest lists no sha256 for {path}")
            if name not in held:  # missing, or a listed name such as '../table3.csv'
                raise StageError("report", f"cannot read {path}: no such file in {run_dir}")
            try:
                digest = _sha256(path)
            except OSError as exc:
                raise StageError("report", f"cannot read {path}: {exc.strerror}") from None
            if digest != listed[name]:
                raise StageError("report", f"{path} does not match its sha256 in the manifest")

    baseline, *runs = (RunResult(str(d), evaluate(read_prediction_log(d / "preds.csv")),
                                 TrainingHistory()) for d in run_dirs)
    return SweepResult(config=config, root=root, baseline=baseline, runs=dict(enumerate(runs)))
