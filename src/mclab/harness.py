"""Class-exclusion experiment harness.

One run: drop a class from the train split, train the base model with that
class masked, fit the corrector on the (complete) correct split's latents,
compose on the test split, evaluate. Early stopping validates on a stratified
slice of the train split (``core.validation_slice``) that the base model does
not fit on, with the excluded class removed from it too. Neither the correct
nor the test split takes part in training or model selection; the test split
is only scored. A sweep repeats this for every class plus one no-exclusion
baseline, then renders cross-run tables:

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
holds, and the class a run excludes is not in it: that is ``run_single``'s
argument, range-checked there.
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
    "ConfigError",
    "DatasetConfig",
    "ExperimentConfig",
    "RunResult",
    "StageError",
    "SweepResult",
    "default_config_dict",
    "load_sweep",
    "normalize_config",
    "render_report",
    "run_single",
    "run_sweep",
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
    ``mclab gen`` writes), or the generator when ``path`` is None. Generated data is checked against what the generator
    would reject, before any stage runs."""

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


# (section, field) pairs run_single sets per run; never in the config document
_RUN_TIME_FIELDS = (("split", "seed"), ("train", "seed"), ("gbdt", "seed"),
                    ("policy", "excluded_label"))
# the "artifact" tag of a sweep manifest.json
MANIFEST_ARTIFACT = "mclab-sweep v1"


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole experiment; its fields, types and defaults are the schema of
    the config document. An empty ``name`` becomes ``sweep_seed<seed>``.
    ``run_single`` sets the per-run fields (the three stage seeds and
    ``policy.excluded_label``) from its excluded class, so a config cannot
    set them. Each section
    checks its own fields when it is built; this class checks the master
    seed, the per-run fields and the rules that span sections: for generated
    data, the class count and feature shape the model must take."""

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
            image = (d.image.channels, d.image.side, d.image.side)
            if d.kind == "images" and image != shape:
                raise ConfigError("model.input_shape", "must be the generated image shape "
                                                       f"(channels, side, side) = {list(image)}")
        if not self.name:
            object.__setattr__(self, "name", f"sweep_seed{self.seed}")

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


def _build(cls: type, doc: Any, path: str, default: Any = None) -> Any:
    """Check ``doc`` against dataclass ``cls`` and construct it.

    Unknown keys are rejected. Missing keys keep their value in ``default``
    (the class defaults when None); nested dataclasses start from the
    parent's value. The class checks itself when it is built: a ConfigError
    it raises at one of its fields is raised again below ``path``, and any
    other ValueError becomes a ConfigError at ``path``.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(path, "expected an object")
    names = [f.name for f in fields(cls) if (path, f.name) not in _RUN_TIME_FIELDS]
    for key in doc:
        if key not in names:
            raise ConfigError(_join(path, key), "unknown field")
    hints = get_type_hints(cls)
    base = cls() if default is None else default
    values = {}
    for name in names:
        if is_dataclass(hints[name]):
            values[name] = _build(
                hints[name], doc.get(name, {}), _join(path, name), getattr(base, name)
            )
        elif name in doc:
            values[name] = _value(hints[name], doc[name], _join(path, name))
    try:
        return cls(**values) if default is None else replace(default, **values)
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
    excluded: int | None
    run_dir: str
    report: EvalReport | None
    history: TrainingHistory

    @property
    def val_accuracy(self) -> float:
        """Best validation accuracy of the base model (NaN when reloaded)."""
        return self.history.best_val_acc


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


def run_single(
    config: ExperimentConfig,
    excluded: int | None,
    base_only: bool = False,
) -> RunResult:
    """One exclusion run (or the no-exclusion baseline when excluded is None).

    Each stage's failure raises StageError naming it. The run directory gets
    model.bin and history.csv, plus corrector.txt (exclusion runs),
    preds.csv and metrics.csv. With ``base_only`` the pipeline stops after
    base-model training: no corrector, composition or metrics, so only
    model.bin and history.csv are written.
    """
    k = config.model.n_classes
    if excluded is not None and not 0 <= excluded < k:
        raise StageError("exclude", f"excluded class {excluded} outside [0, {k})")
    run_word = "baseline" if excluded is None else f"class{excluded}"

    with _stage("data"):
        data = build_dataset(config)
    with _stage("split"):
        spec = replace(config.split, seed=derived_seed(config.seed, "split"))
        train_set, correct_set, test_set = split_dataset(data, spec)
        fit_set, val_set = validation_slice(train_set, spec.seed)
    with _stage("exclude"):
        if excluded is not None:
            if not np.any(correct_set.labels == excluded):
                raise ValueError(
                    f"correct split contains no samples of excluded class {excluded}"
                )
            fit_set = exclude_class(fit_set, excluded)
            val_set = exclude_class(val_set, excluded)
        weights = class_weights(fit_set, excluded=() if excluded is None else (excluded,))
    with _stage("train"):
        init_rng = Rng.from_seed(config.seed).derive("run", run_word, "init")
        model = StagedModel(config.model, rng=init_rng, seed=config.seed)
        train_config = replace(config.train,
                               seed=derived_seed(config.seed, "run", run_word, "train"))
        model, history = train(model, fit_set, val_set, weights, train_config)

    ensemble = report = None
    if not base_only:
        if excluded is not None:
            with _stage("latents"):
                _, latents, layout = forward_latents(model, correct_set)
            with _stage("corrector"):
                gbdt = replace(config.gbdt,
                               seed=derived_seed(config.seed, "run", run_word, "gbdt"))
                ensemble = fit_corrector(latents, correct_set.labels, gbdt, n_classes=k,
                                         layout=layout)
        with _stage("compose"):
            if ensemble is None:
                _, base_probs = predict_batch(model, test_set)
                preds = decide_batch(base_probs, np.zeros_like(base_probs), None)
            else:
                policy = replace(config.policy, excluded_label=excluded)
                preds = compose_batch(model, ensemble, policy, test_set)
        with _stage("metrics"):
            report = evaluate(PairedPredictions(
                test_set.labels, preds.base_labels, preds.corrected_labels, k))

    run_dir = Path(config.output_dir) / config.name / _dir_tag(excluded)
    with _stage("persist"):
        run_dir.mkdir(parents=True, exist_ok=True)
        save_model(model, run_dir / "model.bin")
        if ensemble is not None:
            save_ensemble(ensemble, run_dir / "corrector.txt")
        if report is not None:
            write_prediction_log(preds, test_set.labels, k, run_dir / "preds.csv")
            (run_dir / "metrics.csv").write_text(report_to_csv(report), encoding="ascii")
        history.write(run_dir / "history.csv")
    return RunResult(excluded, str(run_dir), report, history)


@dataclass
class SweepResult:
    config: ExperimentConfig
    baseline: RunResult
    runs: dict[int, RunResult]

    @property
    def root(self) -> Path:
        return Path(self.config.output_dir) / self.config.name


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
    """Write table3/4/5 CSV + text and the manifest under the sweep root."""
    root = sweep.root
    root.mkdir(parents=True, exist_ok=True)
    tables = list(_report_tables(sweep))
    for table in tables:
        _write_table(root, *table)
    runs = {}
    for result in [sweep.baseline] + [sweep.runs[c] for c in sorted(sweep.runs)]:
        run_dir = Path(result.run_dir)
        runs[run_dir.name] = {p.name: _sha256(p) for p in sorted(run_dir.iterdir()) if p.is_file()}
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

    Each ``preds.csv`` is checked against its sha256 in ``manifest.json``
    before it is read. A manifest that does not parse or holds no valid
    config, and a log that is missing or does not match its sha256, raise
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

    def rebuild(excluded: int | None) -> RunResult:
        run_dir = root / _dir_tag(excluded)
        preds_path = run_dir / "preds.csv"
        try:
            want = manifest["runs"][run_dir.name]["preds.csv"]
        except (KeyError, TypeError):
            raise StageError("report", f"manifest lists no sha256 for {preds_path}") from None
        try:
            digest = _sha256(preds_path)
        except OSError as exc:
            raise StageError("report", f"cannot read {preds_path}: {exc.strerror}") from None
        if digest != want:
            raise StageError("report", f"{preds_path} does not match its sha256 in the manifest")
        report = evaluate(read_prediction_log(preds_path))
        return RunResult(excluded, str(run_dir), report, TrainingHistory())

    baseline = rebuild(None)
    runs = {c: rebuild(c) for c in range(config.model.n_classes)}
    return SweepResult(config=config, baseline=baseline, runs=runs)
