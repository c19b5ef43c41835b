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
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Mapping, get_args, get_origin, get_type_hints

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
    LabeledDataset,
    Rng,
    SplitSpec,
    class_weights,
    derived_seed,
    exclude_class,
    split_dataset,
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
from .metrics import EvalReport, PairedPredictions, evaluate, report_to_csv

__all__ = [
    "ConfigError",
    "DatasetConfig",
    "ExperimentConfig",
    "RunResult",
    "SplitConfig",
    "StageError",
    "SweepResult",
    "default_config_dict",
    "load_sweep",
    "normalize_config",
    "render_report",
    "run_single",
    "run_sweep",
]


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):
        return (ConfigError, (self.path, self.message))


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
    source: str = "generated"  # generated | file
    path: str | None = None
    kind: str = "gaussian"  # gaussian | images
    n_total: int = 7000
    profile: ProfileConfig = ProfileConfig()
    image: SequenceImageSpec = SequenceImageSpec()


@dataclass(frozen=True)
class SplitConfig:
    fractions: tuple[float, float, float] = (0.5, 0.25, 0.25)
    stratified: bool = True
    seed: int | None = None  # None: derived from the master seed


# set per run by run_single, never part of the config document
_RUN_TIME_FIELD = "policy.excluded_label"


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole experiment; its fields, types and defaults are the schema of
    the config document. An empty ``name`` becomes ``sweep_seed<seed>``; the
    stage seeds ``split.seed``, ``train.seed`` and ``gbdt.seed`` default to
    None, meaning derived per run from the master ``seed``."""

    name: str = ""
    seed: int = 0
    output_dir: str = "runs"
    dataset: DatasetConfig = DatasetConfig()
    split: SplitConfig = SplitConfig()
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig(seed=None)
    gbdt: GbdtConfig = GbdtConfig(seed=None)
    policy: DecisionPolicy = DecisionPolicy()
    excluded_class: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"sweep_seed{self.seed}")

    def to_dict(self) -> dict:
        """The config document, as plain JSON values."""
        doc = json.loads(json.dumps(asdict(self)))
        section, key = _RUN_TIME_FIELD.split(".")
        del doc[section][key]
        return doc


def default_config_dict() -> dict:
    return ExperimentConfig().to_dict()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(hint: Any, value: Any, path: str) -> Any:
    """Check one scalar, ``T | None`` or tuple value against its annotation;
    ints widen to float where a float is expected, and floats must be finite."""
    if get_origin(hint) is UnionType:
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not NoneType]
    elif value is None:
        raise ConfigError(path, "must not be null")
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, "expected a list")
        kinds = get_args(hint)
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(value)
        elif len(kinds) != len(value):
            raise ConfigError(path, f"expected {len(kinds)} items")
        return tuple(_value(kind, item, path) for kind, item in zip(kinds, value))
    if hint is float and type(value) is int:
        value = float(value)
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, hint):
        raise ConfigError(path, f"expected {hint.__name__}")
    if hint is float and not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    return value


def _build(cls: type, doc: Any, path: str, default: Any = None) -> Any:
    """Check ``doc`` against dataclass ``cls`` and construct it.

    Unknown keys are rejected. Missing keys keep their value in ``default``
    (the class defaults when None); nested dataclasses start from the
    parent's value. A ``__post_init__`` check failing becomes a ConfigError
    at ``path``.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(path, "expected an object")
    names = [f.name for f in fields(cls) if _join(path, f.name) != _RUN_TIME_FIELD]
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
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _check(config: ExperimentConfig) -> None:
    """The rules the field types do not carry, each raised at its field."""
    for path, seed in (("seed", config.seed), ("split.seed", config.split.seed),
                       ("train.seed", config.train.seed), ("gbdt.seed", config.gbdt.seed)):
        if seed is not None and not 0 <= seed < 2**64:
            raise ConfigError(path, "must be a 64-bit non-negative integer")
    d = config.dataset
    if d.source not in ("generated", "file"):
        raise ConfigError("dataset.source", "must be 'generated' or 'file'")
    if d.source == "file" and not d.path:
        raise ConfigError("dataset.path", "required when source is 'file'")
    if d.kind not in ("gaussian", "images"):
        raise ConfigError("dataset.kind", "must be 'gaussian' or 'images'")
    if any(v <= 0 for v in d.profile.proportions):
        raise ConfigError("dataset.profile.proportions", "must be positive")
    if len(d.profile.names) != len(d.profile.proportions):
        raise ConfigError("dataset.profile.names", "must match proportions length")
    fractions = config.split.fractions
    if any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError("split.fractions", "must be positive and sum to 1")
    k = len(d.profile.proportions)
    checks = [("dataset.profile", d.profile.to_cluster_spec),
              ("model", config.model.validate),
              ("train", config.train.validate),
              ("gbdt", config.gbdt.validate)]
    if d.source == "generated":
        # what the generator would reject, caught before any stage runs
        checks.append(("dataset.n_total", partial(check_n_total, d.n_total, k)))
        if d.kind == "images":
            checks.append(("dataset.image.side", partial(patch_positions, k, d.image.side)))
        else:
            checks.append(("dataset.profile.covariance_scale",
                           partial(check_gaussian_scale, d.profile.covariance_scale)))
    for path, check in checks:
        try:
            check()
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
    if d.source == "generated" and config.model.n_classes != k:
        raise ConfigError("model.n_classes", f"profile defines {k} classes")
    for key, message in config.policy.field_problems():
        raise ConfigError(f"policy.{key}", message)
    excluded = config.excluded_class
    if excluded is not None and not 0 <= excluded < config.model.n_classes:
        raise ConfigError("excluded_class", f"must be in [0, {config.model.n_classes})")


def normalize_config(document: Mapping | None) -> ExperimentConfig:
    """Validate a config document against the schema, filling defaults.

    Raises ConfigError naming the offending field path. Accepts a sweep
    manifest (the config sits under its "config" key) for replayability.
    """
    doc = dict(document or {})
    if isinstance(doc.get("config"), Mapping) and "seed" not in doc:
        doc = dict(doc["config"])  # manifest replay
    config = _build(ExperimentConfig, doc, "")
    _check(config)
    return config


def config_sha256(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True).encode("ascii")
    return hashlib.sha256(canonical).hexdigest()


# ---- pipeline ----


@dataclass
class RunResult:
    excluded: int | None
    run_dir: str
    report: EvalReport | None
    history: TrainingHistory
    val_accuracy: float


def _dir_tag(excluded: int | None) -> str:
    return "excl_none" if excluded is None else f"excl_{excluded}"


def build_dataset(config: ExperimentConfig) -> LabeledDataset:
    """Materialize the experiment dataset (deterministic in the master seed)."""
    d = config.dataset
    if d.source == "file":
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
    flat = int(np.prod(data.feature_shape))
    expected = int(np.prod(config.model.input_shape))
    if flat != expected:
        raise ValueError(
            f"dataset feature size {flat} incompatible with model input "
            f"{config.model.input_shape}"
        )
    return data


def _split_spec(config: ExperimentConfig) -> SplitSpec:
    seed = (
        config.split.seed
        if config.split.seed is not None
        else derived_seed(config.seed, "split")
    )
    return SplitSpec(
        fractions=config.split.fractions, seed=seed, stratified=config.split.stratified
    )


def run_single(
    config: ExperimentConfig,
    excluded: int | None | str = "config",
    persist: bool = True,
    base_only: bool = False,
) -> RunResult:
    """One exclusion run (or the no-exclusion baseline when excluded is None).

    With ``base_only`` the pipeline stops after base-model training: no
    corrector, no composition, no metrics; only model.bin and history.csv
    are persisted.
    """
    if excluded == "config":
        excluded = config.excluded_class
    k = config.model.n_classes
    if excluded is not None and not 0 <= int(excluded) < k:
        raise StageError("exclude", f"excluded class {excluded} outside [0, {k})")
    run_word = "baseline" if excluded is None else f"class{int(excluded)}"

    try:
        data = build_dataset(config)
    except Exception as exc:
        raise StageError("data", str(exc)) from exc

    try:
        spec = _split_spec(config)
        train_set, correct_set, test_set = split_dataset(data, spec)
        fit_set, val_set = validation_slice(train_set, spec.seed)
    except Exception as exc:
        raise StageError("split", str(exc)) from exc

    try:
        if excluded is not None:
            excluded = int(excluded)
            if int(np.sum(correct_set.labels == excluded)) == 0:
                raise ValueError(
                    f"correct split contains no samples of excluded class {excluded}"
                )
            fit_set = exclude_class(fit_set, excluded)
            val_set = exclude_class(val_set, excluded)
            weights = class_weights(fit_set, excluded={excluded})
        else:
            weights = class_weights(fit_set)
    except StageError:
        raise
    except Exception as exc:
        raise StageError("exclude", str(exc)) from exc

    try:
        init_rng = Rng.from_seed(config.seed).derive("run", run_word, "init")
        model = StagedModel(config.model, rng=init_rng, seed=config.seed)
        seed = (
            config.train.seed
            if config.train.seed is not None
            else derived_seed(config.seed, "run", run_word, "train")
        )
        model, history = train(
            model, fit_set, val_set, weights, replace(config.train, seed=seed)
        )
    except Exception as exc:
        raise StageError("train", str(exc)) from exc

    if base_only:
        run_dir = Path(config.output_dir) / config.name / _dir_tag(excluded)
        if persist:
            try:
                run_dir.mkdir(parents=True, exist_ok=True)
                save_model(model, run_dir / "model.bin")
                history.write(run_dir / "history.csv")
            except Exception as exc:
                raise StageError("persist", str(exc)) from exc
        return RunResult(
            excluded=excluded,
            run_dir=str(run_dir),
            report=None,
            history=history,
            val_accuracy=history.best_val_acc,
        )

    ensemble = None
    if excluded is not None:
        try:
            _, latents, layout = forward_latents(model, correct_set)
        except Exception as exc:
            raise StageError("latents", str(exc)) from exc
        try:
            seed = (
                config.gbdt.seed
                if config.gbdt.seed is not None
                else derived_seed(config.seed, "run", run_word, "gbdt")
            )
            ensemble = fit_corrector(
                latents,
                correct_set.labels,
                replace(config.gbdt, seed=seed),
                n_classes=k,
                layout=layout,
            )
        except Exception as exc:
            raise StageError("corrector", str(exc)) from exc

    try:
        if ensemble is not None:
            policy = config.policy
            if policy.kind == "excluded_only":
                policy = replace(policy, excluded_label=excluded)
            preds = compose_batch(model, ensemble, policy, test_set)
        else:
            _, base_probs = predict_batch(model, test_set)
            preds = decide_batch(base_probs, np.zeros_like(base_probs), None)
    except Exception as exc:
        raise StageError("compose", str(exc)) from exc

    try:
        paired = PairedPredictions(test_set.labels, preds.base_labels, preds.corrected_labels, k)
        report = evaluate(paired)
    except Exception as exc:
        raise StageError("metrics", str(exc)) from exc

    run_dir = Path(config.output_dir) / config.name / _dir_tag(excluded)
    if persist:
        try:
            run_dir.mkdir(parents=True, exist_ok=True)
            save_model(model, run_dir / "model.bin")
            if ensemble is not None:
                save_ensemble(ensemble, run_dir / "corrector.txt")
            write_prediction_log(preds, test_set.labels, k, run_dir / "preds.csv")
            (run_dir / "metrics.csv").write_text(report_to_csv(report), encoding="ascii")
            history.write(run_dir / "history.csv")
        except StageError:
            raise
        except Exception as exc:
            raise StageError("persist", str(exc)) from exc

    return RunResult(
        excluded=excluded,
        run_dir=str(run_dir),
        report=report,
        history=history,
        val_accuracy=history.best_val_acc,
    )


@dataclass
class SweepResult:
    config: ExperimentConfig
    baseline: RunResult
    runs: dict[int, RunResult]

    @property
    def root(self) -> Path:
        return Path(self.config.output_dir) / self.config.name


def _sweep_entry(payload: tuple[ExperimentConfig, int | None]) -> RunResult:
    config, excluded = payload
    return run_single(config, excluded=excluded)


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> SweepResult:
    """Run the baseline plus every exclusion, then render the report tables."""
    k = config.model.n_classes
    entries: list[int | None] = [None] + list(range(k))
    results: dict[int | None, RunResult] = {}
    if jobs <= 1:
        for entry in entries:
            results[entry] = run_single(config, excluded=entry)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_sweep_entry, (config, entry)): entry for entry in entries
            }
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


def _fmt(v: float | None) -> str:
    return "" if v is None else f"{v:.6f}"


def _table3(sweep: SweepResult, k: int) -> tuple[str, str]:
    header = "metric,label," + ",".join(str(c + 1) for c in range(k))
    csv_lines = [header]
    names = [l.display_name for l in _label_space(sweep)]
    text_blocks = []
    for metric in ("retention", "harm"):
        cells: list[list[float | None]] = []
        for i in range(k):
            cells.append(
                [getattr(sweep.runs[c].report.per_class[i], metric) for c in range(k)]
            )
        for i in range(k):
            csv_lines.append(
                f"{metric},{i + 1}," + ",".join(_fmt(v) for v in cells[i])
            )
        averages = []
        for c in range(k):
            defined = [cells[i][c] for i in range(k) if cells[i][c] is not None]
            averages.append(sum(defined) / len(defined) if defined else None)
        csv_lines.append(f"{metric},Average," + ",".join(_fmt(v) for v in averages))

        width = 9
        lines = [f"{metric.capitalize()} (rows: true class, columns: corrector)"]
        head = " ".join(f"{c + 1:>{width}}" for c in range(k))
        lines.append(f"{'label':>12} {head}")
        for i in range(k):
            row = []
            for c in range(k):
                cell = "" if cells[i][c] is None else f"{cells[i][c]:.3f}"
                if c == i and cell:
                    cell += "*"  # the corrected class itself
                row.append(f"{cell:>{width}}")
            lines.append(f"{i + 1}:{names[i]:<10.10} " + " ".join(row))
        lines.append(
            f"{'Average':>12} "
            + " ".join(f"{('' if v is None else f'{v:.3f}'):>{width}}" for v in averages)
        )
        text_blocks.append("\n".join(lines))
    return "\n".join(csv_lines) + "\n", "\n\n".join(text_blocks) + "\n"


def _table4(sweep: SweepResult, k: int) -> tuple[str, str]:
    csv_lines = ["corrector,delta_fpr_macro,gain_excluded"]
    text_lines = [f"{'corrector':>12} {'dFPR_macro':>12} {'gain_excl':>12}"]
    names = [l.display_name for l in _label_space(sweep)]
    for c in range(k):
        report = sweep.runs[c].report
        dfpr = report.aggregate.delta_fpr_macro
        gain = report.per_class[c].gain
        csv_lines.append(f"{c + 1},{_fmt(dfpr)},{_fmt(gain)}")
        text_lines.append(
            f"{str(c + 1) + ':' + names[c]:>12.12} "
            f"{('' if dfpr is None else f'{dfpr:.3f}'):>12} "
            f"{('' if gain is None else f'{gain:.3f}'):>12}"
        )
    return "\n".join(csv_lines) + "\n", "\n".join(text_lines) + "\n"


def _table5(sweep: SweepResult, k: int) -> tuple[str, str]:
    header = "label,no_correction," + ",".join(str(c + 1) for c in range(k)) + ",power"
    csv_lines = [header]
    names = [l.display_name for l in _label_space(sweep)]
    width = 9
    text_lines = [
        f"{'label':>12} {'no_corr':>{width}} "
        + " ".join(f"{c + 1:>{width}}" for c in range(k))
        + f" {'P':>{width}}"
    ]
    for i in range(k):
        base_acc = sweep.baseline.report.per_class[i].tpr_base
        row = [sweep.runs[c].report.per_class[i].tpr_corrected for c in range(k)]
        diag = row[i]
        power = (
            diag / base_acc
            if diag is not None and base_acc is not None and base_acc > 0
            else None
        )
        csv_lines.append(
            f"{i + 1},{_fmt(base_acc)},"
            + ",".join(_fmt(v) for v in row)
            + f",{_fmt(power)}"
        )
        cells = " ".join(
            f"{('' if v is None else f'{v:.3f}') + ('*' if c == i else ''):>{width}}"
            for c, v in enumerate(row)
        )
        text_lines.append(
            f"{i + 1}:{names[i]:<10.10} "
            f"{('' if base_acc is None else f'{base_acc:.3f}'):>{width}} "
            + cells
            + f" {('' if power is None else f'{power:.3f}'):>{width}}"
        )
    return "\n".join(csv_lines) + "\n", "\n".join(text_lines) + "\n"


def _label_space(sweep: SweepResult):
    from .core import make_label_space

    names = sweep.config.dataset.profile.names
    k = sweep.config.model.n_classes
    if sweep.config.dataset.source == "file" or len(names) != k:
        from .core import default_names

        return make_label_space(default_names(k))
    return make_label_space(names)


def render_report(sweep: SweepResult) -> None:
    """Write table3/4/5 CSV + text and the manifest under the sweep root."""
    root = sweep.root
    root.mkdir(parents=True, exist_ok=True)
    k = sweep.config.model.n_classes
    for tag, builder in (("table3", _table3), ("table4", _table4), ("table5", _table5)):
        csv_text, txt_text = builder(sweep, k)
        (root / f"{tag}.csv").write_text(csv_text, encoding="ascii")
        (root / f"{tag}.txt").write_text(txt_text, encoding="ascii")

    manifest: dict[str, Any] = {
        "artifact": "mclab-sweep v1",
        "package_version": __version__,
        "master_seed": sweep.config.seed,
        "config": sweep.config.to_dict(),
        "config_sha256": config_sha256(sweep.config),
        "runs": {},
        "tables": {},
    }
    for result in [sweep.baseline] + [sweep.runs[c] for c in sorted(sweep.runs)]:
        run_dir = Path(result.run_dir)
        files = {}
        for f in sorted(p.name for p in run_dir.iterdir() if p.is_file()):
            files[f] = hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
        manifest["runs"][run_dir.name] = files
    for tag in ("table3", "table4", "table5"):
        for ext in (".csv", ".txt"):
            path = root / (tag + ext)
            manifest["tables"][tag + ext] = hashlib.sha256(path.read_bytes()).hexdigest()
    (root / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="ascii"
    )


def load_sweep(root: str | Path) -> SweepResult:
    """Rebuild a SweepResult from persisted run artifacts (for re-rendering).

    Each ``preds.csv`` is checked against its sha256 in ``manifest.json``
    before it is read; a mismatch raises ``StageError`` naming the file.
    """
    root = Path(root)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise StageError("report", f"no manifest.json under {root}")
    manifest = json.loads(manifest_path.read_text(encoding="ascii"))
    config = normalize_config(manifest["config"])
    k = config.model.n_classes

    def rebuild(tag: str, excluded: int | None) -> RunResult:
        run_dir = root / tag
        preds_path = run_dir / "preds.csv"
        want = manifest.get("runs", {}).get(tag, {}).get("preds.csv")
        if want is None:
            raise StageError("report", f"manifest lists no sha256 for {preds_path}")
        if hashlib.sha256(preds_path.read_bytes()).hexdigest() != want:
            raise StageError("report", f"{preds_path} does not match its sha256 in the manifest")
        log = read_prediction_log(preds_path)
        paired = PairedPredictions.from_log(log)
        report = evaluate(paired)
        return RunResult(
            excluded=excluded,
            run_dir=str(run_dir),
            report=report,
            history=TrainingHistory(),
            val_accuracy=float("nan"),
        )

    baseline = rebuild("excl_none", None)
    runs = {c: rebuild(f"excl_{c}", c) for c in range(k)}
    return SweepResult(config=config, baseline=baseline, runs=runs)
