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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__
from .basemodel import (
    ModelConfig,
    StagedModel,
    TrainConfig,
    TrainingHistory,
    extract_latents,
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
    ClusterSpec,
    SequenceImageSpec,
    default_profile,
    generate_gaussian,
    generate_toy_images,
    load_dataset,
)
from .metrics import EvalReport, PairedPredictions, evaluate, report_to_csv

__all__ = [
    "ConfigError",
    "DatasetConfig",
    "ExperimentConfig",
    "ProfileConfig",
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
class ProfileConfig:
    proportions: tuple[float, ...] = (0.389, 0.209, 0.161, 0.106, 0.057, 0.057, 0.023)
    names: tuple[str, ...] = (
        "Happiness", "Neutral", "Sadness", "Surprise", "Disgust", "Anger", "Fear",
    )
    dim: int = 64
    separation: float = 6.0
    covariance_scale: float = 1.0
    close_pair: tuple[int, int] = (3, 6)
    close_distance: float = 4.0

    def to_cluster_spec(self) -> ClusterSpec:
        return default_profile(
            dim=self.dim,
            separation=self.separation,
            covariance_scale=self.covariance_scale,
            proportions=self.proportions,
            names=self.names,
            close_pair=self.close_pair,
            close_distance=self.close_distance,
        )


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


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = ""
    seed: int = 0
    output_dir: str = "runs"
    dataset: DatasetConfig = DatasetConfig()
    split: SplitConfig = SplitConfig()
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    train_seed: int | None = None
    gbdt: GbdtConfig = GbdtConfig()
    gbdt_seed: int | None = None
    policy: DecisionPolicy = DecisionPolicy()
    excluded_class: int | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "dataset": {
                "source": self.dataset.source,
                "path": self.dataset.path,
                "kind": self.dataset.kind,
                "n_total": self.dataset.n_total,
                "profile": {
                    "proportions": list(self.dataset.profile.proportions),
                    "names": list(self.dataset.profile.names),
                    "dim": self.dataset.profile.dim,
                    "separation": self.dataset.profile.separation,
                    "covariance_scale": self.dataset.profile.covariance_scale,
                    "close_pair": list(self.dataset.profile.close_pair),
                    "close_distance": self.dataset.profile.close_distance,
                },
                "image": {"side": self.dataset.image.side,
                          "channels": self.dataset.image.channels},
            },
            "split": {
                "fractions": list(self.split.fractions),
                "stratified": self.split.stratified,
                "seed": self.split.seed,
            },
            "model": {
                "input_shape": list(self.model.input_shape),
                "conv_channels": list(self.model.conv_channels),
                "n_heads": self.model.n_heads,
                "n_classes": self.model.n_classes,
            },
            "train": {
                "learning_rate": self.train.learning_rate,
                "batch_size": self.train.batch_size,
                "max_epochs": self.train.max_epochs,
                "patience": self.train.patience,
                "dropout_p": self.train.dropout_p,
                "seed": self.train_seed,
            },
            "gbdt": {
                "n_rounds": self.gbdt.n_rounds,
                "max_depth": self.gbdt.max_depth,
                "learning_rate": self.gbdt.learning_rate,
                "min_child_weight": self.gbdt.min_child_weight,
                "lambda_l2": self.gbdt.lambda_l2,
                "subsample": self.gbdt.subsample,
                "seed": self.gbdt_seed,
            },
            "policy": {
                "kind": self.policy.kind,
                "tau": self.policy.tau,
                "base_confidence_floor": self.policy.base_confidence_floor,
                "as_new_class": self.policy.as_new_class,
            },
            "excluded_class": self.excluded_class,
        }


def default_config_dict() -> dict:
    return ExperimentConfig(name="sweep_seed0").to_dict()


def _expect(doc: Mapping, path: str, key: str, kinds: tuple, allow_none: bool = False):
    full = f"{path}.{key}" if path else key
    value = doc[key]
    if value is None:
        if allow_none:
            return None
        raise ConfigError(full, "must not be null")
    if bool in kinds and not isinstance(value, bool) and isinstance(value, (int, float)):
        raise ConfigError(full, "expected a boolean")
    if isinstance(value, bool) and bool not in kinds:
        raise ConfigError(full, "expected a number" if float in kinds or int in kinds
                          else "unexpected boolean")
    if float in kinds and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kinds):
        raise ConfigError(full, f"expected {'/'.join(k.__name__ for k in kinds)}")
    return value


def _check_unknown(doc: Mapping, path: str, known: Sequence[str]) -> None:
    for key in doc:
        if key not in known:
            full = f"{path}.{key}" if path else key
            raise ConfigError(full, "unknown field")


def _merge(defaults: dict, override: Mapping, path: str = "") -> dict:
    _check_unknown(override, path, list(defaults))
    out = {}
    for key, base in defaults.items():
        full = f"{path}.{key}" if path else key
        if key not in override:
            out[key] = base
        elif isinstance(base, dict):
            if not isinstance(override[key], Mapping):
                raise ConfigError(full, "expected an object")
            out[key] = _merge(base, override[key], full)
        else:
            out[key] = override[key]
    return out


def normalize_config(document: Mapping | None) -> ExperimentConfig:
    """Validate a config document against the schema, filling defaults.

    Raises ConfigError naming the offending field path. Accepts a sweep
    manifest (the config sits under its "config" key) for replayability.
    """
    doc = dict(document or {})
    if "config" in doc and isinstance(doc.get("config"), Mapping) and "seed" not in doc:
        doc = dict(doc["config"])  # manifest replay
    merged = _merge(default_config_dict(), doc)

    seed = _expect(merged, "", "seed", (int,))
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", "must be a 64-bit non-negative integer")
    name = merged["name"] or f"sweep_seed{seed}"
    if not isinstance(name, str):
        raise ConfigError("name", "expected a string")
    output_dir = _expect(merged, "", "output_dir", (str,))

    d = merged["dataset"]
    source = _expect(d, "dataset", "source", (str,))
    if source not in ("generated", "file"):
        raise ConfigError("dataset.source", "must be 'generated' or 'file'")
    path = _expect(d, "dataset", "path", (str,), allow_none=True)
    if source == "file" and not path:
        raise ConfigError("dataset.path", "required when source is 'file'")
    kind = _expect(d, "dataset", "kind", (str,))
    if kind not in ("gaussian", "images"):
        raise ConfigError("dataset.kind", "must be 'gaussian' or 'images'")
    n_total = _expect(d, "dataset", "n_total", (int,))
    p = d["profile"]
    proportions = tuple(
        float(v) for v in _expect(p, "dataset.profile", "proportions", (list, tuple))
    )
    if any(v <= 0 for v in proportions):
        raise ConfigError("dataset.profile.proportions", "must be positive")
    names = tuple(str(v) for v in _expect(p, "dataset.profile", "names", (list, tuple)))
    if len(names) != len(proportions):
        raise ConfigError("dataset.profile.names", "must match proportions length")
    dim = _expect(p, "dataset.profile", "dim", (int,))
    separation = _expect(p, "dataset.profile", "separation", (float,))
    cov = _expect(p, "dataset.profile", "covariance_scale", (float,))
    if cov < 0:
        raise ConfigError("dataset.profile.covariance_scale", "must be >= 0")
    close_pair = tuple(
        int(v) for v in _expect(p, "dataset.profile", "close_pair", (list, tuple))
    )
    if len(close_pair) != 2:
        raise ConfigError("dataset.profile.close_pair", "must name two classes")
    close_distance = _expect(p, "dataset.profile", "close_distance", (float,))
    img = d["image"]
    side = _expect(img, "dataset.image", "side", (int,))
    channels = _expect(img, "dataset.image", "channels", (int,))
    profile = ProfileConfig(
        proportions=proportions, names=names, dim=dim, separation=separation,
        covariance_scale=cov, close_pair=close_pair, close_distance=close_distance,
    )
    dataset = DatasetConfig(
        source=source, path=path, kind=kind, n_total=n_total,
        profile=profile, image=SequenceImageSpec(side=side, channels=channels),
    )
    k = len(proportions)

    s = merged["split"]
    fractions = tuple(
        float(v) for v in _expect(s, "split", "fractions", (list, tuple))
    )
    if len(fractions) != 3:
        raise ConfigError("split.fractions", "must be three fractions")
    if any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError("split.fractions", "must be positive and sum to 1")
    stratified = _expect(s, "split", "stratified", (bool,))
    split_seed = _expect(s, "split", "seed", (int,), allow_none=True)
    split = SplitConfig(fractions=fractions, stratified=stratified, seed=split_seed)

    m = merged["model"]
    input_shape = tuple(int(v) for v in _expect(m, "model", "input_shape", (list, tuple)))
    conv_channels = tuple(
        int(v) for v in _expect(m, "model", "conv_channels", (list, tuple))
    )
    n_heads = _expect(m, "model", "n_heads", (int,))
    n_classes = _expect(m, "model", "n_classes", (int,))
    model = ModelConfig(
        input_shape=input_shape, conv_channels=conv_channels,
        n_heads=n_heads, n_classes=n_classes,
    )
    try:
        model.validate()
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from None
    if dataset.source == "generated" and model.n_classes != k:
        raise ConfigError("model.n_classes", f"profile defines {k} classes")

    t = merged["train"]
    train_cfg = TrainConfig(
        learning_rate=_expect(t, "train", "learning_rate", (float,)),
        batch_size=_expect(t, "train", "batch_size", (int,)),
        max_epochs=_expect(t, "train", "max_epochs", (int,)),
        patience=_expect(t, "train", "patience", (int,)),
        dropout_p=_expect(t, "train", "dropout_p", (float,)),
        seed=0,
    )
    try:
        train_cfg.validate()
    except ValueError as exc:
        raise ConfigError("train", str(exc)) from None
    train_seed = _expect(t, "train", "seed", (int,), allow_none=True)

    g = merged["gbdt"]
    gbdt_cfg = GbdtConfig(
        n_rounds=_expect(g, "gbdt", "n_rounds", (int,)),
        max_depth=_expect(g, "gbdt", "max_depth", (int,)),
        learning_rate=_expect(g, "gbdt", "learning_rate", (float,)),
        min_child_weight=_expect(g, "gbdt", "min_child_weight", (float,)),
        lambda_l2=_expect(g, "gbdt", "lambda_l2", (float,)),
        subsample=_expect(g, "gbdt", "subsample", (float,)),
        seed=0,
    )
    try:
        gbdt_cfg.validate()
    except ValueError as exc:
        raise ConfigError("gbdt", str(exc)) from None
    gbdt_seed = _expect(g, "gbdt", "seed", (int,), allow_none=True)

    pol = merged["policy"]
    pol_kind = _expect(pol, "policy", "kind", (str,))
    tau = _expect(pol, "policy", "tau", (float,))
    if not 0.0 <= tau <= 1.0:
        raise ConfigError("policy.tau", "must be in [0, 1]")
    floor = _expect(pol, "policy", "base_confidence_floor", (float,))
    if not 0.0 <= floor <= 1.0:
        raise ConfigError("policy.base_confidence_floor", "must be in [0, 1]")
    as_new = _expect(pol, "policy", "as_new_class", (bool,))
    policy = DecisionPolicy(
        kind=pol_kind, tau=tau, base_confidence_floor=floor, as_new_class=as_new,
    )
    if policy.kind not in ("always_corrector", "threshold_override", "excluded_only"):
        raise ConfigError("policy.kind", f"unknown kind {policy.kind!r}")

    excluded = _expect(merged, "", "excluded_class", (int,), allow_none=True)
    if excluded is not None and not 0 <= excluded < model.n_classes:
        raise ConfigError("excluded_class", f"must be in [0, {model.n_classes})")

    return ExperimentConfig(
        name=name, seed=seed, output_dir=output_dir, dataset=dataset, split=split,
        model=model, train=train_cfg, train_seed=train_seed, gbdt=gbdt_cfg,
        gbdt_seed=gbdt_seed, policy=policy, excluded_class=excluded,
    )


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
            config.train_seed
            if config.train_seed is not None
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
            records = extract_latents(model, correct_set)
        except Exception as exc:
            raise StageError("latents", str(exc)) from exc
        try:
            seed = (
                config.gbdt_seed
                if config.gbdt_seed is not None
                else derived_seed(config.seed, "run", run_word, "gbdt")
            )
            ensemble = fit_corrector(
                records,
                correct_set.labels,
                replace(config.gbdt, seed=seed),
                n_classes=k,
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
        paired = PairedPredictions(
            test_set.labels,
            np.array([p.base_label for p in preds], dtype=np.int64),
            np.array([p.corrected_label for p in preds], dtype=np.int64),
            k,
        )
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
