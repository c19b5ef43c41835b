"""Experiment harness checks on a small 3-class world: config schema,
single-run pipeline artifacts, sweep table assembly, manifests, and
reproducibility of whole report trees.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import is_dataclass, replace
from pathlib import Path
from types import NoneType
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab.basemodel import (
    ModelConfig, TrainConfig, TrainingHistory, load_model, predict_batch, save_model,
)
from mclab.composer import DecisionPolicy, compose_batch, decide_batch, write_prediction_log
from mclab.core import NEW_CLASS, LabeledDataset, SplitSpec
from mclab.corrector import GbdtConfig, load_ensemble, save_ensemble
from mclab.datagen import ProfileConfig, SequenceImageSpec, save_dataset
from mclab.harness import (
    ConfigError,
    DatasetConfig,
    ExperimentConfig,
    RunResult,
    StageError,
    SweepResult,
    config_sha256,
    default_config_dict,
    load_sweep,
    normalize_config,
    plan_run,
    render_report,
    run_single,
    run_sweep,
    score_run,
    train_run,
)
from mclab.metrics import PairedPredictions, evaluate, report_to_csv
import mclab.harness as harness_mod
import reference_fixture
from reference_fixture import (
    MINI_SWEEP_PIN, host_fingerprint, mini_doc, mini_sweep_config, sweep_digests,
)

PINNED_SWEEP = json.loads(MINI_SWEEP_PIN.read_text())
ROOT = Path(__file__).resolve().parent.parent


def mini_config(out_dir: str, **kwargs) -> ExperimentConfig:
    return normalize_config(mini_doc(out_dir, **kwargs))


def _section(**keys) -> st.SearchStrategy:
    return st.fixed_dictionaries({}, optional=keys)


SEEDS = st.integers(0, 2**64 - 1)
UNIT = st.floats(0.0, 1.0) | st.integers(0, 1)
# valid overrides of the default (seven-class) document; ints stand in for
# floats where the schema widens them
def _generable(dataset: dict) -> bool:
    """The Gaussian generator needs a positive noise scale."""
    return (dataset.get("kind") == "images"
            or dataset.get("profile", {}).get("covariance_scale", 1.0) > 0)


def _fit_model(doc: dict) -> dict:
    """Give the model the feature shape the drawn dataset generates: a
    Gaussian profile's dim as (dim / 64, 8, 8), images as (1, side, side)."""
    dataset = doc.get("dataset", {})
    if dataset.get("kind") == "images":
        side = dataset.get("image", {}).get("side", 8)
        shape = [1, side, side]
    else:
        shape = [dataset.get("profile", {}).get("dim", 64) // 64, 8, 8]
    if shape != [1, 8, 8]:
        doc["model"] = {"input_shape": shape}
    return doc


VALID_OVERRIDES = _section(
    name=st.text("ab_0", max_size=6),
    seed=SEEDS,
    output_dir=st.text("ab/", min_size=1, max_size=6),
    dataset=_section(
        kind=st.sampled_from(["gaussian", "images"]),
        n_total=st.integers(70, 10**6),
        profile=_section(
            dim=st.sampled_from([64, 128, 192]),
            separation=st.floats(0.0, 50.0) | st.integers(0, 50),
            covariance_scale=st.floats(0.0, 5.0),
            close_pair=st.sampled_from([[3, 6], [0, 1], [6, 2]]),
            close_distance=st.floats(0.0, 10.0),
        ),
        image=_section(side=st.integers(8, 64)),
    ).filter(_generable),
    split=_section(stratified=st.booleans()),
    train=_section(
        learning_rate=st.floats(0.0, 1.0),
        batch_size=st.integers(1, 512),
        max_epochs=st.integers(1, 100),
        patience=st.integers(0, 20),
        dropout_p=st.floats(0.0, 0.99),
    ),
    gbdt=_section(
        n_rounds=st.integers(1, 500),
        max_depth=st.integers(1, 8),
        learning_rate=st.floats(0.0, 1.0, exclude_min=True) | st.just(1),
        min_child_weight=st.floats(0.0, 10.0),
        lambda_l2=st.floats(0.0, 10.0),
    ),
    policy=_section(tau=UNIT, as_new_class=st.booleans()),
).map(_fit_model)


def _never_called(*args, **kwargs):
    raise AssertionError("called")


def tree_files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def assert_trees_identical(a: Path, b: Path, skip: tuple[str, ...] = ()) -> None:
    fa, fb = tree_files(a), tree_files(b)
    assert fa == fb
    for rel in fa:
        if rel.name in skip:
            continue
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), str(rel)


class TestNormalizeConfig:
    def test_empty_document_gives_full_defaults(self):
        cfg = normalize_config({})
        assert cfg == ExperimentConfig()
        assert cfg.name == "" and cfg.root == Path("runs", "sweep_seed0")
        assert cfg.model.n_classes == 7
        assert len(cfg.dataset.profile.proportions) == 7
        assert cfg.dataset.n_total == 7000

    def test_normalization_is_idempotent(self, tmp_path):
        cfg = mini_config(str(tmp_path))
        assert normalize_config(cfg.to_dict()) == cfg

    def test_default_dict_round_trips(self):
        assert normalize_config(default_config_dict()).to_dict() == default_config_dict()

    def test_each_section_defaults_to_its_class_default(self):
        # so a document's part alone builds each nested section
        sections = [ExperimentConfig]
        while sections:
            cls = sections.pop()
            for name, hint in get_type_hints(cls).items():
                if is_dataclass(hint):
                    assert getattr(cls(), name) == hint(), f"{cls.__name__}.{name}"
                    sections.append(hint)

    @settings(max_examples=60, deadline=None)
    @given(doc=VALID_OVERRIDES)
    def test_valid_documents_round_trip(self, doc):
        cfg = normalize_config(doc)
        assert normalize_config(cfg.to_dict()) == cfg

    def test_config_bytes_are_pinned(self):
        # the input is pure JSON, so these digests hold on every host
        assert config_sha256(normalize_config({})) == (
            "ed81a7a753c9b5f7d2387dfc96d4deea0c9ba95a6ad3c90cbaac8fa0d593002c"
        )
        assert config_sha256(mini_config("runs")) == (
            "abe26898d882d45e77b9693296fef4d355af4ca2fdd7331eeed5d83b782111f4"
        )

    def test_readme_default_block_is_the_default_config(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8"
        )
        after = readme.split("The full default config", 1)[1]
        block = after.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == default_config_dict()

    @pytest.mark.parametrize(
        "patch,path",
        [
            ({"policy": {"tau": 1.5}}, "policy.tau"),
            # a field of the policy rules deleted since (an old sweep's manifest)
            ({"policy": {"kind": "vote"}}, "policy.kind"),
            ({"policy": {"as_new_class": 1}}, "policy.as_new_class"),
            ({"seed": -1}, "seed"),
            ({"split": {"fractions": [0.5, 0.5]}}, "split.fractions"),
            ({"split": {"fractions": [0.8, 0.1, 0.2]}}, "split.fractions"),
            ({"split": {"stratified": 1}}, "split.stratified"),
            # a field deleted since: a path says whether the data is a file
            ({"dataset": {"source": "database"}}, "dataset.source"),
            ({"dataset": {"path": ""}}, "dataset.path"),
            ({"dataset": {"profile": {"proportions": [0.5, -0.5, 1.0]}}},
             "dataset.profile.proportions"),
            ({"dataset": {"profile": {"names": ["only", "two"]}}},
             "dataset.profile.names"),
            # a field deleted since: train and correct take the class as --exclude
            ({"excluded_class": 9}, "excluded_class"),
            ({"model": {"n_classes": 4}}, "model.n_classes"),
            ({"gbdt": {"n_rounds": 0}}, "gbdt"),
            ({"train": {"learning_rate": -0.5}}, "train"),
            ({"mystery": 1}, "mystery"),
            ({"dataset": {"profile": {"shape": "round"}}}, "dataset.profile.shape"),
            ({"model": {"conv_channels": [2.7, 4, 8]}}, "model.conv_channels"),
            ({"dataset": {"profile": {"proportions": ["a", 1, 1]}}},
             "dataset.profile.proportions"),
            ({"dataset": {"image": {"side": 1}}}, "dataset.image"),
            ({"dataset": {"profile": {"close_pair": [1, 1]}}}, "dataset.profile"),
            # stage seeds, deleted since: split and train are derived per run,
            # and the corrector fit has no seed
            ({"split": {"seed": -3}}, "split.seed"),
            ({"train": {"seed": -3}}, "train.seed"),
            ({"gbdt": {"seed": 2**64}}, "gbdt.seed"),
            ({"dataset": {"profile": {"covariance_scale": float("nan")}}},
             "dataset.profile.covariance_scale"),
            # another field of the deleted rules
            ({"policy": {"base_confidence_floor": -0.5}}, "policy.base_confidence_floor"),
            # what the generator would reject (the mini profile has 3 classes)
            ({"dataset": {"kind": "images", "image": {"side": 2}}}, "dataset.image.side"),
            ({"dataset": {"n_total": 29}}, "dataset.n_total"),
            ({"dataset": {"profile": {"covariance_scale": 0.0}}},
             "dataset.profile.covariance_scale"),
            ({"model": {"conv_channels": [4, 8, 0]}}, "model"),
            # a generated feature shape the model cannot take
            ({"dataset": {"profile": {"dim": 32}}}, "model.input_shape"),
            ({"model": {"input_shape": [1, 16, 16]}}, "model.input_shape"),
            ({"dataset": {"kind": "images", "image": {"side": 16}},
              "model": {"input_shape": [4, 8, 8]}}, "model.input_shape"),
            # the shape knobs deleted since: attention has one head, images one channel
            ({"model": {"n_heads": 1}}, "model.n_heads"),
            ({"dataset": {"image": {"channels": 1}}}, "dataset.image.channels"),
        ],
    )
    def test_rejections_name_the_field(self, tmp_path, patch, path):
        doc = mini_doc(str(tmp_path))
        for key, value in patch.items():
            if isinstance(value, dict):
                sub = doc.setdefault(key, {})
                for k2, v2 in value.items():
                    if isinstance(v2, dict):
                        sub.setdefault(k2, {}).update(v2)
                    else:
                        sub[k2] = v2
            else:
                doc[key] = value
        with pytest.raises(ConfigError) as err:
            normalize_config(doc)
        assert err.value.path == path

    def test_document_policy_is_in_range_but_code_may_switch_it_off(self, tmp_path):
        doc = mini_doc(str(tmp_path))
        off = replace(normalize_config(doc), policy=DecisionPolicy(tau=2.0))
        assert off.policy.tau == 2.0
        doc["policy"] = {"tau": 2.0}
        with pytest.raises(ConfigError) as err:
            normalize_config(doc)
        assert err.value.path == "policy.tau"

    @pytest.mark.parametrize("path", ["split.seed", "train.seed", "gbdt.seed",
                                      "policy.excluded_label", "dataset.source"])
    @pytest.mark.parametrize("value", [None, 0, 7])
    def test_the_document_holds_no_per_run_field(self, tmp_path, path, value):
        # the split and train seeds and the excluded label are set per run, the
        # corrector fit has no seed, and a path alone says whether the data is a file
        section, key = path.split(".")
        doc = mini_doc(str(tmp_path))
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as err:
            normalize_config(doc)
        assert (err.value.path, err.value.message) == (path, "unknown field")
        assert key not in default_config_dict()[section]

    def test_config_digest_tracks_content(self, tmp_path):
        a = mini_config(str(tmp_path))
        b = mini_config(str(tmp_path))
        assert config_sha256(a) == config_sha256(b)
        assert config_sha256(replace(a, seed=12)) != config_sha256(a)


def _numeric(hint) -> bool:
    """An int or float field, optional or not, or a tuple of them."""
    args = [a for a in get_args(hint) if a not in (NoneType, Ellipsis)] or [hint]
    return all(a in (int, float) for a in args)


NUMERIC_FIELDS = [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for cls in (ModelConfig, TrainConfig, GbdtConfig, SplitSpec, ProfileConfig,
                SequenceImageSpec, DatasetConfig, ExperimentConfig, DecisionPolicy)
    for name, hint in get_type_hints(cls).items() if _numeric(hint)
]


class TestConstructionChecks:
    """Every config dataclass checks itself when it is built, in code as from
    a document, so a config that exists is valid."""

    @pytest.mark.parametrize("cls,kwargs,path", [
        pytest.param(ProfileConfig, {"dim": 3}, None, id="profile_dim"),
        pytest.param(ProfileConfig, {"covariance_scale": -1.0}, None, id="profile_scale"),
        pytest.param(ProfileConfig, {"proportions": (0.5, 0.0, 0.5), "names": ("A", "B", "C")},
                     "proportions", id="profile_proportions"),
        pytest.param(ProfileConfig, {"names": ("A",)}, "names", id="profile_names"),
        pytest.param(SplitSpec, {"fractions": (0.5, 0.3, 0.3)}, "fractions", id="split"),
        pytest.param(ModelConfig, {"n_classes": 1}, None, id="model"),
        pytest.param(TrainConfig, {"batch_size": 0}, None, id="train"),
        pytest.param(GbdtConfig, {"n_rounds": 0}, None, id="gbdt"),
        pytest.param(DatasetConfig, {"path": ""}, "path", id="dataset_path"),
        pytest.param(DatasetConfig, {"n_total": 69}, "n_total", id="dataset_n_total"),
        pytest.param(DatasetConfig, {"kind": "images", "image": SequenceImageSpec(side=4)},
                     "image.side", id="dataset_image_side"),
        pytest.param(ExperimentConfig, {"model": ModelConfig(n_classes=3)}, "model.n_classes",
                     id="experiment_n_classes"),
        pytest.param(ExperimentConfig, {"seed": -1}, "seed", id="experiment_seed"),
        pytest.param(SplitSpec, {"seed": -3}, "seed", id="split_seed"),
        pytest.param(ExperimentConfig, {"model": ModelConfig(input_shape=(1, 16, 16))},
                     "model.input_shape", id="experiment_gaussian_shape"),
        pytest.param(ExperimentConfig, {"dataset": DatasetConfig(kind="images",
                                                                 image=SequenceImageSpec(16)),
                                        "model": ModelConfig(input_shape=(4, 8, 8))},
                     "model.input_shape", id="experiment_image_shape"),
        # the per-run fields keep their defaults; a run's stages set them
        pytest.param(ExperimentConfig, {"split": SplitSpec(seed=3)}, "split.seed",
                     id="experiment_split_seed"),
        pytest.param(ExperimentConfig, {"policy": DecisionPolicy(excluded_label=np.int64(2))},
                     "policy.excluded_label", id="experiment_excluded_label"),
    ])
    def test_invalid_config_cannot_be_built(self, cls, kwargs, path):
        with pytest.raises(ValueError) as err:
            cls(**kwargs)
        if path is not None:
            assert isinstance(err.value, ConfigError) and err.value.path == path

    @pytest.mark.parametrize("cls", [ExperimentConfig, SplitSpec])
    @pytest.mark.parametrize("seed", [1.5, 1.0, True, False, np.int64(3), "3", None],
                             ids=repr)
    def test_a_seed_is_a_plain_int(self, cls, seed):
        # a seed that is not an int could not be written to the document and
        # read back, and a bool would run as 0 or 1
        with pytest.raises(ConfigError) as err:
            cls(seed=seed)
        assert err.value.path == "seed"

    @pytest.mark.parametrize("cls,name", NUMERIC_FIELDS)
    def test_nan_cannot_be_built(self, cls, name):
        default = getattr(cls(), name)
        nan = (math.nan,) * len(default) if isinstance(default, tuple) else math.nan
        with pytest.raises(ValueError):
            cls(**{name: nan})

    @pytest.mark.parametrize("name", ["means", "covariance_scale", "proportions"])
    def test_nan_cluster_spec_cannot_be_built(self, name):
        spec = ProfileConfig().to_cluster_spec()
        with pytest.raises(ValueError):
            replace(spec, **{name: np.full_like(getattr(spec, name), math.nan)})

    def test_a_typo_in_code_is_rejected_before_any_stage(self, tmp_path):
        cfg = mini_config(str(tmp_path))
        with pytest.raises(ConfigError) as err:
            replace(cfg.dataset, kind="gaussain")
        assert err.value.path == "kind"
        with pytest.raises(ConfigError) as err:
            replace(cfg, split=replace(cfg.split, seed=7))
        assert err.value.path == "split.seed"


@pytest.fixture(scope="module")
def single_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("single")
    cfg = mini_config(str(out / "runs"))
    result = run_single(cfg, excluded=1)
    return cfg, result


class TestRunSingle:
    def test_persists_all_artifacts(self, single_run):
        _, result = single_run
        run_dir = Path(result.run_dir)
        assert run_dir.name == "excl_1"
        for name in ("model.bin", "corrector.txt", "preds.csv", "metrics.csv",
                     "history.csv"):
            assert (run_dir / name).is_file(), name

    def test_excluded_class_is_blind_for_base_but_recovered(self, single_run):
        _, result = single_run
        m = result.report.per_class[1]
        assert m.tpr_base <= 0.05
        assert m.gain is not None and m.gain > 0

    def test_corrector_saw_all_classes(self, single_run):
        _, result = single_run
        ens = load_ensemble(Path(result.run_dir) / "corrector.txt")
        assert ens.n_classes == 3
        assert len(ens.loss_curve) == 21

    def test_metrics_file_matches_in_memory_report(self, single_run):
        from mclab.metrics import report_to_csv

        _, result = single_run
        on_disk = (Path(result.run_dir) / "metrics.csv").read_text()
        assert on_disk == report_to_csv(result.report)

    def test_history_file_has_epoch_rows(self, single_run):
        _, result = single_run
        lines = (Path(result.run_dir) / "history.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) >= 2

    def test_rerun_is_byte_identical(self, single_run, tmp_path):
        cfg, result = single_run
        cfg2 = replace(cfg, output_dir=str(tmp_path / "runs"))
        again = run_single(cfg2, excluded=1)
        assert_trees_identical(
            Path(result.run_dir), Path(again.run_dir)
        )

    def test_unreachable_tau_leaves_base_untouched(self, single_run, tmp_path):
        cfg, _ = single_run
        off = replace(
            cfg,
            output_dir=str(tmp_path / "runs"),
            policy=DecisionPolicy(tau=2.0),
        )
        result = run_single(off, excluded=1)
        for m in result.report.per_class:
            assert m.tpr_corrected == m.tpr_base
            assert m.retention in (None, 1.0)

    def test_base_only_stops_after_training(self, single_run, tmp_path):
        cfg, _ = single_run
        cfg2 = replace(cfg, output_dir=str(tmp_path / "runs"))
        result = run_single(cfg2, excluded=None, base_only=True)
        assert result.report is None
        run_dir = Path(result.run_dir)
        assert (run_dir / "model.bin").is_file()
        assert (run_dir / "history.csv").is_file()
        assert not (run_dir / "preds.csv").exists()

    def test_early_stopping_never_sees_correct_or_test(self, tmp_path, monkeypatch):
        cfg = mini_config(str(tmp_path / "runs"))
        seen = {}
        real = harness_mod.train

        def spy(model, fit_set, val_set, weights, config, rng):
            seen["fit"], seen["val"] = fit_set, val_set
            return real(model, fit_set, val_set, weights, config, rng)

        monkeypatch.setattr(harness_mod, "train", spy)
        run_single(cfg, excluded=1, base_only=True)
        plan = plan_run(cfg, 1)
        data = harness_mod.build_dataset(cfg)

        def rows(d):
            return {r.tobytes() for r in d.features}

        assert len(rows(data)) == len(data)  # rows identify samples
        parts = [rows(plan.train_set), rows(plan.correct_set), rows(plan.test_set)]
        assert set.union(*parts) == rows(data) and sum(map(len, parts)) == len(data)
        fit, val = rows(seen["fit"]), rows(seen["val"])
        assert (fit, val) == (rows(plan.fit_set), rows(plan.val_set))
        assert val and val <= parts[0] and fit <= parts[0]
        assert not val & fit
        assert not val & parts[1]
        assert not val & parts[2]
        assert 1 not in seen["val"].labels and 1 not in seen["fit"].labels

    @pytest.mark.parametrize("stage,callee", [
        ("data", "build_dataset"),
        ("split", "split_dataset"),
        ("exclude", "exclude_class"),
        ("train", "train"),
        ("latents", "forward_latents"),
        ("corrector", "fit_corrector"),
        ("compose", "compose_batch"),
        ("metrics", "evaluate"),
        ("persist", "save_model"),
    ])
    def test_errors_carry_their_stage(self, tmp_path, monkeypatch, stage, callee):
        doc = mini_doc(str(tmp_path / "runs"))
        doc["train"]["max_epochs"] = 1
        doc["gbdt"]["n_rounds"] = 1
        cause = RuntimeError("synthetic failure")

        def fail(*args, **kwargs):
            raise cause

        monkeypatch.setattr(harness_mod, callee, fail)
        with pytest.raises(StageError, match="synthetic failure") as err:
            run_single(normalize_config(doc), excluded=1)
        assert err.value.stage == stage
        assert err.value.__cause__ is cause

    def test_invalid_inputs_carry_their_stage(self, tmp_path):
        # a file's feature shape is known only when the data stage reads it
        path = tmp_path / "dim32.csv"
        save_dataset(LabeledDataset(np.zeros((30, 32), np.float32), np.arange(30) % 3, 3),
                     path)
        doc = mini_doc(str(tmp_path))
        doc["dataset"] = {"path": str(path)}  # model expects 64 inputs
        cfg = normalize_config(doc)
        with pytest.raises(StageError) as err:
            run_single(cfg, excluded=0)
        assert err.value.stage == "data"

        good = mini_config(str(tmp_path))
        with pytest.raises(StageError) as err:
            run_single(good, excluded=7)
        assert err.value.stage == "exclude"

    def test_perfect_baseline_completes(self, tmp_path):
        # near noise-free images: the base model is right on every test
        # sample, so no class has a gain and the gain averages are None
        cfg = normalize_config({
            "output_dir": str(tmp_path),
            "dataset": {"kind": "images", "n_total": 700,
                        "profile": {"covariance_scale": 0.05}},
            "train": {"max_epochs": 30},
        })
        result = run_single(cfg, None)
        agg = result.report.aggregate
        assert agg.accuracy_base == agg.accuracy_corrected == 1.0
        assert all(m.gain is None for m in result.report.per_class)
        assert agg.gain_macro is None and agg.gain_weighted is None
        lines = (Path(result.run_dir) / "metrics.csv").read_text().splitlines()
        assert "gain_macro," in lines and "gain_weighted," in lines


class TestStages:
    """``run_single`` is ``plan_run``, ``train_run``, ``score_run`` (not with
    ``base_only``) and persist, so a study can call the stages itself."""

    @pytest.mark.parametrize("excluded", [None, 1])
    def test_the_stages_write_what_run_single_writes(self, single_run, tmp_path, excluded):
        cfg, result = single_run
        if excluded is None:
            result = run_single(replace(cfg, output_dir=str(tmp_path / "runs")), None)
        plan = plan_run(cfg, excluded)
        model, history = train_run(plan)
        ensemble, preds, report = score_run(plan, model)
        assert (ensemble is None) == (excluded is None)
        assert report == result.report
        out = tmp_path / "stages"
        out.mkdir()
        save_model(model, out / "model.bin")
        history.write(out / "history.csv")
        if ensemble is not None:
            save_ensemble(ensemble, out / "corrector.txt")
        write_prediction_log(preds, plan.test_set.labels, 3, out / "preds.csv")
        (out / "metrics.csv").write_text(report_to_csv(report), encoding="ascii")
        assert_trees_identical(Path(result.run_dir), out)

    def test_base_only_stops_after_the_training_stage(self, tmp_path):
        cfg = mini_config(str(tmp_path / "runs"))
        result = run_single(cfg, 2, base_only=True)
        model, history = train_run(plan_run(cfg, 2))
        out = tmp_path / "stages"
        out.mkdir()
        save_model(model, out / "model.bin")
        history.write(out / "history.csv")
        assert_trees_identical(Path(result.run_dir), out)
        assert result.history.rows == history.rows

    def test_a_plan_trains_the_same_model_again(self, tmp_path):
        plan = plan_run(mini_config(str(tmp_path)), 0)
        (a, _), (b, _) = train_run(plan), train_run(plan)
        for (name, pa), (_, pb) in zip(a.params(), b.params()):
            assert pa.tobytes() == pb.tobytes(), name

    @pytest.mark.parametrize("excluded", [True, False, 1.0, 1.5, "1", np.float64(1)], ids=repr)
    def test_the_excluded_class_is_an_int(self, tmp_path, excluded):
        # a bool or a float once passed the range check and ran as "classTrue"
        with pytest.raises(StageError, match="is not an int") as err:
            run_single(mini_config(str(tmp_path)), excluded, base_only=True)
        assert err.value.stage == "exclude"
        assert not any(tmp_path.iterdir())

    def test_a_numpy_integer_runs_as_its_int(self, single_run, tmp_path):
        cfg, result = single_run
        again = run_single(replace(cfg, output_dir=str(tmp_path / "runs")), np.int64(1))
        assert Path(again.run_dir).name == "excl_1"
        assert_trees_identical(Path(result.run_dir), Path(again.run_dir))
        excluded = plan_run(cfg, np.uint8(1)).excluded
        assert type(excluded) is int and excluded == 1


@pytest.fixture
def in_process_pool(monkeypatch):
    """Puts a pool in place of ``ProcessPoolExecutor`` that runs each call in this
    process, in entry order, so a monkeypatched ``run_single`` runs in it too; gives
    the worker counts asked of it."""
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return [fn(*args) for args in zip(*iterables)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return asked


@pytest.fixture(scope="module")
def mini_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = mini_sweep_config(str(out / "runs"))
    sweep = run_sweep(cfg, jobs=1)
    return cfg, sweep


class TestSweep:
    def test_layout(self, mini_sweep):
        _, sweep = mini_sweep
        root = sweep.root
        assert sorted(p.name for p in root.iterdir() if p.is_dir()) == [
            "excl_0", "excl_1", "excl_2", "excl_none",
        ]
        for tag in ("table3", "table4", "table5"):
            assert (root / f"{tag}.csv").is_file()
            assert (root / f"{tag}.txt").is_file()
        assert (root / "manifest.json").is_file()
        assert set(sweep.runs) == {0, 1, 2}

    def test_tree_matches_the_pinned_digests(self, mini_sweep):
        _, sweep = mini_sweep
        got = sweep_digests(sweep.root)
        if host_fingerprint() == PINNED_SWEEP["host"]:
            assert got == PINNED_SWEEP["files"]
        else:  # training rounds differently on another numpy build or CPU
            assert sorted(got) == sorted(PINNED_SWEEP["files"])

    def test_diagonal_is_the_excluded_class_row(self, mini_sweep):
        _, sweep = mini_sweep
        lines = (sweep.root / "table3.csv").read_text().splitlines()
        ret_rows = [l.split(",") for l in lines if l.startswith("retention,")]
        for c in range(3):
            want = sweep.runs[c].report.per_class[c].retention
            cell = ret_rows[c][2 + c]
            if want is None:
                assert cell == ""
            else:
                assert cell == f"{want:.6f}"

    def test_emitted_harm_complements_retention(self, mini_sweep):
        _, sweep = mini_sweep
        lines = (sweep.root / "table3.csv").read_text().splitlines()
        ret = [l.split(",")[2:] for l in lines if l.startswith("retention,")][:3]
        harm = [l.split(",")[2:] for l in lines if l.startswith("harm,")][:3]
        checked = 0
        for i in range(3):
            for c in range(3):
                if ret[i][c] == "":
                    assert harm[i][c] == ""
                    continue
                assert abs(float(ret[i][c]) + float(harm[i][c]) - 1.0) <= 1e-6
                checked += 1
        assert checked > 0

    def test_table3_has_average_rows(self, mini_sweep):
        _, sweep = mini_sweep
        lines = (sweep.root / "table3.csv").read_text().splitlines()
        assert sum(l.split(",")[1] == "Average" for l in lines) == 2
        text = (sweep.root / "table3.txt").read_text()
        assert "Average" in text
        # the diagonal marker shows up in table5, whose diagonal is always a
        # defined accuracy; table3's diagonal may be blank (undefined retention)
        assert "*" in (sweep.root / "table5.txt").read_text()

    def test_table4_gain_column(self, mini_sweep):
        _, sweep = mini_sweep
        lines = (sweep.root / "table4.csv").read_text().splitlines()
        assert lines[0] == "corrector,delta_fpr_macro,gain_excluded"
        for c in range(3):
            cells = lines[1 + c].split(",")
            assert cells[0] == str(c + 1)
            want = sweep.runs[c].report.per_class[c].gain
            assert cells[2] == ("" if want is None else f"{want:.6f}")

    def test_table5_power_is_diagonal_over_baseline(self, mini_sweep):
        _, sweep = mini_sweep
        lines = (sweep.root / "table5.csv").read_text().splitlines()
        assert lines[0].endswith(",power")
        for i in range(3):
            cells = lines[1 + i].split(",")
            base = sweep.baseline.report.per_class[i].tpr_base
            assert cells[1] == f"{base:.6f}"
            diag = sweep.runs[i].report.per_class[i].tpr_corrected
            if base and diag is not None:
                assert cells[-1] == f"{diag / base:.6f}"

    def test_manifest_checksums_and_replay(self, mini_sweep):
        cfg, sweep = mini_sweep
        manifest = json.loads((sweep.root / "manifest.json").read_text())
        assert manifest["artifact"] == "mclab-sweep v1"
        assert manifest["master_seed"] == cfg.seed
        assert normalize_config(manifest["config"]) == cfg
        assert manifest["config_sha256"] == config_sha256(cfg)
        assert set(manifest["runs"]) == {"excl_none", "excl_0", "excl_1", "excl_2"}
        for run_tag, files in manifest["runs"].items():
            for name, digest in files.items():
                blob = (sweep.root / run_tag / name).read_bytes()
                assert hashlib.sha256(blob).hexdigest() == digest
        for name, digest in manifest["tables"].items():
            blob = (sweep.root / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest

    def test_reload_reproduces_reports(self, mini_sweep):
        _, sweep = mini_sweep
        loaded = load_sweep(sweep.root)
        for c in range(3):
            a = sweep.runs[c].report
            b = loaded.runs[c].report
            for ma, mb in zip(a.per_class, b.per_class):
                assert ma == mb
            assert a.aggregate == b.aggregate

    def test_reload_rejects_a_flipped_byte(self, mini_sweep, tmp_path):
        _, sweep = mini_sweep
        copy = tmp_path / "copy"
        shutil.copytree(sweep.root, copy)
        load_sweep(copy)  # the intact copy verifies
        target = copy / "excl_1" / "preds.csv"
        blob = bytearray(target.read_bytes())
        blob[-3] ^= 1  # a digit of the last corr_conf
        target.write_bytes(bytes(blob))
        with pytest.raises(StageError, match=r"excl_1/preds\.csv") as err:
            load_sweep(copy)
        assert err.value.stage == "report"
        assert "sha256" in str(err.value)

        manifest_path = copy / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["runs"]["excl_0"]["preds.csv"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StageError, match=r"no sha256 for .*excl_0/preds\.csv"):
            load_sweep(copy)

    @pytest.mark.parametrize("name,edit", [
        ("excl_1/model.bin", lambda blob: blob[:-8]),  # its last weight cut off
        ("excl_2/corrector.txt", lambda blob: b"garbage\n"),
        ("excl_0/metrics.csv", lambda blob: blob + b"\n"),
        ("excl_none/history.csv", lambda blob: blob.replace(b"0", b"1", 1)),
    ], ids=["model", "corrector", "metrics", "history"])
    def test_reload_rejects_a_changed_run_file(self, mini_sweep, tmp_path, name, edit):
        # not only the logs it reads: the report vouches for every run file
        _, sweep = mini_sweep
        copy = tmp_path / "copy"
        shutil.copytree(sweep.root, copy)
        target = copy / name
        target.write_bytes(edit(target.read_bytes()))
        with pytest.raises(StageError, match=re.escape(
                f"{target} does not match its sha256 in the manifest")) as err:
            load_sweep(copy)
        assert err.value.stage == "report"

    def test_reload_rejects_a_missing_run_file(self, mini_sweep, tmp_path):
        _, sweep = mini_sweep
        copy = tmp_path / "copy"
        shutil.copytree(sweep.root, copy)
        (copy / "excl_2" / "metrics.csv").unlink()
        with pytest.raises(StageError, match=re.escape(
                f"cannot read {copy / 'excl_2' / 'metrics.csv'}: no such file in")):
            load_sweep(copy)

    def test_reload_reads_only_files_of_the_run_directory(self, mini_sweep, tmp_path):
        # a listed name that leads out of the run directory is not a run file
        _, sweep = mini_sweep
        copy = tmp_path / "copy"
        shutil.copytree(sweep.root, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["runs"]["excl_0"]["../table3.csv"] = manifest["tables"]["table3.csv"]
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StageError, match=re.escape(
                f"cannot read {copy / 'excl_0' / '../table3.csv'}: no such file in")):
            load_sweep(copy)

    def test_reload_rejects_an_unlisted_run_file(self, mini_sweep, tmp_path):
        _, sweep = mini_sweep
        copy = tmp_path / "copy"
        shutil.copytree(sweep.root, copy)
        (copy / "excl_0" / "notes.txt").write_text("added later\n")
        with pytest.raises(StageError, match=re.escape(
                f"manifest lists no sha256 for {copy / 'excl_0' / 'notes.txt'}")):
            load_sweep(copy)

    @pytest.mark.parametrize("excluded", [None, 0, 1, 2])
    def test_a_run_replays_from_its_checkpoints(self, mini_sweep, tmp_path, excluded):
        # model.bin (and corrector.txt) alone recompose the test split into the
        # very preds.csv and metrics.csv the run wrote
        cfg, sweep = mini_sweep
        run_dir = sweep.root / ("excl_none" if excluded is None else f"excl_{excluded}")
        plan = plan_run(cfg, excluded)
        model = load_model(run_dir / "model.bin")
        if excluded is None:
            _, base_probs = predict_batch(model, plan.test_set)
            preds = decide_batch(base_probs, np.zeros_like(base_probs), None)
        else:
            policy = replace(cfg.policy, excluded_label=excluded)
            preds = compose_batch(model, load_ensemble(run_dir / "corrector.txt"), policy,
                                  plan.test_set)
        report = evaluate(PairedPredictions(
            plan.test_set.labels, preds.base_labels, preds.corrected_labels, 3))
        write_prediction_log(preds, plan.test_set.labels, 3, tmp_path / "preds.csv")
        (tmp_path / "metrics.csv").write_text(report_to_csv(report), encoding="ascii")
        for name in ("preds.csv", "metrics.csv"):
            assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_the_pin_recorder_refuses_another_host(self, monkeypatch):
        monkeypatch.setattr(reference_fixture, "host_fingerprint", lambda: {"machine": "other"})
        monkeypatch.setattr(reference_fixture, "run_sweep", _never_called)
        before = MINI_SWEEP_PIN.read_bytes()
        with pytest.raises(SystemExit, match="is not the pinned host"):
            reference_fixture.record_mini_sweep()
        assert MINI_SWEEP_PIN.read_bytes() == before

    def test_reload_needs_manifest(self, tmp_path):
        with pytest.raises(StageError, match="manifest"):
            load_sweep(tmp_path)

    def test_sweep_is_byte_reproducible(self, mini_sweep, tmp_path):
        cfg, sweep = mini_sweep
        aside = tmp_path / "first"
        shutil.copytree(sweep.root, aside)
        run_sweep(cfg, jobs=1)  # overwrite in place with the same config
        assert_trees_identical(aside, sweep.root)

    def test_parallel_sweep_matches_serial(self, mini_sweep, tmp_path):
        cfg, sweep = mini_sweep
        par_cfg = replace(cfg, output_dir=str(tmp_path / "runs"))
        par = run_sweep(par_cfg, jobs=2)
        # configs differ only in output_dir, so compare everything except the
        # manifest and then its run/table checksum sections explicitly
        assert_trees_identical(sweep.root, par.root, skip=("manifest.json",))
        a = json.loads((sweep.root / "manifest.json").read_text())
        b = json.loads((par.root / "manifest.json").read_text())
        assert a["runs"] == b["runs"]
        assert a["tables"] == b["tables"]

    def test_workers_are_capped_at_the_run_count(self, mini_sweep, tmp_path, in_process_pool):
        cfg, sweep = mini_sweep
        par = run_sweep(replace(cfg, output_dir=str(tmp_path / "runs")), jobs=10**6)
        assert in_process_pool == [len(sweep.runs) + 1]
        assert_trees_identical(sweep.root, par.root, skip=("manifest.json",))
        a = json.loads((sweep.root / "manifest.json").read_text())
        b = json.loads((par.root / "manifest.json").read_text())
        assert a["runs"] == b["runs"]
        assert a["tables"] == b["tables"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_run_keeps_earlier_artifacts(self, tmp_path, monkeypatch, in_process_pool,
                                                jobs):
        # jobs=2 maps through the in-process pool: a monkeypatched run_single
        # cannot be pickled into a worker process
        cfg = mini_config(str(tmp_path / "runs"), name="partial")
        real = harness_mod.run_single

        def flaky(config, excluded, **kwargs):
            if excluded == 2:
                raise StageError("corrector", "synthetic failure")
            return real(config, excluded=excluded, **kwargs)

        monkeypatch.setattr(harness_mod, "run_single", flaky)
        with pytest.raises(StageError, match="corrector"):
            run_sweep(cfg, jobs=jobs)
        assert in_process_pool == ([] if jobs == 1 else [jobs])
        root = tmp_path / "runs" / "partial"
        for tag in ("excl_none", "excl_0", "excl_1"):
            assert (root / tag / "history.csv").is_file(), tag
        assert not (root / "table3.csv").exists()


def test_the_host_key_sees_the_blas_kernel():
    # another OpenBLAS kernel rounds the first gradient differently, so a host
    # that runs one must not pass for the host a pin was recorded on
    parent = host_fingerprint()
    other = "Nehalem" if parent["blas_kernel"] == "Sandybridge" else "Sandybridge"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE=other,
               PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "tests")))
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, reference_fixture; print(json.dumps(reference_fixture.host_fingerprint()))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    child = json.loads(done.stdout)
    if parent["blas_kernel"] is None:  # numpy's OpenBLAS does not name its kernel
        assert child["blas_kernel"] is None
    else:
        assert child["blas_kernel"] == other and child != parent


# a hand-made 11-class sweep: class 4 has no test samples, the base model
# never gets class 9 right, and exclusion runs keep a quarter of the excluded
# class's base hits, so some diagonal cells are defined and some are not
HAND_K, HAND_EMPTY, HAND_ALWAYS_WRONG = 11, 4, 9
HAND_NAMES = ["Happiness", "Neutral", "Sadness", "Surprise_and_more", "Disgust", "Anger",
              "Fear", "Contempt", "Awe", "Boredom", "Confusion"]
# sha256 of the tables render_report wrote for the hand-made sweep at the
# commit before the report renderer was rewritten; pure integer counts and
# exact ratios, so these hold on every host
PINNED_TABLES = {
    "table3.csv": "7986d96ffa1beb76a2b117624261b2e63a936cc5639e51f553d5e5e5009025f5",
    "table3.txt": "afd492753d1c9a4a7c81c97641f70151c64a1421a03c9a7b3adb03670b274d4f",
    "table4.csv": "7c495ea22bfa5a4e81b5e7f183e15bac5b3374577c50c815c47f893c3dc45d66",
    "table4.txt": "083c1b025dc6d5eadef2df04f0713eb7f810c95fb8be1c848da7221d19309a4a",
    "table5.csv": "be04a6b0a6e1e89dd46543b5bd1cbc1dd8acbe5d56e304bdfbfd3507945457a0",
    "table5.txt": "b8866277e0cf66cc87609f3b58fd30e17663dcc34f08ef0e54523f2ecbfe12e7",
}


def hand_report(excluded: int | None):
    k = HAND_K
    true = np.concatenate([np.full(3 + i % 4, i) for i in range(k) if i != HAND_EMPTY])
    j = np.arange(true.size)
    base = np.where((j % 3 == 0) | (true == HAND_ALWAYS_WRONG), (true + 1) % k, true)
    corrected = base
    if excluded is not None:
        base = np.where((base == excluded) & (j % 4 != 1), (excluded + 2) % k, base)
        corrected = np.where((true == excluded) & (j % 2 == 0), excluded, base)
        corrected = np.where(j % 7 == 5, (true + 3) % k, corrected)
        corrected = np.where(j % 11 == 10, NEW_CLASS, corrected)
    return evaluate(PairedPredictions(true, base, corrected, k))


def hand_sweep(out_dir: Path) -> SweepResult:
    config = normalize_config({
        "name": "hand",
        "output_dir": str(out_dir),
        "dataset": {"profile": {"proportions": [1.0] * HAND_K, "names": HAND_NAMES}},
        "model": {"n_classes": HAND_K},
    })

    def result(excluded: int | None) -> RunResult:
        run_dir = out_dir / "hand" / ("excl_none" if excluded is None else f"excl_{excluded}")
        run_dir.mkdir(parents=True)
        return RunResult(str(run_dir), hand_report(excluded), TrainingHistory())

    return SweepResult(config, config.root, result(None),
                       {c: result(c) for c in range(HAND_K)})


class TestReportTables:
    def test_table_bytes_are_pinned(self, tmp_path):
        sweep = hand_sweep(tmp_path)
        render_report(sweep)
        got = {name: hashlib.sha256((sweep.root / name).read_bytes()).hexdigest()
               for name in PINNED_TABLES}
        assert got == PINNED_TABLES

    def test_hand_sweep_covers_the_table_quirks(self, tmp_path):
        sweep = hand_sweep(tmp_path)
        render_report(sweep)
        table3 = (sweep.root / "table3.txt").read_text().splitlines()
        table5 = (sweep.root / "table5.txt").read_text().splitlines()
        assert "1.000*" in table3[2] and "*" not in table3[4]  # defined / undefined diagonal
        assert table5[5].split() == ["5:Disgust", "*"]  # no test samples of class 5
        assert table5[10].startswith("10:Boredom    ")  # a 13-character label
        assert "4:Surprise_a" in (sweep.root / "table4.txt").read_text()

