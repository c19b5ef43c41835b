"""The two recorded sweeps of the test suite: what they hold and how to
record them.

``fixtures/reference_toy.json``, the reference fixture of the acceptance
gate, holds the outcome of the default exclusion sweep, the sha256 checksums
of the dataset, of the three split parts that sweep uses and of each of its
runs' initial weights, and the fingerprint of the host it was recorded on.
The checksums hold on every host; the sweep numbers only on a host with the
same fingerprint. Re-record it from the repository root with

    PYTHONPATH=src python tests/reference_fixture.py

which runs the default sweep with one worker and rewrites every field of the
fixture except its ``thresholds`` block.

``fixtures/mini_sweep_pinned.json`` pins the sha256 of every file the
``mini_sweep`` config (``mini_sweep_config``, a small 3-class world) writes,
on the host its ``host`` names. Re-record it with

    PYTHONPATH=src python tests/reference_fixture.py --mini-sweep

which refuses to run on another host, runs that sweep with one worker,
rewrites only the ``files`` map and prints every digest that changed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from mclab.basemodel import StagedModel
from mclab.core import LabeledDataset
from mclab.harness import ExperimentConfig, build_dataset, normalize_config, plan_run, run_sweep

FIXTURE = Path(__file__).parent / "fixtures" / "reference_toy.json"
MINI_SWEEP_PIN = FIXTURE.parent / "mini_sweep_pinned.json"
SPLIT_PARTS = ("train", "correct", "test")

COMMENT = (
    "Recorded outcomes of the default class-exclusion sweep (gaussian mixture, "
    "n_total=7000, 7 classes, master seed 0, one worker). Criterion 6 of "
    "tests/test_acceptance.py re-runs that sweep. 'thresholds' holds its hard "
    "quality gates, which it applies on every host, and 'fixture_drift'. "
    "'checksums' (sha256 of the dataset, of the train/correct/test split "
    "parts and of the initial weights of the baseline and of each exclusion "
    "run) hold across hosts and are compared exactly on every host. "
    "'derived' (the baseline and per-corrector numbers) and "
    "'recorded.elapsed_seconds_single_thread' hold only on the recording host: "
    "base training goes through BLAS and numpy's SIMD exp/tanh, whose rounding "
    "depends on the numpy build and the CPU. So 'derived.runs' is compared at "
    "'thresholds.fixture_drift' only where the host fingerprint equals "
    "'recorded.host'. To regenerate, run "
    "'PYTHONPATH=src python tests/reference_fixture.py' from the repository "
    "root: it runs the default sweep with one worker and rewrites every field "
    "but 'thresholds'. Re-record only after a change that is meant to move "
    "the numbers, and say why in CHANGES.md."
)


def mini_doc(out_dir: str, name: str = "mini", seed: int = 11) -> dict:
    """The config document of a small 3-class world, quick to train."""
    return {
        "name": name,
        "seed": seed,
        "output_dir": out_dir,
        "dataset": {
            "n_total": 600,
            "profile": {
                "proportions": [0.5, 0.3, 0.2],
                "names": ["A", "B", "C"],
                "close_pair": [0, 2],
                "close_distance": 6.0,
            },
        },
        "model": {"conv_channels": [2, 4, 8], "n_classes": 3},
        "train": {"max_epochs": 15, "patience": 5, "batch_size": 32,
                  "dropout_p": 0.1, "learning_rate": 0.05},
        "gbdt": {"n_rounds": 20, "max_depth": 3},
    }


def mini_sweep_config(out_dir: str) -> ExperimentConfig:
    """The sweep that ``fixtures/mini_sweep_pinned.json`` pins."""
    return normalize_config(mini_doc(out_dir, name="sweepA"))


def sweep_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under a sweep root except its manifest.json, which
    holds the config's ``output_dir``."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def blas_kernel() -> str | None:
    """The kernel numpy's bundled OpenBLAS picked when it loaded (it follows the
    CPU, or ``OPENBLAS_CORETYPE``), or None where that library has no such symbol."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode("ascii")
    return None


def host_fingerprint() -> dict:
    """What decides float rounding in training: interpreter, numpy build,
    BLAS and the kernel it runs, the SIMD paths numpy dispatches to, and the
    CPU architecture."""
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its config
        info = {}
    blas = info.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_kernel": blas_kernel(),
        "cpu_dispatch": sorted(info.get("SIMD Extensions", {}).get("found", [])),
        "machine": platform.machine(),
    }


def dataset_sha256(data: LabeledDataset) -> str:
    h = hashlib.sha256()
    h.update(repr(data.features.shape).encode("ascii"))
    h.update(data.features.astype("<f4").tobytes())
    h.update(data.labels.astype("<i8").tobytes())
    return h.hexdigest()


def weights_sha256(model: StagedModel) -> str:
    """sha256 of a model's parameters as ``<f8`` bytes, in ``params()`` order."""
    h = hashlib.sha256()
    for _, arr in model.params():
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def stage_checksums(config) -> dict:
    """Checksums of the stages that do no float rounding that varies by host:
    the dataset, the split, and the initial weights of the baseline and of
    each exclusion run, drawn from the plan's init stream and not trained."""
    runs = {"baseline": None, **{str(c): c for c in range(config.model.n_classes)}}
    plans = {name: plan_run(config, c) for name, c in runs.items()}
    base = plans["baseline"]
    parts = (base.train_set, base.correct_set, base.test_set)
    return {
        "dataset": dataset_sha256(build_dataset(config)),
        "split": {name: dataset_sha256(p) for name, p in zip(SPLIT_PARTS, parts)},
        "initial_weights": {name: weights_sha256(StagedModel(config.model, plan.init_rng))
                            for name, plan in plans.items()},
    }


def derived_numbers(sweep) -> dict:
    runs = {}
    for c, run in sorted(sweep.runs.items()):
        rep = run.report
        m = rep.per_class[c]
        runs[str(c)] = {
            "retention_macro": rep.aggregate.retention_macro,
            "gain_excluded": m.gain,
            "tpr_base_excluded": m.tpr_base,
            "tpr_corrected_excluded": m.tpr_corrected,
            "accuracy_base": rep.aggregate.accuracy_base,
            "accuracy_corrected": rep.aggregate.accuracy_corrected,
            "new_class_rate": rep.new_class_rate,
        }
    return {
        "baseline": {
            "accuracy_base": sweep.baseline.report.aggregate.accuracy_base,
            "val_accuracy": sweep.baseline.history.best_val_acc,
        },
        "runs": runs,
    }


def record() -> dict:
    thresholds = json.loads(FIXTURE.read_text())["thresholds"]
    with tempfile.TemporaryDirectory() as tmp:
        config = normalize_config({"name": "reference", "output_dir": tmp})
        t0 = time.perf_counter()
        sweep = run_sweep(config, jobs=1)
        elapsed = time.perf_counter() - t0
        fixture = {
            "comment": COMMENT,
            "recorded": {
                "elapsed_seconds_single_thread": round(elapsed, 1),
                "host": host_fingerprint(),
            },
            "thresholds": thresholds,
            "checksums": stage_checksums(config),
            "derived": derived_numbers(sweep),
        }
    FIXTURE.write_text(json.dumps(fixture, indent=2) + "\n")
    return fixture


def record_mini_sweep() -> list[str]:
    """Rewrite the ``files`` map of the mini_sweep pin; returns one line per
    digest that changed (``-`` for a file that was not there)."""
    pin = json.loads(MINI_SWEEP_PIN.read_text())
    if host_fingerprint() != pin["host"]:
        raise SystemExit(f"{MINI_SWEEP_PIN}: this host is not the pinned host "
                         f"{pin['host']}, so its digests would not hold there")
    with tempfile.TemporaryDirectory() as tmp:
        files = sweep_digests(run_sweep(mini_sweep_config(tmp), jobs=1).root)
    changed = [f"{name}: {pin['files'].get(name, '-')} -> {files.get(name, '-')}"
               for name in sorted(set(pin["files"]) | set(files))
               if pin["files"].get(name) != files.get(name)]
    pin["files"] = files
    MINI_SWEEP_PIN.write_text(json.dumps(pin, indent=2) + "\n")
    return changed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mini-sweep", action="store_true",
                        help="re-record fixtures/mini_sweep_pinned.json instead")
    if parser.parse_args().mini_sweep:
        print("\n".join(record_mini_sweep()) or "no digest changed")
    else:
        print(json.dumps(record()["derived"]["runs"], indent=2))
