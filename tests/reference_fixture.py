"""The reference fixture of the acceptance gate: what it holds and how to
record it.

``fixtures/reference_toy.json`` holds the outcome of the default exclusion
sweep, the sha256 checksums of the dataset and of the three split parts that
sweep uses, and the fingerprint of the host it was recorded on. The checksums
hold on every host; the sweep numbers only on a host with the same
fingerprint. Re-record it from the repository root with

    PYTHONPATH=src python tests/reference_fixture.py

which runs the default sweep with one worker and rewrites every field of the
fixture except its ``thresholds`` block.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from mclab.core import LabeledDataset, derived_seed, split_dataset
from mclab.harness import build_dataset, normalize_config, run_sweep

FIXTURE = Path(__file__).parent / "fixtures" / "reference_toy.json"
SPLIT_PARTS = ("train", "correct", "test")

COMMENT = (
    "Recorded outcomes of the default class-exclusion sweep (gaussian mixture, "
    "n_total=7000, 7 classes, master seed 0, one worker). Criterion 6 of "
    "tests/test_acceptance.py re-runs that sweep. 'thresholds' holds its hard "
    "quality gates, which it applies on every host, and 'fixture_drift'. "
    "'checksums' (sha256 of the dataset and of the train/correct/test split "
    "parts) hold across hosts and are compared exactly on every host. "
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


def host_fingerprint() -> dict:
    """What decides float rounding in training: interpreter, numpy build,
    BLAS, the SIMD paths numpy dispatches to, and the CPU architecture."""
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its config
        info = {}
    blas = info.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_dispatch": sorted(info.get("SIMD Extensions", {}).get("found", [])),
        "machine": platform.machine(),
    }


def dataset_sha256(data: LabeledDataset) -> str:
    h = hashlib.sha256()
    h.update(repr(data.features.shape).encode("ascii"))
    h.update(data.features.astype("<f4").tobytes())
    h.update(data.labels.astype("<i8").tobytes())
    return h.hexdigest()


def stage_checksums(config) -> dict:
    """Checksums of the stages that do no float rounding that varies by host."""
    data = build_dataset(config)
    parts = split_dataset(data, replace(config.split, seed=derived_seed(config.seed, "split")))
    return {
        "dataset": dataset_sha256(data),
        "split": {name: dataset_sha256(p) for name, p in zip(SPLIT_PARTS, parts)},
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
            "val_accuracy": sweep.baseline.val_accuracy,
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


if __name__ == "__main__":
    print(json.dumps(record()["derived"]["runs"], indent=2))
