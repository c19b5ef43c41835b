"""Acceptance gate: eight end-to-end criteria with fixed tolerances.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
asserts the same condition. The two sweep criteria share one module-scoped
full-size sweep; the determinism criterion re-runs it with worker processes
and byte-compares the report trees.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mclab.basemodel import StagedModel
from mclab.composer import DecisionPolicy, read_prediction_log
from mclab.core import LabeledDataset, class_weights
from mclab.corrector import GbdtConfig, fit
from mclab.harness import normalize_config, run_single, run_sweep
from mclab.metrics import (
    AggregateMetrics,
    ClassMetrics,
    brute_force_oracle,
    evaluate,
)

from reference_fixture import FIXTURE, SPLIT_PARTS, host_fingerprint, stage_checksums
from test_basemodel import SMALL
from test_corrector import xor_dataset
from test_harness import mini_config, tree_files
from test_metrics import REF_HARM, REF_RETENTION, random_pair
from test_stages import central_diff, max_rel_err


def stamp(num: int, ok: bool, desc: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    print(line)
    return line


def reports_equal(a, b) -> bool:
    if a.n != b.n or a.class_counts != b.class_counts:
        return False
    if a.new_class_rate != b.new_class_rate:
        return False
    for ma, mb in zip(a.per_class, b.per_class):
        for f in ClassMetrics.__dataclass_fields__:
            if getattr(ma, f) != getattr(mb, f):
                return False
    for f in AggregateMetrics.__dataclass_fields__:
        if getattr(a.aggregate, f) != getattr(b.aggregate, f):
            return False
    return True


def trees_equal(a: Path, b: Path) -> bool:
    fa, fb = tree_files(a), tree_files(b)
    if fa != fb:
        return False
    return all((a / rel).read_bytes() == (b / rel).read_bytes() for rel in fa)


@pytest.fixture(scope="module")
def reference_sweep(tmp_path_factory):
    """The full-size single-threaded sweep shared by criteria 6 and 8."""
    out = tmp_path_factory.mktemp("acceptance")
    cfg = normalize_config({"name": "acceptance", "output_dir": str(out / "runs")})
    t0 = time.perf_counter()
    sweep = run_sweep(cfg, jobs=1)
    elapsed = time.perf_counter() - t0
    return cfg, sweep, elapsed


def test_criterion_1_retention_harm_complement():
    t0 = time.perf_counter()
    gaps = np.abs(REF_RETENTION + REF_HARM - 1.0)
    elapsed = time.perf_counter() - t0
    ok = bool(gaps.max() <= 1e-3 + 1e-12) and elapsed < 1.0
    line = stamp(
        1,
        ok,
        f"harm = 1 - retention within 0.001 in all {gaps.size} published "
        f"cells (max gap {gaps.max():.4f}, {elapsed:.2f}s < 1s)",
    )
    assert ok, line


def test_criterion_2_class_weight_reproduction():
    t0 = time.perf_counter()
    counts = (814, 166, 449, 2974, 1216, 435, 1615)
    labels = np.repeat(np.arange(7), counts)
    data = LabeledDataset(
        np.zeros((labels.size, 1), dtype=np.float32), labels, 7,
    )
    w = class_weights(data)
    elapsed = time.perf_counter() - t0
    ok = (
        labels.size == 7669
        and abs(w[1] - 7669 / 166) < 1e-12
        and abs(w[3] - 7669 / 2974) < 1e-12
        and abs(w[1] - 46.198) < 1e-3
        and abs(w[3] - 2.579) < 1e-3
        and elapsed < 1.0
    )
    line = stamp(
        2,
        ok,
        f"inverse-frequency weights w_Fear={w[1]:.3f}, w_Happiness={w[3]:.3f} "
        f"match 7669/166 and 7669/2974 within 1e-12 ({elapsed:.2f}s < 1s)",
    )
    assert ok, line


def test_criterion_3_full_model_gradients():
    t0 = time.perf_counter()
    worst = 0.0
    seeds = 10
    for seed in range(seeds):
        gen = np.random.default_rng(seed)
        model = StagedModel(SMALL, seed=seed)
        x = gen.standard_normal((3, 1, 8, 8))
        y = gen.integers(0, 3, size=3)
        w = np.array([0.5, 1.0, 2.0])

        def loss():
            return model.loss_and_grads(x, y, w)[0]

        _, grads = model.loss_and_grads(x, y, w)
        for name, param in model.params():
            fd = central_diff(loss, param, eps=1e-4)
            worst = max(worst, max_rel_err(grads[name], fd))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    line = stamp(
        3,
        ok,
        f"analytic vs central-difference gradients over {seeds} seeds, "
        f"worst relative error {worst:.2e} < 1e-4 ({elapsed:.1f}s < 60s)",
    )
    assert ok, line


def test_criterion_4_metric_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    n_logs = 100
    for seed in range(n_logs):
        p = random_pair(seed, n=500, k=7)
        if not reports_equal(evaluate(p), brute_force_oracle(p)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    line = stamp(
        4,
        ok,
        f"fast path equals set-counting oracle exactly on {n_logs} random "
        f"logs (N=500, K=7), {mismatches} mismatches ({elapsed:.1f}s < 10s)",
    )
    assert ok, line


def test_criterion_5_gbdt_xor_sanity():
    t0 = time.perf_counter()
    x, y = xor_dataset()
    ens = fit(x, y, GbdtConfig(n_rounds=50))
    acc = float(np.mean(ens.predict_proba(x).argmax(axis=1) == y))
    curve = np.array(ens.loss_curve)
    monotone = bool(np.all(np.diff(curve) <= 1e-9))
    elapsed = time.perf_counter() - t0
    ok = acc >= 0.95 and monotone and elapsed < 10.0
    line = stamp(
        5,
        ok,
        f"XOR training accuracy {acc:.3f} >= 0.95 within 50 rounds, "
        f"loss monotone={monotone} ({elapsed:.1f}s < 10s)",
    )
    assert ok, line


def test_criterion_6_exclusion_sweep_quality(reference_sweep):
    cfg, sweep, elapsed = reference_sweep
    fixture = json.loads(FIXTURE.read_text())
    t = fixture["thresholds"]
    ret_min, gain_min = t["retention_macro_min"], t["gain_excluded_min"]
    tpr_max, drift = t["tpr_base_excluded_max"], t["fixture_drift"]
    failures = []

    # Cross-host tier: the dataset and the split are exact on every host.
    sums = stage_checksums(cfg)
    if sums["dataset"] != fixture["checksums"]["dataset"]:
        failures.append("dataset checksum differs from fixture")
    for part in SPLIT_PARTS:
        if sums["split"][part] != fixture["checksums"]["split"][part]:
            failures.append(f"{part} split checksum differs from fixture")

    # Recording-host tier: trained numbers drift only by float order elsewhere.
    same_host = host_fingerprint() == fixture["recorded"]["host"]
    ref_runs = fixture["derived"]["runs"]
    worst_ret, worst_gain, worst_tpr = 1.0, 1.0, 0.0
    for c in range(7):
        rep = sweep.runs[c].report
        m = rep.per_class[c]
        ret = rep.aggregate.retention_macro
        ref = ref_runs[str(c)]
        if ret is None:
            failures.append(f"corrector {c}: retention_macro undefined")
        else:
            worst_ret = min(worst_ret, ret)
            if ret < ret_min:
                failures.append(
                    f"corrector {c}: retention_macro {ret:.3f} < {ret_min}"
                )
            if same_host and abs(ret - ref["retention_macro"]) > drift:
                failures.append(f"corrector {c}: retention drifted from fixture")
        if m.gain is None:
            failures.append(f"corrector {c}: excluded-class gain undefined")
        else:
            worst_gain = min(worst_gain, m.gain)
            if m.gain <= gain_min:
                failures.append(f"corrector {c}: gain {m.gain:.3f} <= {gain_min}")
            if same_host and abs(m.gain - ref["gain_excluded"]) > drift:
                failures.append(f"corrector {c}: gain drifted from fixture")
        if m.tpr_base is None or m.tpr_base > tpr_max:
            failures.append(f"corrector {c}: base TPR {m.tpr_base} > {tpr_max}")
        else:
            worst_tpr = max(worst_tpr, m.tpr_base)
    ok = (
        not failures
        and cfg.policy == DecisionPolicy()
        and cfg.dataset.n_total == 7000
        and cfg.model.n_classes == 7
        and elapsed < 900.0
    )
    tier = (
        f"fixture drift <= {drift} checked (recording host)"
        if same_host
        else "fixture drift not checked (host differs from the recording host)"
    )
    line = stamp(
        6,
        ok,
        f"7000-sample 7-class sweep: min retention_macro {worst_ret:.3f} >= "
        f"{ret_min}, min excluded gain {worst_gain:.3f} > {gain_min}, max "
        f"excluded base TPR {worst_tpr:.3f} <= {tpr_max}, dataset and split "
        f"checksums exact, {tier} ({elapsed:.0f}s < 900s)"
        + (f"; {'; '.join(failures)}" if failures else ""),
    )
    assert ok, line


def test_criterion_7_policy_degeneracy(tmp_path):
    t0 = time.perf_counter()
    cfg = mini_config(str(tmp_path / "runs"))
    off = replace(cfg, policy=DecisionPolicy(tau=2.0))
    result = run_single(off, excluded=1)
    log = read_prediction_log(Path(result.run_dir) / "preds.csv")
    identical = bool(np.array_equal(log.corrected_labels, log.base_labels))
    power = result.report.aggregate.power
    elapsed = time.perf_counter() - t0
    ok = identical and power == 1.0 and elapsed < 5.0
    line = stamp(
        7,
        ok,
        f"unreachable tau: corrected == base on all {log.base_labels.size} "
        f"samples, P = {power} ({elapsed:.1f}s < 5s)",
    )
    assert ok, line


def test_criterion_8_sweep_determinism(reference_sweep, tmp_path):
    cfg, sweep, elapsed6 = reference_sweep
    aside = tmp_path / "first_tree"
    shutil.copytree(sweep.root, aside)
    t0 = time.perf_counter()
    run_sweep(cfg, jobs=7)  # same config, same output tree, worker processes
    elapsed8 = time.perf_counter() - t0
    identical = trees_equal(aside, Path(sweep.root))
    ok = identical and (elapsed6 + elapsed8) < 1800.0
    line = stamp(
        8,
        ok,
        f"two sweeps from one master seed: report trees byte-identical="
        f"{identical} across {len(tree_files(aside))} files "
        f"({elapsed6:.0f}s + {elapsed8:.0f}s < 1800s)",
    )
    assert ok, line
