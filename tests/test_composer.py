"""Decision-policy composition: when the corrector's verdict replaces the
base prediction, the sentinel branch, and the prediction log format.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from mclab.basemodel import (
    LabeledDataset,
    LatentLayout,
    ModelConfig,
    StagedModel,
    forward_latents,
    predict_batch,
)
from mclab.composer import (
    NEW_CLASS,
    STREAM_BLOCK,
    CorrectedPrediction,
    DecisionPolicy,
    Predictions,
    compose_batch,
    decide_batch,
    read_prediction_log,
    write_prediction_log,
)
from mclab.corrector import CorrectorEnsemble, GbdtConfig, fit


def stub_ensemble(probs) -> CorrectorEnsemble:
    """Treeless ensemble that emits a fixed posterior for every input.

    softmax(log p) reproduces p bit-for-bit up to normalization, so the
    corrector side of a decision can be pinned to any chosen simplex.
    """
    p = np.asarray(probs, dtype=np.float64)
    return CorrectorEnsemble(
        config=GbdtConfig(), n_classes=p.size, n_features=4,
        base_score=np.log(p), trees=[], layout=None,
        feature_importance_=np.zeros(4), loss_curve=[],
    )


def decide(base_probs, corr_probs, policy) -> CorrectedPrediction:
    """The policy on one sample: a one-row batch, with the corrector's
    posterior passed through the stub ensemble."""
    corr = stub_ensemble(corr_probs).predict_proba(np.zeros((1, 4)))
    (row,) = decide_batch(np.asarray(base_probs, dtype=np.float64)[None], corr, policy)
    return row


@pytest.fixture(scope="module")
def small_world():
    """Random-init 3-class model, 40 random samples, their latent matrix and
    its layout."""
    gen = np.random.default_rng(21)
    feats = gen.standard_normal((40, 64)).astype(np.float32)
    labels = gen.integers(0, 3, size=40)
    data = LabeledDataset(feats, labels, ("A", "B", "C"))
    model = StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 1, 3), seed=6)
    _, latents, layout = forward_latents(model, data)
    return model, data, latents, layout


class TestPolicyValidation:
    def test_defaults_need_excluded_label(self):
        with pytest.raises(ValueError, match="excluded_label"):
            DecisionPolicy().validate()
        DecisionPolicy(excluded_label=2).validate()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            DecisionPolicy(kind="majority_vote").validate()

    @pytest.mark.parametrize("field,value", [("tau", -0.1), ("tau", 1.5),
                                             ("base_confidence_floor", 2.0)])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            DecisionPolicy(kind="always_corrector", **{field: value}).validate()

    def test_field_problems_name_each_field_but_not_the_run_time_label(self):
        bad = DecisionPolicy(kind="vote", tau=1.5, base_confidence_floor=-0.1)
        assert [key for key, _ in bad.field_problems()] == [
            "kind", "tau", "base_confidence_floor"]
        assert DecisionPolicy().field_problems() == []  # excluded_label unset


class TestDecision:
    def test_agreement_is_never_an_override(self):
        for kind in ("always_corrector", "threshold_override", "excluded_only"):
            p = DecisionPolicy(kind=kind, tau=0.0, excluded_label=0)
            out = decide([0.7, 0.2, 0.1], [0.8, 0.1, 0.1], p)
            assert out.base_label == out.corrected_label == 0
            assert not out.overridden

    def test_always_corrector_takes_corrector_argmax(self):
        out = decide([0.7, 0.2, 0.1], [0.1, 0.1, 0.8],
                     DecisionPolicy(kind="always_corrector"))
        assert out.corrected_label == 2
        assert out.overridden

    def test_threshold_override_fires_on_unsure_base(self):
        p = DecisionPolicy(kind="threshold_override", tau=0.5)
        out = decide([0.5, 0.3, 0.2], [0.05, 0.05, 0.9], p)
        assert out.corrected_label == 2 and out.overridden

    def test_confident_base_is_never_overridden(self):
        p = DecisionPolicy(kind="threshold_override", tau=0.0)
        out = decide([0.95, 0.04, 0.01], [0.0001, 0.0001, 0.9998], p)
        assert out.corrected_label == 0 and not out.overridden

    def test_threshold_override_needs_sure_corrector(self):
        p = DecisionPolicy(kind="threshold_override", tau=0.5)
        out = decide([0.5, 0.3, 0.2], [0.4, 0.35, 0.25], p)
        assert not out.overridden

    def test_floor_boundary_is_exclusive(self):
        # base max exactly at the floor counts as confident
        p = DecisionPolicy(kind="threshold_override", tau=0.1, base_confidence_floor=0.6)
        out = decide([0.6, 0.2, 0.2], [0.1, 0.1, 0.8], p)
        assert not out.overridden

    def test_tau_boundary_is_inclusive(self):
        p = DecisionPolicy(kind="excluded_only", tau=0.5, excluded_label=2)
        out = decide([0.7, 0.2, 0.1], [0.25, 0.25, 0.5], p)
        assert out.corrected_label == 2 and out.overridden

    def test_excluded_only_fires_on_confident_excluded_argmax(self):
        p = DecisionPolicy(kind="excluded_only", tau=0.5, excluded_label=1)
        out = decide([0.6, 0.3, 0.1], [0.05, 0.9, 0.05], p)
        assert out.corrected_label == 1 and out.overridden

    def test_excluded_only_requires_excluded_argmax(self):
        # high excluded probability is not enough if another class wins
        p = DecisionPolicy(kind="excluded_only", tau=0.3, excluded_label=1)
        out = decide([0.6, 0.3, 0.1], [0.55, 0.4, 0.05], p)
        assert not out.overridden

    def test_excluded_only_below_tau_blocks(self):
        p = DecisionPolicy(kind="excluded_only", tau=0.5, excluded_label=1)
        out = decide([0.6, 0.3, 0.1], [0.3, 0.45, 0.25], p)
        assert not out.overridden

    def test_new_class_sentinel_replaces_excluded_label(self):
        p = DecisionPolicy(kind="excluded_only", tau=0.5, excluded_label=1,
                           as_new_class=True)
        out = decide([0.6, 0.3, 0.1], [0.05, 0.9, 0.05], p)
        assert out.corrected_label == NEW_CLASS
        assert out.corrected_label != 1  # sentinel and label branch are exclusive
        assert out.overridden

    def test_missing_excluded_label_raises(self):
        p = DecisionPolicy(kind="excluded_only", excluded_label=None)
        with pytest.raises(ValueError, match="excluded_label"):
            decide([0.6, 0.4], [0.4, 0.6], p)

    def test_out_of_range_excluded_label_raises(self):
        p = DecisionPolicy(kind="excluded_only", excluded_label=5)
        with pytest.raises(ValueError, match="outside"):
            decide([0.6, 0.3, 0.1], [0.3, 0.3, 0.4], p)

    def test_unknown_kind_raises_at_decision_time(self):
        p = DecisionPolicy(kind="oracle")
        with pytest.raises(ValueError, match="kind"):
            decide([0.6, 0.4], [0.4, 0.6], p)

    def test_overridden_flag_tracks_label_change(self):
        gen = np.random.default_rng(22)
        for _ in range(200):
            base = gen.dirichlet(np.ones(3))
            corr = gen.dirichlet(np.ones(3))
            kind = ("always_corrector", "threshold_override", "excluded_only")[
                gen.integers(0, 3)
            ]
            p = DecisionPolicy(kind=kind, tau=float(gen.uniform(0, 1)),
                               excluded_label=int(gen.integers(0, 3)))
            out = decide(base, corr, p)
            assert out.overridden == (out.corrected_label != out.base_label)


def reference_label(base, corr, policy) -> int:
    """The policy written out for one sample with scalar Python logic."""
    base_label = int(np.argmax(base))
    corr_label = int(np.argmax(corr))
    if policy.kind == "always_corrector":
        return corr_label
    if policy.kind == "threshold_override":
        fire = float(base.max()) < policy.base_confidence_floor and float(corr.max()) >= policy.tau
        return corr_label if fire else base_label
    exc = policy.excluded_label
    if corr_label == exc and float(corr[exc]) >= policy.tau:
        return NEW_CLASS if policy.as_new_class else exc
    return base_label


POLICIES = [
    DecisionPolicy(kind="always_corrector"),
    DecisionPolicy(kind="threshold_override", tau=0.3),
    DecisionPolicy(kind="excluded_only", tau=0.3, excluded_label=1),
    DecisionPolicy(kind="excluded_only", tau=0.3, excluded_label=1, as_new_class=True),
]


class TestComposeBatch:
    @pytest.mark.parametrize("policy", POLICIES,
                             ids=["always", "threshold", "excluded", "new_class"])
    def test_matches_per_sample_recomputation(self, small_world, policy):
        model, data, latents, layout = small_world
        ens = fit(latents, data.labels, GbdtConfig(n_rounds=5), layout=layout)
        batch = compose_batch(model, ens, policy, data)
        assert len(batch) == len(data)

        _, base_probs = predict_batch(model, data)
        corr_probs = ens.predict_proba(latents)
        assert sum(p.overridden for p in batch) > 0  # the policy fires somewhere
        for i, out in enumerate(batch):
            assert np.array_equal(out.base_probs, base_probs[i])
            assert np.array_equal(out.corrector_probs, corr_probs[i])
            want = reference_label(base_probs[i], corr_probs[i], policy)
            assert out.base_label == int(np.argmax(base_probs[i]))
            assert out.corrected_label == want
            assert out.overridden == (want != out.base_label)
            assert (out.base_label, out.corrected_label, out.overridden) == (
                batch.base_labels[i], batch.corrected_labels[i], batch.overridden[i])
            assert isinstance(out, CorrectedPrediction) and type(out.base_label) is int

    def test_rejects_an_ensemble_fit_in_another_block_order(self, small_world):
        model, data, matrix, layout = small_world
        order = LatentLayout(tuple(reversed(layout.names)), tuple(reversed(layout.sizes)))
        reordered = np.concatenate(
            [matrix[:, layout.block_slice(name)] for name in order.names], axis=1)
        ens = fit(reordered, data.labels, GbdtConfig(n_rounds=5), layout=order)

        def blocks(lay):
            return ",".join(f"{n}:{s}" for n, s in zip(lay.names, lay.sizes))

        # the message names the layout given and the fitted one, in their orders
        message = re.escape(f"latent layout stages {blocks(layout)} != fitted {blocks(order)}")
        with pytest.raises(ValueError, match=message):
            compose_batch(model, ens, DecisionPolicy(kind="always_corrector"), data)

    def test_foreign_layout_raises_like_the_records_path(self, small_world):
        # compose_batch fails as align does on a matrix with foreign stage names
        model, data, latents, layout = small_world
        ens = fit(latents, data.labels, GbdtConfig(n_rounds=2), layout=layout)
        foreign = LatentLayout(("a", "b", "c", "d", "e"), ens.layout.sizes)
        ens = replace(ens, layout=foreign)
        with pytest.raises(ValueError, match="latent layout stages"):
            ens.align(latents, layout)
        with pytest.raises(ValueError, match="latent layout stages"):
            compose_batch(model, ens, DecisionPolicy(kind="always_corrector"), data)

    def test_streamed_blocks_equal_one_unstreamed_pass(self, small_world):
        model, data, latents, layout = small_world
        ens = fit(latents, data.labels, GbdtConfig(n_rounds=5), layout=layout)
        n = 2 * STREAM_BLOCK + 300
        gen = np.random.default_rng(26)
        big = LabeledDataset(gen.standard_normal((n, 64)).astype(np.float32),
                             gen.integers(0, 3, size=n), data.names)
        policy = POLICIES[2]
        base_probs, matrix, layout = forward_latents(model, big)
        corr_probs = ens.predict_proba(ens.align(matrix, layout))
        want = decide_batch(base_probs, corr_probs, policy)
        got = compose_batch(model, ens, policy, big)
        for name in ("base_labels", "corrected_labels", "overridden", "base_probs",
                     "corrector_probs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.overridden.sum() > 0
        assert np.array_equal(got.base_probs, base_probs)
        assert np.array_equal(got.corrector_probs, corr_probs)

    def test_no_policy_keeps_every_base_label(self):
        base = np.random.default_rng(24).dirichlet(np.ones(3), size=6)
        preds = decide_batch(base, np.zeros_like(base), None)
        assert [p.corrected_label for p in preds] == base.argmax(axis=1).tolist()
        assert not any(p.overridden for p in preds)

    def test_corrector_mirroring_base_never_overrides(self, small_world):
        model, data, latents, layout = small_world
        base_labels, _ = predict_batch(model, data)
        # teach the corrector to reproduce the base verdicts exactly
        ens = fit(latents, base_labels, GbdtConfig(n_rounds=30), n_classes=3, layout=layout)
        corr_labels = ens.predict_proba(latents).argmax(axis=1)
        assert np.array_equal(corr_labels, base_labels)
        batch = compose_batch(
            model, ens, DecisionPolicy(kind="always_corrector"), data
        )
        assert sum(p.overridden for p in batch) == 0

    def test_unreachable_tau_reduces_to_base(self, small_world):
        model, data, latents, layout = small_world
        ens = fit(latents, data.labels, GbdtConfig(n_rounds=10), layout=layout)
        policy = DecisionPolicy(kind="excluded_only", tau=2.0, excluded_label=1)
        batch = compose_batch(model, ens, policy, data)
        base_labels, _ = predict_batch(model, data)
        assert all(not p.overridden for p in batch)
        assert np.array_equal([p.corrected_label for p in batch], base_labels)

    def test_raising_tau_never_adds_overrides(self, small_world):
        model, data, latents, layout = small_world
        ens = fit(latents, data.labels, GbdtConfig(n_rounds=10), layout=layout)
        counts = []
        for tau in np.linspace(0.0, 1.0, 11):
            policy = DecisionPolicy(kind="excluded_only", tau=float(tau),
                                    excluded_label=0)
            batch = compose_batch(model, ens, policy, data)
            counts.append(sum(p.overridden for p in batch))
        assert counts[0] > 0  # tau 0 fires whenever the argmax is the label
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestPredictionLog:
    def make_preds(self, n=12, k=3, seed=23, with_sentinel=True):
        gen = np.random.default_rng(seed)
        base = gen.dirichlet(np.ones(k), size=n)
        corr = gen.dirichlet(np.ones(k), size=n)
        base_labels = base.argmax(axis=1)
        corrected = np.where(np.arange(n) % 3 == 0, corr.argmax(axis=1), base_labels)
        if with_sentinel:
            corrected[0] = NEW_CLASS
        preds = Predictions(base_labels, corrected, corrected != base_labels, base, corr)
        true = gen.integers(0, k, size=n)
        return preds, true

    def test_round_trip(self, tmp_path):
        preds, true = self.make_preds()
        path = tmp_path / "preds.csv"
        write_prediction_log(preds, true, 3, path)

        text = path.read_text()
        assert text.startswith("# mclab-preds v1 K=3\n")
        assert text.splitlines()[1] == (
            "sample_id,true,base,corrected,overridden,base_conf,corr_conf"
        )

        log = read_prediction_log(path)
        assert log.n_classes == 3
        np.testing.assert_array_equal(log.true_labels, true)
        np.testing.assert_array_equal(log.base_labels, [p.base_label for p in preds])
        np.testing.assert_array_equal(
            log.corrected_labels, [p.corrected_label for p in preds]
        )
        np.testing.assert_array_equal(log.overridden, [p.overridden for p in preds])
        np.testing.assert_allclose(
            log.base_conf, [p.base_probs.max() for p in preds], atol=5e-7
        )
        np.testing.assert_allclose(
            log.corr_conf, [p.corrector_probs.max() for p in preds], atol=5e-7
        )

    def test_confidence_columns_are_per_row_maxima(self, tmp_path):
        preds, true = self.make_preds(n=30)
        path = tmp_path / "preds.csv"
        write_prediction_log(preds, true, 3, path)
        rows = path.read_text().splitlines()[2:]
        for row, p in zip(rows, preds):
            assert row.split(",")[5:] == [f"{p.base_probs.max():.6f}",
                                          f"{p.corrector_probs.max():.6f}"]

    def test_sentinel_survives_round_trip(self, tmp_path):
        preds, true = self.make_preds()
        path = tmp_path / "preds.csv"
        write_prediction_log(preds, true, 3, path)
        log = read_prediction_log(path)
        assert log.corrected_labels[0] == NEW_CLASS

    def test_misaligned_true_labels_raise(self, tmp_path):
        preds, true = self.make_preds()
        with pytest.raises(ValueError, match="align"):
            write_prediction_log(preds, true[:-1], 3, tmp_path / "p.csv")

    def test_rejects_foreign_and_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# some-other-tool v9 K=3\nsample_id\n")
        with pytest.raises(ValueError, match="header"):
            read_prediction_log(bad)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_prediction_log(empty)
        noheader = tmp_path / "noheader.csv"
        noheader.write_text("# mclab-preds v1 K=3\nwrong,columns\n")
        with pytest.raises(ValueError, match="column header"):
            read_prediction_log(noheader)


def _set_cell(lines: list[str], row: int, cell: int, value: str) -> list[str]:
    cells = lines[row].split(",")
    cells[cell] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


# edits of a 4-row log, with the 0-based index of the line each must be
# rejected at, and the message
MALFORMED_LOGS = {
    "header_only": (lambda ls: ls[:1], 1, "missing column header"),
    "no_rows": (lambda ls: ls[:2], 1, "no prediction rows"),
    "truncated_row": (lambda ls: ls[:-1] + [ls[-1][:5]], 5, "expected 7 cells, found 3"),
    "extra_field": (lambda ls: _set_cell(ls, 3, 6, "0.5,0.5"), 3, "expected 7 cells, found 8"),
    "bad_k": (lambda ls: ["# mclab-preds v1 K=three"] + ls[1:], 0, "K=<classes>"),
    "zero_k": (lambda ls: ["# mclab-preds v1 K=0"] + ls[1:], 0, "K=<classes>"),
    "sample_id_gap": (lambda ls: _set_cell(ls, 4, 0, "3"), 4, "sample_id 3, expected 2"),
    "bad_int": (lambda ls: _set_cell(ls, 2, 2, "x"), 2, "base 'x' is not an int"),
    "bad_float": (lambda ls: _set_cell(ls, 3, 5, "high"), 3, "base_conf 'high' is not a float"),
    "overridden_flag": (lambda ls: _set_cell(ls, 2, 4, "2"), 2, "overridden 2, expected 0 or 1"),
    "empty": (lambda ls: [], 0, "empty prediction log"),
    "true_out_of_range": (lambda ls: _set_cell(ls, 3, 1, "3"), 3, r"true 3 outside \[0, 3\)"),
    "base_negative": (lambda ls: _set_cell(ls, 2, 2, "-1"), 2, r"base -1 outside \[0, 3\)"),
    "corrected_below_sentinel": (lambda ls: _set_cell(ls, 5, 3, "-2"), 5,
                                 r"corrected -2 outside \[-1, 3\)"),
    "non_ascii": (lambda ls: _set_cell(ls, 4, 6, "0.5\u00e9"), 4, "non-ASCII byte 0xc3"),
    "no_k_line": (lambda ls: ls[1:], 0, "K=<classes>"),
    "huge_label": (lambda ls: _set_cell(ls, 3, 1, "1" * 20), 3,
                   r"true 1{20} outside \[0, 3\)"),
}


class TestPredictionLogRejections:
    @pytest.fixture(scope="class")
    def lines(self, tmp_path_factory):
        preds, true = TestPredictionLog().make_preds(n=4)
        path = tmp_path_factory.mktemp("log") / "preds.csv"
        write_prediction_log(preds, true, 3, path)
        return path.read_text().splitlines()

    @pytest.mark.parametrize("case", sorted(MALFORMED_LOGS))
    def test_error_names_path_and_line(self, tmp_path, lines, case):
        edit, at, message = MALFORMED_LOGS[case]
        path = tmp_path / "preds.csv"
        edited = edit(list(lines))
        path.write_text("\n".join(edited) + "\n" if edited else "", encoding="utf-8")
        with pytest.raises(ValueError, match=message) as err:
            read_prediction_log(path)
        assert str(err.value).startswith(f"{path}: line {at + 1}: ")

    def test_unedited_log_loads(self, tmp_path, lines):
        path = tmp_path / "preds.csv"
        path.write_text("\n".join(lines) + "\n")
        assert read_prediction_log(path).true_labels.size == 4
