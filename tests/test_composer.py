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
from mclab.core import MAX_CLASSES
from mclab.corrector import CorrectorEnsemble, GbdtConfig, fit
from mclab.harness import ConfigError, normalize_config


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
    data = LabeledDataset(feats, labels, 3)
    model = StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 3), seed=6)
    _, latents, layout = forward_latents(model, data)
    return model, data, latents, layout


class TestPolicyValidation:
    """A policy checks its fields when it is built; the config document keeps
    ``tau`` in [0, 1] (``normalize_config``); the range of the run-time label
    is checked when the policy is applied."""

    def apply(self, policy: DecisionPolicy) -> Predictions:
        probs = np.full((1, 3), 1 / 3)
        return decide_batch(probs, probs, policy)

    def document_error(self, policy: dict) -> ConfigError:
        with pytest.raises(ConfigError) as err:
            normalize_config({"policy": policy})
        return err.value

    def test_defaults_need_excluded_label(self):
        with pytest.raises(ValueError, match="excluded_label"):
            self.apply(DecisionPolicy())
        self.apply(DecisionPolicy(excluded_label=2))

    def test_rejects_unknown_kind(self):
        # the paper's rule is the only one, so a document naming a kind is
        # rejected like any other field the schema does not have
        err = self.document_error({"kind": "excluded_only"})
        assert (err.path, err.message) == ("policy.kind", "unknown field")

    @pytest.mark.parametrize("field,value", [("tau", -0.1), ("tau", 1.5)])
    def test_rejects_out_of_range(self, field, value):
        DecisionPolicy(**{field: value})  # in code, it builds
        err = self.document_error({field: value})
        assert (err.path, err.message) == (f"policy.{field}", "must be in [0, 1]")

    @pytest.mark.parametrize("value", [1.7, 1.0, True, False, "1", float("nan")])
    def test_rejects_an_excluded_label_that_is_not_an_int(self, value):
        with pytest.raises(ConfigError) as err:
            DecisionPolicy(excluded_label=value)
        assert (err.value.path, err.value.message) == (
            "excluded_label", f"must be an int, not {value!r}")

    @pytest.mark.parametrize("field,value", [
        ("tau", "0.5"), ("tau", None), ("tau", True), ("tau", [0.5]), ("tau", float("nan")),
        ("as_new_class", "no"), ("as_new_class", 1), ("as_new_class", None),
        ("as_new_class", np.bool_(True)),
    ])
    def test_rejects_a_field_of_the_wrong_type(self, field, value):
        # a truthy string would emit the NEW_CLASS sentinel
        with pytest.raises(ConfigError) as err:
            DecisionPolicy(excluded_label=1, **{field: value})
        assert err.value.path == field

    @pytest.mark.parametrize("tau", [0, 1, 0.25, np.float32(0.5), np.int64(1), 2.0])
    def test_accepts_any_real_tau(self, tau):
        # above 1 the rule can never fire, which switches overrides off
        out = decide([0.6, 0.3, 0.1], [0.05, 0.9, 0.05], DecisionPolicy(tau=tau, excluded_label=1))
        assert out.overridden == (tau <= 0.9)

    def test_accepts_a_numpy_integer_label(self):
        label = np.int64(1)
        out = decide([0.6, 0.3, 0.1], [0.05, 0.9, 0.05], DecisionPolicy(excluded_label=label))
        assert out.corrected_label == 1 and out.overridden

    def test_field_problems_name_each_field_but_not_the_run_time_label(self):
        for policy, path in [({"tau": 1.5, "as_new_class": 1}, "policy.as_new_class"),
                             ({"tau": 1.5}, "policy.tau"),
                             ({"tau": "high"}, "policy.tau"),
                             ({"excluded_label": 2}, "policy.excluded_label")]:
            assert self.document_error(policy).path == path
        assert self.document_error({"excluded_label": 2}).message == "unknown field"
        assert normalize_config({}).policy.excluded_label is None


class TestDecision:
    def test_agreement_is_never_an_override(self):
        # the corrector names the excluded label, which the base predicts too
        p = DecisionPolicy(tau=0.0, excluded_label=0)
        out = decide([0.7, 0.2, 0.1], [0.8, 0.1, 0.1], p)
        assert out.base_label == out.corrected_label == 0
        assert not out.overridden

    def test_tau_boundary_is_inclusive(self):
        p = DecisionPolicy(tau=0.5, excluded_label=2)
        out = decide([0.7, 0.2, 0.1], [0.25, 0.25, 0.5], p)
        assert out.corrected_label == 2 and out.overridden

    def test_excluded_only_fires_on_confident_excluded_argmax(self):
        p = DecisionPolicy(tau=0.5, excluded_label=1)
        out = decide([0.6, 0.3, 0.1], [0.05, 0.9, 0.05], p)
        assert out.corrected_label == 1 and out.overridden

    def test_excluded_only_requires_excluded_argmax(self):
        # high excluded probability is not enough if another class wins
        p = DecisionPolicy(tau=0.3, excluded_label=1)
        out = decide([0.6, 0.3, 0.1], [0.55, 0.4, 0.05], p)
        assert not out.overridden

    def test_excluded_only_below_tau_blocks(self):
        p = DecisionPolicy(tau=0.5, excluded_label=1)
        out = decide([0.6, 0.3, 0.1], [0.3, 0.45, 0.25], p)
        assert not out.overridden

    def test_new_class_sentinel_replaces_excluded_label(self):
        p = DecisionPolicy(tau=0.5, excluded_label=1, as_new_class=True)
        out = decide([0.6, 0.3, 0.1], [0.05, 0.9, 0.05], p)
        assert out.corrected_label == NEW_CLASS
        assert out.corrected_label != 1  # sentinel and label branch are exclusive
        assert out.overridden

    def test_missing_excluded_label_raises(self):
        p = DecisionPolicy(excluded_label=None)
        with pytest.raises(ValueError, match="excluded_label"):
            decide([0.6, 0.4], [0.4, 0.6], p)

    def test_out_of_range_excluded_label_raises(self):
        p = DecisionPolicy(excluded_label=5)
        with pytest.raises(ValueError, match="outside"):
            decide([0.6, 0.3, 0.1], [0.3, 0.3, 0.4], p)

    def test_unknown_kind_raises_at_decision_time(self):
        # A policy has no kind, so one naming a kind is not built and no
        # decision is made.
        with pytest.raises(TypeError, match="kind"):
            decide([0.6, 0.4], [0.4, 0.6], DecisionPolicy(kind="oracle"))

    def test_overridden_flag_tracks_label_change(self):
        gen = np.random.default_rng(22)
        for _ in range(200):
            base = gen.dirichlet(np.ones(3))
            corr = gen.dirichlet(np.ones(3))
            p = DecisionPolicy(tau=float(gen.uniform(0, 1)),
                               excluded_label=int(gen.integers(0, 3)),
                               as_new_class=bool(gen.integers(0, 2)))
            out = decide(base, corr, p)
            assert out.overridden == (out.corrected_label != out.base_label)


def reference_label(base, corr, policy) -> int:
    """The policy written out for one sample with scalar Python logic."""
    exc = policy.excluded_label
    if int(np.argmax(corr)) == exc and float(corr[exc]) >= policy.tau:
        return NEW_CLASS if policy.as_new_class else exc
    return int(np.argmax(base))


POLICIES = [
    DecisionPolicy(tau=0.3, excluded_label=1),
    DecisionPolicy(tau=0.3, excluded_label=1, as_new_class=True),
]
# each fires wherever the corrector's argmax is its label, so together they
# put the corrector's argmax on every row
ANY_ARGMAX = [DecisionPolicy(tau=0.0, excluded_label=c) for c in range(3)]


class TestComposeBatch:
    @pytest.mark.parametrize("policy", POLICIES, ids=["excluded", "new_class"])
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
        # an ensemble fit in the model's own order composes, scoring each row as
        # predict_proba does
        own = fit(matrix, data.labels, GbdtConfig(n_rounds=5), layout=layout)
        preds = compose_batch(model, own, POLICIES[0], data)
        assert preds.corrector_probs.tobytes() == own.predict_proba(matrix).tobytes()

        def blocks(lay):
            return ",".join(f"{n}:{s}" for n, s in zip(lay.names, lay.sizes))

        # the message names the layout given and the fitted one, in their orders
        message = re.escape(f"latent layout stages {blocks(layout)} != fitted {blocks(order)}")
        with pytest.raises(ValueError, match=message):
            compose_batch(model, ens, POLICIES[0], data)

    def test_foreign_layout_raises_like_the_records_path(self, small_world):
        # compose_batch fails as align does on a matrix with foreign stage names
        model, data, latents, layout = small_world
        ens = fit(latents, data.labels, GbdtConfig(n_rounds=2), layout=layout)
        preds = compose_batch(model, ens, POLICIES[0], data)
        assert preds.corrector_probs.tobytes() == ens.predict_proba(latents).tobytes()
        foreign = LatentLayout(("a", "b", "c", "d", "e"), ens.layout.sizes)
        ens = replace(ens, layout=foreign)
        with pytest.raises(ValueError, match="latent layout stages"):
            ens.align(latents, layout)
        with pytest.raises(ValueError, match="latent layout stages"):
            compose_batch(model, ens, POLICIES[0], data)

    def test_streamed_blocks_equal_one_unstreamed_pass(self, small_world):
        model, data, latents, layout = small_world
        ens = fit(latents, data.labels, GbdtConfig(n_rounds=5), layout=layout)
        n = 2 * STREAM_BLOCK + 300
        gen = np.random.default_rng(26)
        big = LabeledDataset(gen.standard_normal((n, 64)).astype(np.float32),
                             gen.integers(0, 3, size=n), data.n_classes)
        policy = POLICIES[0]
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
        corr_probs = ens.predict_proba(latents)
        assert np.array_equal(corr_probs.argmax(axis=1), base_labels)
        for policy in ANY_ARGMAX:
            batch = compose_batch(model, ens, policy, data)
            assert batch.corrector_probs.tobytes() == corr_probs.tobytes()
            assert sum(p.overridden for p in batch) == 0

    def test_unreachable_tau_reduces_to_base(self, small_world):
        model, data, latents, layout = small_world
        ens = fit(latents, data.labels, GbdtConfig(n_rounds=10), layout=layout)
        policy = DecisionPolicy(tau=2.0, excluded_label=1)
        batch = compose_batch(model, ens, policy, data)
        base_labels, _ = predict_batch(model, data)
        assert all(not p.overridden for p in batch)
        assert np.array_equal([p.corrected_label for p in batch], base_labels)

    def test_raising_tau_never_adds_overrides(self, small_world):
        model, data, latents, layout = small_world
        ens = fit(latents, data.labels, GbdtConfig(n_rounds=10), layout=layout)
        counts = []
        for tau in np.linspace(0.0, 1.0, 11):
            policy = DecisionPolicy(tau=float(tau),
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
        rows = text.splitlines()[2:]
        assert [row.split(",")[4] for row in rows] == [str(int(p.overridden)) for p in preds]

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
    # row 1 keeps its base label 2, row 3 changes 0 to 2
    "override_without_change": (lambda ls: _set_cell(ls, 3, 4, "1"), 3,
                                "overridden 1 with base 2 and corrected 2$"),
    "change_without_override": (lambda ls: _set_cell(ls, 5, 4, "0"), 5,
                                "overridden 0 with base 0 and corrected 2$"),
    "nan_confidence": (lambda ls: _set_cell(ls, 4, 5, "nan"), 4, r"base_conf nan outside \[0, 1\]"),
    "confidence_above_one": (lambda ls: _set_cell(ls, 2, 6, "7.5"), 2,
                             r"corr_conf 7\.5 outside \[0, 1\]"),
    "empty": (lambda ls: [], 0, "empty prediction log"),
    "true_out_of_range": (lambda ls: _set_cell(ls, 3, 1, "3"), 3, r"true 3 outside \[0, 3\)"),
    "base_negative": (lambda ls: _set_cell(ls, 2, 2, "-1"), 2, r"base -1 outside \[0, 3\)"),
    "corrected_below_sentinel": (lambda ls: _set_cell(ls, 5, 3, "-2"), 5,
                                 r"corrected -2 outside \[-1, 3\)"),
    "non_ascii": (lambda ls: _set_cell(ls, 4, 6, "0.5\u00e9"), 4, "non-ASCII byte 0xc3"),
    "no_k_line": (lambda ls: ls[1:], 0, "K=<classes>"),
    "huge_label": (lambda ls: _set_cell(ls, 3, 1, "1" * 20), 3,
                   r"true 1{20} outside \[0, 3\)"),
    "huge_k": (lambda ls: ["# mclab-preds v1 K=300000000"] + ls[1:], 0,
               "K=300000000 exceeds the ceiling of 65536 classes"),
    "huge_k_digits": (lambda ls: ["# mclab-preds v1 K=" + "9" * 5000] + ls[1:], 0,
                      "exceeds the ceiling of 65536 classes"),
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

    def test_k_at_the_ceiling_loads(self, tmp_path, lines):
        path = tmp_path / "preds.csv"
        path.write_text("\n".join([f"# mclab-preds v1 K={MAX_CLASSES}"] + lines[1:]) + "\n")
        assert read_prediction_log(path).n_classes == MAX_CLASSES
