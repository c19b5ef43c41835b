"""Model-level checks: forward contract, weighted loss, composed gradients,
early stopping, latents, and checkpoint io.

Expected values are computed in the tests themselves (closed forms or brute
force); the composed gradient check uses the same central finite-difference
oracle as the stage tests.
"""

from __future__ import annotations

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mclab import basemodel
from mclab.basemodel import (
    LatentLayout,
    ModelConfig,
    StagedModel,
    TrainConfig,
    extract_latents,
    forward_latents,
    load_model,
    predict_batch,
    save_model,
    stack_latents,
    train,
    weighted_ce_loss,
)
from mclab.core import LabeledDataset, Rng, SplitSpec, class_weights, split_dataset
from mclab.datagen import ProfileConfig, generate_gaussian

from test_stages import TOL, central_diff, max_rel_err

SMALL = ModelConfig(input_shape=(1, 8, 8), conv_channels=(2, 2, 4), n_classes=3)

FEAR_WEIGHT = 7669 / 166  # majority-to-minority count ratio of the reference corpus


def init_rng(seed: int) -> Rng:
    """The stream of a test model's initial weights, one per test seed."""
    return Rng.from_seed(seed).derive("init")


def train_rng(seed: int) -> Rng:
    """The stream of a test training run's shuffles and dropout masks."""
    return Rng.from_seed(seed).derive("train")


def blob_dataset(n_per: int, centers: np.ndarray, seed: int, scale: float = 0.5) -> LabeledDataset:
    """K well-separated Gaussian blobs in dimension 64, shuffled."""
    gen = np.random.default_rng(seed)
    k, dim = centers.shape
    feats = np.concatenate(
        [gen.standard_normal((n_per, dim)) * scale + centers[i] for i in range(k)]
    )
    labels = np.repeat(np.arange(k), n_per)
    perm = gen.permutation(k * n_per)
    return LabeledDataset(feats[perm].astype(np.float32), labels[perm], k)


@pytest.fixture(scope="module")
def two_class_data():
    centers = np.zeros((2, 64))
    centers[1, 0] = 8.0
    return blob_dataset(60, centers, seed=7)


@pytest.fixture(scope="module")
def trained_two_class(two_class_data):
    model = StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 2), init_rng(0))
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=8, patience=10,
                      dropout_p=0.0)
    val = two_class_data.subset(np.arange(0, 120, 4))
    tr = two_class_data.subset(np.setdiff1d(np.arange(120), np.arange(0, 120, 4)))
    model, history = train(model, tr, val, np.ones(2), cfg, train_rng(0))
    return model, history, tr


class TestModelConfig:
    def test_defaults_validate(self):
        ModelConfig()

    def test_width_and_sequence_arithmetic(self):
        cfg = ModelConfig()
        assert cfg.width == 16
        assert cfg.conv_out_shape == (16, 1, 1)
        big = ModelConfig(input_shape=(1, 16, 16), conv_channels=(2, 2, 4), n_classes=3)
        assert big.conv_out_shape == (4, 2, 2)

    def test_rejects_input_that_pools_away(self):
        with pytest.raises(ValueError, match="pool"):
            ModelConfig(input_shape=(1, 4, 4))

    def test_rejects_wrong_block_count_and_class_count(self):
        with pytest.raises(ValueError, match="three"):
            ModelConfig(conv_channels=(4, 8))
        with pytest.raises(ValueError, match="two classes"):
            ModelConfig(n_classes=1)


class TestWeightedCeLoss:
    def test_uniform_probabilities_give_log_k(self):
        probs = np.full(7, 1.0 / 7.0)
        assert weighted_ce_loss(probs, 3, np.ones(7)) == pytest.approx(math.log(7), abs=1e-12)
        assert weighted_ce_loss(probs, 3, np.ones(7)) == pytest.approx(1.9459, abs=1e-4)

    def test_perfect_prediction_gives_zero(self):
        probs = np.zeros(4)
        probs[2] = 1.0
        assert weighted_ce_loss(probs, 2, np.ones(4)) == 0.0

    def test_minority_weight_scales_loss(self):
        # half-confidence on the rarest class of the reference corpus
        probs = np.array([0.5, 0.5])
        w = np.array([1.0, FEAR_WEIGHT])
        loss = weighted_ce_loss(probs, 1, w)
        assert loss == pytest.approx(FEAR_WEIGHT * math.log(2), rel=1e-12)
        assert loss == pytest.approx(32.02, abs=0.01)

    def test_log_clamped_at_floor(self):
        probs = np.array([1.0, 0.0])
        assert weighted_ce_loss(probs, 1, np.ones(2)) == pytest.approx(-math.log(1e-12))

    def test_unit_weights_equal_unweighted(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            z = gen.standard_normal(5)
            p = np.exp(z) / np.exp(z).sum()
            y = int(gen.integers(5))
            assert weighted_ce_loss(p, y, np.ones(5)) == -float(np.log(p[y]))

    @pytest.mark.parametrize("dropout_p", [0.0, 0.5])
    def test_training_loss_is_the_batch_mean_of_the_per_sample_loss(self, dropout_p):
        # the loss training minimises divides the weighted sum by the batch
        # size, not by the sum of the picked weights
        gen = np.random.default_rng(31)
        model = StagedModel(ModelConfig(n_classes=7), init_rng(4))
        x = gen.standard_normal((37, 1, 8, 8))
        y = gen.integers(0, 7, size=37)
        w = np.array([0.0, 0.4, 1.0, 2.5, 7.0, 15.0, 40.0])
        loss, _ = model.loss_and_grads(x, y, w, dropout_p, np.random.default_rng(5))
        probs = model.forward_batch(x, dropout_p, np.random.default_rng(5))["probs"]
        per_sample = [weighted_ce_loss(p, label, w) for p, label in zip(probs, y)]
        assert loss == pytest.approx(float(np.mean(per_sample)), rel=1e-12)
        assert loss != pytest.approx(sum(per_sample) / w[y].sum(), rel=1e-3)


class TestForward:
    def test_probabilities_form_simplex_over_many_parameter_sets(self):
        # 1000 fresh random parameter sets, one random input each
        gen = np.random.default_rng(42)
        for seed in range(1000):
            model = StagedModel(SMALL, init_rng(seed))
            fwd = model.forward_batch(gen.standard_normal((1, 1, 8, 8)))
            p = fwd["probs"]
            assert np.all(p >= 0)
            assert float(p.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_zero_parameters_give_uniform_probabilities(self):
        model = StagedModel(ModelConfig(), init_rng(0))
        for _, param in model.params():
            param[...] = 0.0
        fwd = model.forward_batch(np.random.default_rng(0).standard_normal((3, 1, 8, 8)))
        np.testing.assert_array_equal(fwd["probs"], np.full((3, 7), 1.0 / 7.0))

    def test_single_position_attention_weight_is_one(self):
        model = StagedModel(ModelConfig(), init_rng(1))
        fwd = model.forward_batch(np.random.default_rng(1).standard_normal((2, 1, 8, 8)))
        attn = fwd["caches"][2][4]
        assert attn.shape == (2, 1, 1)
        assert np.all(attn == 1.0)

    def test_forward_is_deterministic_without_dropout(self):
        model = StagedModel(SMALL, init_rng(2))
        x = np.random.default_rng(2).standard_normal((4, 1, 8, 8))
        a = model.forward_batch(x)["probs"]
        b = model.forward_batch(x)["probs"]
        np.testing.assert_array_equal(a, b)

    def test_flat_features_reshape_when_sizes_match(self):
        model = StagedModel(SMALL, init_rng(3))
        x = np.random.default_rng(3).standard_normal((2, 64))
        a = model.forward_batch(x)["probs"]
        b = model.forward_batch(x.reshape(2, 1, 8, 8))["probs"]
        np.testing.assert_array_equal(a, b)

    def test_the_rng_is_the_only_source_of_weights(self):
        # no seed argument that a given rng would silently override, and no default stream
        with pytest.raises(TypeError):
            StagedModel(SMALL, rng=init_rng(0), seed=5)
        with pytest.raises(TypeError):
            StagedModel(SMALL)
        a, b = StagedModel(SMALL, init_rng(3)), StagedModel(SMALL, init_rng(3))
        assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(a.params(), b.params()))

    def test_rejects_incompatible_shape(self):
        model = StagedModel(SMALL, init_rng(0))
        with pytest.raises(ValueError, match="incompatible"):
            model.forward_batch(np.zeros((2, 63)))


class TestComposedGradients:
    # The cross-entropy loss is evaluated through the whole pipeline, so the
    # finite-difference quotient carries more rounding noise than the single
    # stage checks. At 1e-5 the worst elements are noise-limited (~1.2e-4 and
    # still shrinking as the step grows through 3e-4); 1e-4 sits well inside
    # the noise/truncation trade-off with measured error ~1.4e-5.
    COMPOSED_EPS = 1e-4

    def test_full_model_matches_finite_differences(self):
        # default-shaped input: the conv stack pools 8x8 down to one position
        for seed in range(10):
            gen = np.random.default_rng(seed)
            model = StagedModel(SMALL, init_rng(seed))
            x = gen.standard_normal((3, 1, 8, 8))
            y = gen.integers(0, 3, size=3)
            w = np.array([0.5, 1.0, 2.0])

            def loss():
                return model.loss_and_grads(x, y, w)[0]

            _, grads = model.loss_and_grads(x, y, w)
            for name, param in model.params():
                fd = central_diff(loss, param, eps=self.COMPOSED_EPS)
                assert max_rel_err(grads[name], fd) < TOL, f"{name} seed {seed}"

    def test_full_model_with_real_sequence_matches_finite_differences(self):
        # 16x16 input leaves a 2x2 grid, so attention mixes four positions;
        # the key bias is gauge (see test_stages) and is checked against zero.
        # Seeds are pinned to draws with no reachable ReLU kink: zero-init
        # biases plus fully dead receptive patches put some pre-activations at
        # exactly 0.0, where the loss is one-sidedly kinked and central
        # differences measure the subgradient average instead of relu'(0) = 0.
        cfg = ModelConfig((1, 16, 16), (2, 2, 4), 3)
        for seed in (0, 3):
            gen = np.random.default_rng(50 + seed)
            model = StagedModel(cfg, init_rng(seed))
            x = gen.standard_normal((2, 1, 16, 16))
            y = gen.integers(0, 3, size=2)
            w = np.ones(3)

            def loss():
                return model.loss_and_grads(x, y, w)[0]

            _, grads = model.loss_and_grads(x, y, w)
            for name, param in model.params():
                fd = central_diff(loss, param, eps=self.COMPOSED_EPS)
                if name == "attn.bk":
                    assert float(np.max(np.abs(grads[name]))) < 1e-9
                    assert float(np.max(np.abs(fd))) < 1e-9
                else:
                    assert max_rel_err(grads[name], fd) < TOL, f"{name} seed {seed}"

    @pytest.mark.parametrize("batch", [1, 17, 64])
    def test_skipped_input_gradient_leaves_every_gradient_byte_identical(self, batch, monkeypatch):
        # loss_and_grads asks the conv stage for no input gradient; the same
        # step with the full conv backward (input gradient computed and
        # discarded) must give the same bytes for the loss and every gradient
        model = StagedModel(ModelConfig(), init_rng(batch))
        gen = np.random.default_rng(batch)
        x = gen.standard_normal((batch, 1, 8, 8))
        y = gen.integers(0, 7, size=batch)
        w = gen.uniform(0.5, 40.0, size=7)
        loss, grads = model.loss_and_grads(x, y, w, 0.5, np.random.default_rng(3))

        full_backward = model.conv.backward
        seen = []

        def backward_with_input_grad(dout, cache, **_):
            dx, conv_grads = full_backward(dout, cache)
            seen.append(dx.shape)
            return dx, conv_grads

        monkeypatch.setattr(model.conv, "backward", backward_with_input_grad)
        full_loss, full_grads = model.loss_and_grads(x, y, w, 0.5, np.random.default_rng(3))
        assert seen == [(batch, 1, 8, 8)]
        assert full_loss == loss
        assert list(grads) == list(full_grads)
        for name in grads:
            assert grads[name].tobytes() == full_grads[name].tobytes(), name

    def test_default_geometry_leaves_1840_parameters_untrained(self):
        # the default 8x8 input pools down to T = 1 position. The one key gets
        # attention weight 1, so the query and key weights and biases get no
        # gradient; the one LSTM step starts from a zero state with a zero
        # cell, so lstm.wh and the forget gate's blocks of lstm.wx and lstm.b
        # get none either. README names these 1,840 of the 5,095 parameters.
        model = StagedModel(ModelConfig(), init_rng(0))
        assert model.config.conv_out_shape[1:] == (1, 1)
        gen = np.random.default_rng(0)
        x = gen.standard_normal((64, 1, 8, 8))
        y = gen.integers(0, 7, size=64)
        _, grads = model.loss_and_grads(x, y, gen.uniform(0.5, 40.0, size=7), 0.5, gen)
        forget = np.arange(model.config.width, 2 * model.config.width)
        untrained = {name: grads[name]
                     for name in ("attn.wq", "attn.bq", "attn.wk", "attn.bk", "lstm.wh")}
        untrained["lstm.wx forget gate"] = grads["lstm.wx"][:, forget]
        untrained["lstm.b forget gate"] = grads["lstm.b"][forget]
        for name, grad in untrained.items():
            assert not grad.any(), name
        assert sum(grad.size for grad in untrained.values()) == 1840
        assert sum(param.size for _, param in model.params()) == 5095
        # every other block trains
        trained = {name: grad for name, grad in grads.items() if name not in untrained}
        trained["lstm.wx"] = np.delete(grads["lstm.wx"], forget, axis=1)
        trained["lstm.b"] = np.delete(grads["lstm.b"], forget)
        for name, grad in trained.items():
            assert grad.any(), name

    def test_zero_model_head_bias_gradient_closed_form(self):
        model = StagedModel(SMALL, init_rng(0))
        for _, param in model.params():
            param[...] = 0.0
        gen = np.random.default_rng(9)
        x = gen.standard_normal((6, 1, 8, 8))
        y = np.array([0, 1, 2, 2, 1, 0])
        w = np.array([0.5, 2.0, 1.0])
        _, grads = model.loss_and_grads(x, y, w)

        onehot = np.eye(3)[y]
        expected = (w[y][:, None] * (np.full((6, 3), 1.0 / 3.0) - onehot)).mean(axis=0)
        np.testing.assert_allclose(grads["head.b2"], expected, atol=1e-12)
        # dead ReLU and zero activations block every other gradient
        for name, _ in model.params():
            if name != "head.b2":
                assert np.all(grads[name] == 0.0), name

    def test_loss_decreases_on_separable_toy(self, two_class_data):
        model = StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 2), init_rng(1))
        x = two_class_data.features[:32]
        y = two_class_data.labels[:32]
        w = np.ones(2)
        losses = []
        for _ in range(50):
            loss, grads = model.loss_and_grads(x, y, w)
            losses.append(loss)
            for name, param in model.params():
                param -= 0.5 * grads[name]
        assert losses[-1] < losses[0] * 0.5


class TestTrain:
    def test_patience_zero_stops_one_epoch_after_first(self, two_class_data):
        model = StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 2), init_rng(0))
        cfg = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=10, patience=0,
                          dropout_p=0.0)
        _, history = train(model, two_class_data, two_class_data, np.ones(2), cfg, train_rng(0))
        assert len(history.rows) == 2
        assert history.stopped_early
        assert history.best_epoch == 1

    def test_runs_to_max_epochs_when_patience_never_triggers(self, two_class_data):
        model = StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 2), init_rng(0))
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=5, patience=10,
                          dropout_p=0.0)
        _, history = train(model, two_class_data, two_class_data, np.ones(2), cfg, train_rng(0))
        assert len(history.rows) == 5
        assert not history.stopped_early

    def test_seven_class_toy_reaches_high_validation_accuracy(self):
        data = generate_gaussian(ProfileConfig().to_cluster_spec(), 1000, Rng.from_seed(0))
        tr, val, _ = split_dataset(data, SplitSpec(fractions=(0.7, 0.15, 0.15), seed=0))
        model = StagedModel(ModelConfig(), init_rng(0))
        _, history = train(model, tr, val, class_weights(tr), TrainConfig(), train_rng(0))
        assert history.best_val_acc >= 0.90

    def test_rejects_samples_of_a_zero_weight_class(self, two_class_data):
        # an excluded class is deleted from the train set, not masked by its weight
        model = StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 2), init_rng(0))
        with pytest.raises(ValueError, match="^class 1 has weight 0 but samples in the train"):
            train(model, two_class_data, two_class_data, np.array([1.0, 0.0]), TrainConfig(),
                  train_rng(0))

    def test_rejects_empty_train_set(self, two_class_data):
        model = StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 2), init_rng(0))
        empty = two_class_data.subset(np.arange(0))
        with pytest.raises(ValueError, match="^empty train set$"):
            train(model, empty, two_class_data, np.ones(2), TrainConfig(), train_rng(0))

    def test_rejects_bad_weight_vector(self, two_class_data):
        model = StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 2), init_rng(0))
        with pytest.raises(ValueError, match="length-K"):
            train(model, two_class_data, two_class_data, np.ones(5), TrainConfig(), train_rng(0))

    def test_the_rng_draws_every_shuffle_and_mask(self, two_class_data):
        # train takes its stream and no seed: one rng trains the same model twice
        params = list(inspect.signature(train).parameters)
        assert params[-1] == "rng" and "seed" not in params
        cfg = TrainConfig(max_epochs=2, batch_size=16, dropout_p=0.5)
        runs = [train(StagedModel(ModelConfig((1, 8, 8), (2, 2, 4), 2), init_rng(0)),
                      two_class_data, two_class_data, np.ones(2), cfg, train_rng(s))
                for s in (1, 1, 2)]
        (a, ha), (b, hb), (c, _) = runs
        assert ha.rows == hb.rows
        assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(a.params(), b.params()))
        assert not all(np.array_equal(p, q) for (_, p), (_, q) in zip(a.params(), c.params()))

    def test_history_csv_shape(self, trained_two_class):
        _, history, _ = trained_two_class
        lines = history.to_csv().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_acc"
        assert len(lines) == len(history.rows) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        float(first[1]), float(first[2])

    def test_history_write_round_trip(self, trained_two_class, tmp_path):
        _, history, _ = trained_two_class
        path = tmp_path / "history.csv"
        history.write(path)
        assert path.read_text() == history.to_csv()


class TestPredictBatch:
    def test_tie_breaks_toward_lowest_label(self):
        model = StagedModel(SMALL, init_rng(0))
        for _, param in model.params():
            param[...] = 0.0
        labels, probs = predict_batch(model, np.random.default_rng(0).standard_normal((5, 1, 8, 8)))
        np.testing.assert_array_equal(labels, np.zeros(5, dtype=np.int64))
        np.testing.assert_array_equal(probs, np.full((5, 3), 1.0 / 3.0))

    def test_matches_per_sample_brute_force(self, monkeypatch):
        monkeypatch.setattr(basemodel, "FORWARD_CHUNK", 7)
        model = StagedModel(SMALL, init_rng(6))
        gen = np.random.default_rng(6)
        x = gen.standard_normal((50, 1, 8, 8))
        labels, probs = predict_batch(model, x)
        for i in range(50):
            fwd = model.forward_batch(x[i : i + 1])
            np.testing.assert_allclose(probs[i], fwd["probs"][0], atol=1e-12)
            assert labels[i] == int(np.argmax(fwd["probs"][0]))

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        model = StagedModel(SMALL, init_rng(7))
        x = np.random.default_rng(7).standard_normal((23, 1, 8, 8))
        monkeypatch.setattr(basemodel, "FORWARD_CHUNK", 5)
        l1, p1 = predict_batch(model, x)
        monkeypatch.setattr(basemodel, "FORWARD_CHUNK", 1000)
        l2, p2 = predict_batch(model, x)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(p1, p2)

    def test_accuracy_equals_mean_indicator(self, trained_two_class):
        model, _, tr = trained_two_class
        labels, _ = predict_batch(model, tr)
        acc = float(np.mean(labels == tr.labels))
        hits = sum(int(labels[i] == tr.labels[i]) for i in range(len(tr)))
        assert acc == hits / len(tr)


class TestLatents:
    def test_record_length_is_layout_total(self):
        model = StagedModel(ModelConfig(), init_rng(0))
        layout = model.latent_layout()
        assert layout.total == 16 + 16 + 16 + 16 + 7 == 71
        assert layout.offsets == (0, 16, 32, 48, 64)
        recs = extract_latents(model, np.random.default_rng(0).standard_normal((3, 1, 8, 8)))
        assert len(recs) == 3
        for r in recs:
            assert r.concat().shape == (71,)
            assert r.conv_out.shape == (16,)
            assert r.lstm_out.shape == (16,)
            assert r.attn_out.shape == (16,)
            assert r.fc_out.shape == (16,)
            assert r.logits.shape == (7,)

    def test_layout_offsets_strictly_increase(self):
        layout = LatentLayout(("a", "b", "c"), (2, 3, 4))
        assert layout.offsets == (0, 2, 5)
        assert layout.block_slice("b") == slice(2, 5)

    def test_extraction_is_deterministic(self):
        model = StagedModel(SMALL, init_rng(8))
        x = np.random.default_rng(8).standard_normal((4, 1, 8, 8))
        a, la = stack_latents(extract_latents(model, x))
        b, lb = stack_latents(extract_latents(model, x))
        np.testing.assert_array_equal(a, b)
        assert la == lb

    def test_latent_logits_match_plain_forward(self):
        model = StagedModel(SMALL, init_rng(9))
        x = np.random.default_rng(9).standard_normal((4, 1, 8, 8))
        recs = extract_latents(model, x)
        fwd = model.forward_batch(x)
        for i, r in enumerate(recs):
            np.testing.assert_allclose(r.logits, fwd["logits"][i], atol=1e-12)

    def test_forward_latents_equals_the_two_pass_path(self):
        # 300 rows cross the 256-row chunk boundary
        model = StagedModel(SMALL, init_rng(10))
        x = np.random.default_rng(10).standard_normal((300, 1, 8, 8))
        probs, matrix, layout = forward_latents(model, x)
        _, want_probs = predict_batch(model, x)
        want_matrix, want_layout = stack_latents(extract_latents(model, x))
        assert np.array_equal(probs, want_probs)
        assert np.array_equal(matrix, want_matrix)
        chunks = [model.forward_batch(x[:256]), model.forward_batch(x[256:])]
        assert np.array_equal(probs, np.concatenate([c["probs"] for c in chunks]))
        assert np.array_equal(matrix[:, layout.block_slice("conv_out")],
                              np.concatenate([c["conv_out"].mean(axis=(2, 3)) for c in chunks]))
        assert layout == want_layout == model.latent_layout()
        assert matrix.shape == (300, layout.total)

    def test_forward_latents_blocks_hold_stage_outputs(self):
        model = StagedModel(SMALL, init_rng(11))
        x = np.random.default_rng(11).standard_normal((5, 1, 8, 8))
        probs, matrix, layout = forward_latents(model, x)
        fwd = model.forward_batch(x)
        assert np.array_equal(probs, fwd["probs"])
        assert np.array_equal(matrix[:, layout.block_slice("logits")], fwd["logits"])
        assert np.array_equal(matrix[:, layout.block_slice("fc_out")], fwd["fc_out"])
        assert np.array_equal(matrix[:, layout.block_slice("attn_out")], fwd["pooled"])

    def test_stack_rejects_empty_list(self):
        with pytest.raises(ValueError, match="no latent"):
            stack_latents([])

    def test_classes_separate_in_latent_space(self, trained_two_class):
        model, _, tr = trained_two_class
        mat, _ = stack_latents(extract_latents(model, tr))
        a = mat[tr.labels == 0][:30]
        b = mat[tr.labels == 1][:30]
        within = 0.5 * (
            np.linalg.norm(a[:, None] - a[None, :], axis=-1).mean()
            + np.linalg.norm(b[:, None] - b[None, :], axis=-1).mean()
        )
        between = np.linalg.norm(a[:, None] - b[None, :], axis=-1).mean()
        assert between > within


class TestCheckpoint:
    def test_round_trip_preserves_model(self, trained_two_class, tmp_path):
        model, _, tr = trained_two_class
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        for (name, a), (_, b) in zip(model.buffers() + model.params(),
                                     loaded.buffers() + loaded.params(), strict=True):
            assert b.dtype == np.float64 and b.tobytes() == a.tobytes(), name
        # float64 storage: the reload predicts bit for bit what the model predicts
        _, want = predict_batch(model, tr)
        _, got = predict_batch(loaded, tr)
        assert got.tobytes() == want.tobytes()

    def test_second_save_is_byte_identical(self, trained_two_class, tmp_path):
        model, _, _ = trained_two_class
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=20, deadline=None)
    @given(config=st.builds(
        ModelConfig,
        input_shape=st.tuples(st.integers(1, 3), st.sampled_from([8, 16]),
                              st.sampled_from([8, 16])),
        conv_channels=st.tuples(st.integers(1, 4), st.integers(1, 4), st.sampled_from([2, 4])),
        n_classes=st.integers(2, 6),
    ), seed=st.integers(0, 2**32))
    @example(config=ModelConfig((2, 16, 16), (3, 2, 4), n_classes=5), seed=7)
    def test_any_config_round_trips_exactly(self, tmp_path_factory, config, seed):
        model = StagedModel(config, init_rng(seed))
        gen = np.random.default_rng(seed)
        model.input_mean = gen.standard_normal(config.input_shape[0])
        model.input_std = gen.uniform(0.5, 2.0, config.input_shape[0])
        path = tmp_path_factory.mktemp("ckpt") / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == config
        for (name, a), (name_b, b) in zip(model.buffers() + model.params(),
                                          loaded.buffers() + loaded.params(), strict=True):
            assert name == name_b
            assert b.dtype == a.dtype == np.float64, name
            np.testing.assert_array_equal(b, a, err_msg=name)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint\nat all\n")
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_model(path)


def _edit_header(raw: bytes, edit) -> bytes:
    """The checkpoint with ``edit`` applied to its parsed JSON header."""
    magic, header, payload = raw.split(b"\n", 2)
    doc = json.loads(header)
    edit(doc)
    return magic + b"\n" + json.dumps(doc).encode("ascii") + b"\n" + payload


def _blocks(edit):
    return lambda raw: _edit_header(raw, lambda doc: edit(doc["blocks"]))


def _rename_first(blocks):
    blocks[0][0] = "input_median"


def _repeat_first(blocks):
    blocks[1][0] = blocks[0][0]  # input_mean and input_std share a shape


def _widen_first(blocks):
    blocks[0][1] = [blocks[0][1][0] + 1]


def _swap_first_two(blocks):
    blocks[0], blocks[1] = blocks[1], blocks[0]  # same shape, so the same payload size


def _cut_first_weight(raw: bytes) -> bytes:
    magic, header, payload = raw.split(b"\n", 2)
    return magic + b"\n" + header + b"\n" + payload[8:]


def _set_first_weight(value):
    def edit(raw: bytes) -> bytes:
        magic, header, payload = raw.split(b"\n", 2)
        return magic + b"\n" + header + b"\n" + np.float64(value).tobytes() + payload[8:]

    return edit


def _as_v1(raw: bytes) -> bytes:
    """The checkpoint as format v1 wrote it: its magic, a master seed in the
    header, and float32 weights."""
    magic, header, payload = raw.split(b"\n", 2)
    doc = dict(json.loads(header), seed=12)
    weights = np.frombuffer(payload, dtype="<f8").astype("<f4")
    return b"mclab-model v1\n" + json.dumps(doc).encode("ascii") + b"\n" + weights.tobytes()


def _config(key, value):
    def edit(doc):
        doc["config"][key] = value

    return lambda raw: _edit_header(raw, edit)


# the float64 payload of a SMALL checkpoint, in bytes
PAYLOAD = 8 * sum(math.prod(shape) for _, shape in basemodel._block_shapes(SMALL))

# edits of a saved checkpoint, and the message each must be rejected with
MALFORMED_MODELS = {
    "header_without_newline": (lambda raw: raw[:raw.index(b"\n", raw.index(b"\n") + 1)],
                               "header line has no newline"),
    "header_not_json": (lambda raw: raw.replace(b'"blocks"', b"'blocks'", 1), "malformed header"),
    "unknown_block": (_blocks(_rename_first), r"line 2: block 0: the file has 'input_median' "
                                              r"\[1\], the config implies 'input_mean' \[1\]"),
    "duplicate_block": (_blocks(_repeat_first), r"block 1: the file has 'input_mean' \[1\], "
                                                r"the config implies 'input_std' \[1\]"),
    "missing_block": (_blocks(lambda blocks: blocks.pop()),
                      r"block 22: the file has no block, the config implies 'head\.b2' \[3\]"),
    "wrong_shape": (_blocks(_widen_first), r"block 0: the file has 'input_mean' \[2\], "
                                           r"the config implies 'input_mean' \[1\]"),
    "reordered_blocks": (_blocks(_swap_first_two), r"block 0: the file has 'input_std' \[1\], "
                                                   r"the config implies 'input_mean' \[1\]"),
    "short_buffer": (lambda raw: raw[:-8],
                     f"payload of {PAYLOAD - 8} bytes, the blocks need {PAYLOAD}$"),
    "first_weight_cut": (_cut_first_weight,
                         f"payload of {PAYLOAD - 8} bytes, the blocks need {PAYLOAD}$"),
    "trailing_bytes": (lambda raw: raw + b"\0" * 8,
                       f"payload of {PAYLOAD + 8} bytes, the blocks need {PAYLOAD}$"),
    "fractional_classes": (_config("n_classes", 1.9), r"config\.n_classes: expected int"),
    "boolean_classes": (_config("n_classes", True), r"config\.n_classes: expected int"),
    "string_classes": (_config("n_classes", "3"), r"config\.n_classes: expected int"),
    # format v2 dropped the header's seed: it was the master seed, not the
    # stream that drew the weights
    "retired_seed": (lambda raw: _edit_header(raw, lambda doc: doc.update(seed=0)),
                     r"line 2: malformed header: unknown fields seed$"),
    "v1_checkpoint": (_as_v1, r"line 1: checkpoint 'mclab-model v1', "
                              r"this loader reads 'mclab-model v2' only$"),
    "absent_field": (lambda raw: _edit_header(raw, lambda doc: doc["config"].pop("n_classes")),
                     "config lacks n_classes"),
    "classes_above_ceiling": (_config("n_classes", 65537),
                              "65537 classes exceed the ceiling of 65536"),
    "unknown_config_field": (_config("n_layers", 9), r"unknown fields config\.n_layers"),
    # a checkpoint written while the model config had a head count
    "retired_head_count": (_config("n_heads", 1),
                           r"line 2: malformed header: unknown fields config\.n_heads$"),
    "nan_last_weight": (lambda raw: raw[:-8] + np.float64(np.nan).tobytes(),
                        r"block 22 'head\.b2' holds nan, not a finite float64$"),
    "infinite_first_weight": (_set_first_weight(np.inf),
                              r"block 0 'input_mean' holds inf, not a finite float64$"),
    "unknown_header_key": (lambda raw: _edit_header(raw, lambda doc: doc.update(extra="x")),
                           "unknown fields extra"),
}


def _never_built(*args, **kwargs):
    raise AssertionError("the model was built before the file was checked")


class TestCheckpointRejections:
    @pytest.fixture(scope="class")
    def raw(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.bin"
        save_model(StagedModel(SMALL, init_rng(12)), path)
        return path.read_bytes()

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_error_names_the_path(self, tmp_path, raw, case):
        edit, message = MALFORMED_MODELS[case]
        path = tmp_path / "model.bin"
        path.write_bytes(edit(raw))
        with pytest.raises(ValueError, match=message) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_unedited_checkpoint_loads(self, tmp_path, raw):
        path = tmp_path / "model.bin"
        path.write_bytes(raw)
        assert load_model(path).config == SMALL

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_rejected_before_the_model_is_built(self, tmp_path, raw, case, monkeypatch):
        edit, message = MALFORMED_MODELS[case]
        path = tmp_path / "model.bin"
        path.write_bytes(edit(raw))
        monkeypatch.setattr(basemodel, "StagedModel", _never_built)
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_header_only_file_with_two_million_classes(self, tmp_path, monkeypatch):
        header = {"blocks": [], "config": {
            "input_shape": [1, 8, 8], "conv_channels": [4, 8, 16], "n_classes": 2_000_000}}
        path = tmp_path / "model.bin"
        path.write_bytes(b"mclab-model v2\n" + json.dumps(header).encode("ascii") + b"\n")
        monkeypatch.setattr(basemodel, "StagedModel", _never_built)
        with pytest.raises(ValueError, match="2000000 classes exceed the ceiling") as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("config", [
        SMALL,
        ModelConfig(),
        ModelConfig(input_shape=(3, 16, 8), conv_channels=(5, 6, 8), n_classes=11),
    ], ids=["small", "default", "wide"])
    def test_block_shapes_are_the_models(self, config):
        model = StagedModel(config, init_rng(0))
        assert basemodel._block_shapes(config) == [
            (name, arr.shape) for name, arr in model.buffers() + model.params()]
