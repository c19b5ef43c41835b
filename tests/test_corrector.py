"""Boosted-tree corrector checks: gain arithmetic, fitting behavior,
determinism, importance bookkeeping, and the text checkpoint format.

Hand-computable cases are derived in comments; the ensemble prediction is
cross-checked by an independent per-sample tree walk.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mclab.basemodel import LatentLayout, LatentRecord
from mclab.corrector import (
    CorrectorEnsemble,
    GbdtConfig,
    Tree,
    fit,
    load_ensemble,
    save_ensemble,
    split_gain,
)

LAYOUT = LatentLayout(("conv_out", "lstm_out", "attn_out", "fc_out", "logits"), (4, 4, 4, 4, 2))


def xor_dataset(n_per: int = 100, seed: int = 0, noise: float = 0.3):
    """Four Gaussian clusters in 2-D with XOR labels, 4*n_per points."""
    gen = np.random.default_rng(seed)
    xs, ys = [], []
    for label, (a, b) in enumerate([(-1, -1), (1, 1), (-1, 1), (1, -1)]):
        xs.append(gen.standard_normal((n_per, 2)) * noise + (a, b))
        ys.append(np.full(n_per, 0 if label < 2 else 1))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    perm = gen.permutation(y.size)
    return x[perm], y[perm]


def make_records(n: int, seed: int, informative: str = "attn_out", shift: float = 3.0):
    """Latent records where only one stage block separates the two classes."""
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, 2, size=n)
    records = []
    for i in range(n):
        blocks = {
            name: gen.standard_normal(size)
            for name, size in zip(LAYOUT.names, LAYOUT.sizes)
        }
        blocks[informative] = blocks[informative] * 0.1 + labels[i] * shift
        records.append(LatentRecord(layout=LAYOUT, **blocks))
    return records, labels


class TestConfig:
    def test_defaults_validate(self):
        GbdtConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_rounds": 0},
            {"max_depth": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"min_child_weight": -1.0},
            {"lambda_l2": -0.1},
            {"subsample": 0.0},
            {"subsample": 1.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GbdtConfig(**kwargs).validate()

    def test_fit_rejects_unresolved_seed(self):
        with pytest.raises(ValueError, match="seed is None"):
            fit(np.eye(4), [0, 1, 0, 1], GbdtConfig(n_rounds=1, seed=None))


class TestSplitGain:
    def test_hand_computed_symmetric_case(self):
        # 1/2 * (4/3 + 4/3 - 0/5) = 4/3
        assert split_gain(-2.0, 2.0, 2.0, 2.0, 1.0) == pytest.approx(4.0 / 3.0)
        assert split_gain(-2.0, 2.0, 2.0, 2.0, 1.0) == pytest.approx(1.333, abs=1e-3)

    def test_no_improvement_means_zero_gain(self):
        # children proportional to the parent leave the objective unchanged
        assert split_gain(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
            0.5 * (1.0 / 2.0 + 1.0 / 2.0 - 4.0 / 3.0)
        )
        assert split_gain(0.0, 1.0, 0.0, 1.0, 1.0) == 0.0


class TestFit:
    def test_single_class_target_with_wider_space(self):
        # all labels identical: the prior alone must carry the prediction
        gen = np.random.default_rng(0)
        x = gen.standard_normal((40, 3))
        ens = fit(x, np.zeros(40, dtype=int), GbdtConfig(n_rounds=1), n_classes=2)
        probs = ens.predict_proba(x)
        assert np.all(probs[:, 0] >= 0.99)

    def test_base_score_is_log_priors(self):
        gen = np.random.default_rng(1)
        x = gen.standard_normal((100, 3))
        y = np.array([0] * 70 + [1] * 20 + [2] * 10)
        ens = fit(x, y, GbdtConfig(n_rounds=1))
        np.testing.assert_allclose(ens.base_score, np.log([0.7, 0.2, 0.1]), atol=1e-12)

    def test_xor_reaches_95_percent_within_50_rounds(self):
        x, y = xor_dataset()
        ens = fit(x, y, GbdtConfig(n_rounds=50))
        acc = float(np.mean(ens.predict_proba(x).argmax(axis=1) == y))
        assert acc >= 0.95

    def test_training_loss_is_monotone_nonincreasing(self):
        x, y = xor_dataset(seed=3)
        ens = fit(x, y, GbdtConfig(n_rounds=50))
        curve = np.array(ens.loss_curve)
        assert curve.shape == (51,)
        assert curve[0] == pytest.approx(math.log(2), abs=1e-12)  # balanced prior
        assert np.all(np.diff(curve) <= 1e-9)

    def test_fit_is_deterministic(self):
        x, y = xor_dataset(seed=4)
        a = fit(x, y, GbdtConfig(n_rounds=5))
        b = fit(x, y, GbdtConfig(n_rounds=5))
        np.testing.assert_array_equal(a.base_score, b.base_score)
        np.testing.assert_array_equal(a.feature_importance_, b.feature_importance_)
        assert a.loss_curve == b.loss_curve
        for ra, rb in zip(a.trees, b.trees):
            for ta, tb in zip(ra, rb):
                assert ta.feature == tb.feature
                assert ta.threshold == tb.threshold
                assert ta.left == tb.left
                assert ta.right == tb.right
                assert ta.value == tb.value

    def test_subsampled_fit_is_seeded(self):
        x, y = xor_dataset(seed=5)
        cfg = GbdtConfig(n_rounds=5, subsample=0.8, seed=9)
        a = fit(x, y, cfg)
        b = fit(x, y, cfg)
        for ra, rb in zip(a.trees, b.trees):
            for ta, tb in zip(ra, rb):
                assert ta.threshold == tb.threshold and ta.feature == tb.feature

    def test_constant_features_yield_single_leaves(self):
        x = np.ones((30, 4))
        y = np.array([0, 1] * 15)
        ens = fit(x, y, GbdtConfig(n_rounds=3))
        for round_trees in ens.trees:
            for tree in round_trees:
                assert tree.n_nodes == 1
        assert ens.total_gain == 0.0

    def test_equal_gain_prefers_lower_feature_index(self):
        # identical columns tie at every candidate split
        gen = np.random.default_rng(6)
        f = gen.standard_normal(50)
        x = np.column_stack([f, f])
        y = (f > 0).astype(int)
        ens = fit(x, y, GbdtConfig(n_rounds=1, max_depth=1))
        for tree in ens.trees[0]:
            assert tree.feature[0] == 0

    def test_equal_gain_prefers_lower_threshold(self):
        # labels 0,1,1,0 on x = 0,1,2,3: the outer splits tie by symmetry
        # (gain 0.5*(0.25/1.25 + 0.25/1.75) each, middle split gains 0)
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 0])
        ens = fit(x, y, GbdtConfig(n_rounds=1, max_depth=1, min_child_weight=0.0))
        for tree in ens.trees[0]:
            assert tree.feature[0] == 0
            assert tree.threshold[0] == 0.0

    def test_max_depth_bounds_node_count(self):
        x, y = xor_dataset(seed=7)
        ens = fit(x, y, GbdtConfig(n_rounds=3, max_depth=1))
        for round_trees in ens.trees:
            for tree in round_trees:
                assert tree.n_nodes <= 3

    def test_tree_count_is_rounds_times_classes(self):
        gen = np.random.default_rng(8)
        x = gen.standard_normal((60, 3))
        y = gen.integers(0, 3, size=60)
        ens = fit(x, y, GbdtConfig(n_rounds=4))
        assert len(ens.trees) == 4
        assert all(len(r) == 3 for r in ens.trees)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            fit(np.zeros((0, 3)), np.zeros(0, dtype=int), GbdtConfig(n_rounds=1))
        x = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(ValueError, match="single-class"):
            fit(x, np.zeros(10, dtype=int), GbdtConfig(n_rounds=1))
        with pytest.raises(ValueError, match="align"):
            fit(x, np.zeros(7, dtype=int), GbdtConfig(n_rounds=1))
        with pytest.raises(ValueError, match="lie in"):
            fit(x, np.full(10, 5), GbdtConfig(n_rounds=1), n_classes=3)


class TestPredict:
    def test_zero_trees_give_softmax_of_base_score(self):
        base = np.log([0.6, 0.3, 0.1])
        ens = CorrectorEnsemble(
            config=GbdtConfig(), n_classes=3, n_features=4, base_score=base,
            trees=[], layout=None, feature_importance_=np.zeros(4), loss_curve=[],
        )
        probs = ens.predict_proba(np.zeros((2, 4)))
        expected = np.exp(base) / np.exp(base).sum()
        np.testing.assert_allclose(probs, np.tile(expected, (2, 1)), atol=1e-12)

    def test_probabilities_form_simplex_for_random_latents(self):
        x, y = xor_dataset(seed=9)
        ens = fit(x, y, GbdtConfig(n_rounds=10))
        z = np.random.default_rng(9).standard_normal((1000, 2)) * 3
        probs = ens.predict_proba(z)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_margins_match_independent_tree_walk(self):
        x, y = xor_dataset(n_per=30, seed=10)
        ens = fit(x, y, GbdtConfig(n_rounds=8))

        def walk(tree: Tree, row: np.ndarray) -> float:
            node = 0
            while tree.feature[node] >= 0:
                if row[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            return tree.value[node]

        margins = ens.raw_margins(x)
        for i in range(0, x.shape[0], 7):
            for cls in range(2):
                total = ens.base_score[cls] + sum(
                    walk(r[cls], x[i]) for r in ens.trees
                )
                assert margins[i, cls] == pytest.approx(total, abs=1e-12)

    def test_single_record_returns_vector(self):
        records, labels = make_records(80, seed=11)
        ens = fit(records, labels, GbdtConfig(n_rounds=5))
        probs = ens.predict_proba(records[0])
        assert probs.shape == (2,)
        assert float(probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_wrong_width(self):
        x, y = xor_dataset(n_per=20, seed=12)
        ens = fit(x, y, GbdtConfig(n_rounds=1))
        with pytest.raises(ValueError, match="latent width"):
            ens.predict_proba(np.zeros((3, 5)))

    def test_block_permutation_with_consistent_layout_is_invariant(self):
        records, labels = make_records(80, seed=13)
        ens = fit(records, labels, GbdtConfig(n_rounds=5))
        probs_std = ens.predict_proba(records)

        permuted_layout = LatentLayout(
            ("lstm_out", "conv_out", "attn_out", "fc_out", "logits"), (4, 4, 4, 4, 2)
        )
        # swap the numbers held by the first two fields and declare the swap
        # in the layout: the concatenated matrix is block-permuted while the
        # descriptor stays consistent with it
        permuted = [
            LatentRecord(
                conv_out=r.lstm_out, lstm_out=r.conv_out, attn_out=r.attn_out,
                fc_out=r.fc_out, logits=r.logits, layout=permuted_layout,
            )
            for r in records
        ]
        np.testing.assert_array_equal(ens.predict_proba(permuted), probs_std)

    def test_rejects_foreign_layout_names(self):
        records, labels = make_records(80, seed=14)
        ens = fit(records, labels, GbdtConfig(n_rounds=2))
        alien_layout = LatentLayout(("a", "b", "c", "d", "e"), (4, 4, 4, 4, 2))
        alien = [
            LatentRecord(
                conv_out=r.conv_out, lstm_out=r.lstm_out, attn_out=r.attn_out,
                fc_out=r.fc_out, logits=r.logits, layout=alien_layout,
            )
            for r in records[:3]
        ]
        with pytest.raises(ValueError, match="layout stages"):
            ens.predict_proba(alien)


class TestFeatureImportance:
    def test_single_split_concentrates_importance(self):
        gen = np.random.default_rng(15)
        f = gen.standard_normal(60)
        x = np.column_stack([np.zeros(60), f, np.zeros(60)])
        y = (f > 0).astype(int)
        ens = fit(x, y, GbdtConfig(n_rounds=1, max_depth=1))
        imp = ens.feature_importance()
        assert imp[1] > 0
        assert imp[0] == imp[2] == 0.0

    def test_importance_sums_to_total_gain(self):
        x, y = xor_dataset(seed=16)
        ens = fit(x, y, GbdtConfig(n_rounds=10))
        imp = ens.feature_importance()
        assert np.all(imp >= 0)
        assert float(imp.sum()) == pytest.approx(ens.total_gain, rel=1e-12)
        assert ens.total_gain > 0

    def test_informative_block_dominates_gain(self):
        records, labels = make_records(300, seed=17, informative="attn_out")
        ens = fit(records, labels, GbdtConfig(n_rounds=20, max_depth=3))
        imp = ens.feature_importance()
        block = ens.layout.block_slice("attn_out")
        assert float(imp[block].sum()) >= 0.8 * float(imp.sum())


class TestCheckpoint:
    def test_round_trip_preserves_predictions_exactly(self, tmp_path):
        records, labels = make_records(120, seed=18)
        ens = fit(records, labels, GbdtConfig(n_rounds=5, max_depth=3))
        path = tmp_path / "corrector.txt"
        save_ensemble(ens, path)
        loaded = load_ensemble(path)

        assert loaded.config == ens.config
        assert loaded.n_classes == ens.n_classes
        assert loaded.n_features == ens.n_features
        assert loaded.layout == ens.layout
        assert loaded.loss_curve == ens.loss_curve
        np.testing.assert_array_equal(loaded.base_score, ens.base_score)
        np.testing.assert_array_equal(loaded.feature_importance_, ens.feature_importance_)
        probe = np.random.default_rng(18).standard_normal((40, ens.n_features))
        np.testing.assert_array_equal(loaded.predict_proba(probe), ens.predict_proba(probe))

    def test_second_save_is_byte_identical(self, tmp_path):
        x, y = xor_dataset(n_per=20, seed=19)
        ens = fit(x, y, GbdtConfig(n_rounds=3))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_ensemble(ens, p1)
        save_ensemble(load_ensemble(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError, match="not an ensemble checkpoint"):
            load_ensemble(path)

    def test_rejects_malformed_tree_header(self, tmp_path):
        x, y = xor_dataset(n_per=20, seed=20)
        ens = fit(x, y, GbdtConfig(n_rounds=1))
        path = tmp_path / "c.txt"
        save_ensemble(ens, path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("tree "))
        lines[idx] = "tree round=zero class=0 nodes=1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed tree header"):
            load_ensemble(path)
