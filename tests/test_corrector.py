"""Boosted-tree corrector checks: gain arithmetic, fitting behavior,
determinism, importance bookkeeping, and the text checkpoint format.

Hand-computable cases are derived in comments; the packed leaf-bitmask
evaluation is cross-checked bit for bit by an independent per-row tree walk,
fit byte for byte by a plain binned reference grower and against a pinned
checkpoint, and fit's trees against the exact greedy search on features with
few distinct values.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mclab.corrector as corrector_module
from mclab.basemodel import LatentLayout
from mclab.corrector import (
    CorrectorEnsemble,
    GbdtConfig,
    PackedForest,
    Tree,
    fit,
    load_ensemble,
    save_ensemble,
    split_gain,
)
from reference_fixture import host_fingerprint

LAYOUT = LatentLayout(("conv_out", "lstm_out", "attn_out", "fc_out", "logits"), (4, 4, 4, 4, 2))


def walk(tree: Tree, row: np.ndarray) -> float:
    """The value of the leaf ``row`` reaches, walking node by node with the
    ``x <= t`` rule (NaN compares false and goes right)."""
    node = 0
    while tree.feature[node] >= 0:
        goes_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if goes_left else tree.right[node]
    return tree.value[node]


def walk_margins(ens: CorrectorEnsemble, x: np.ndarray) -> np.ndarray:
    """Reference margins: each row walks each tree, and the leaf values are
    added tree by tree in fitting order."""
    out = np.tile(ens.base_score, (x.shape[0], 1))
    for i, row in enumerate(x):
        for round_trees in ens.trees:
            for cls, tree in enumerate(round_trees):
                out[i, cls] += walk(tree, row)
    return out


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


def make_latents(n: int, seed: int, informative: str = "attn_out", shift: float = 3.0):
    """A latent matrix in ``LAYOUT`` where only one stage block separates the
    two classes, and its labels."""
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, 2, size=n)
    x = gen.standard_normal((n, LAYOUT.total))
    block = LAYOUT.block_slice(informative)
    x[:, block] = x[:, block] * 0.1 + labels[:, None] * shift
    return x, labels


class TestConfig:
    def test_defaults_validate(self):
        GbdtConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_rounds": 0},
            {"max_depth": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"min_child_weight": -1.0},
            {"lambda_l2": -0.1},
            {"learning_rate": math.inf},
            {"learning_rate": math.nan},
            {"min_child_weight": math.inf},
            {"min_child_weight": math.nan},
            {"lambda_l2": math.inf},
            {"lambda_l2": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GbdtConfig(**kwargs)


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

    def test_constant_features_yield_single_leaves(self):
        x = np.ones((30, 4))
        y = np.array([0, 1] * 15)
        ens = fit(x, y, GbdtConfig(n_rounds=3))
        for round_trees in ens.trees:
            for tree in round_trees:
                assert tree.n_nodes == 1
        assert not ens.feature_importance_.any()

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
        with pytest.raises(ValueError, match="empty"):
            fit(x[:, :0], np.array([0, 1] * 5), GbdtConfig(n_rounds=1))

    def test_rejects_labels_and_class_counts_that_are_not_integers(self):
        # neither is truncated: labels 0..1.9 would fit classes 0 and 1
        x = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(ValueError, match="labels must be integers, got dtype float64"):
            fit(x, np.linspace(0, 1.9, 20), GbdtConfig(n_rounds=1))
        with pytest.raises(ValueError, match="n_classes must be an integer, got 2.9"):
            fit(x, np.array([0, 1] * 10), GbdtConfig(n_rounds=1), n_classes=2.9)
        fit(x, np.array([0, 1] * 10, dtype=np.uint8), GbdtConfig(n_rounds=1),
            n_classes=np.int64(3))

    def test_read_only_input_is_left_unchanged(self):
        x, labels = oracle_data(7, 80, 6, 3, special_columns=True)
        x.setflags(write=False)
        labels.setflags(write=False)
        x_before, labels_before = x.copy(), labels.copy()
        ens = fit(x, labels, GbdtConfig(n_rounds=3))
        assert np.array_equal(x, x_before, equal_nan=True)
        assert np.array_equal(labels, labels_before)
        assert checkpoint_bytes(ens) == checkpoint_bytes(
            fit(x_before, labels_before, GbdtConfig(n_rounds=3)))


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
        assert np.array_equal(ens.raw_margins(x), walk_margins(ens, x))

    def test_rejects_a_single_row_vector(self):
        x, labels = make_latents(80, seed=11)
        ens = fit(x, labels, GbdtConfig(n_rounds=5), layout=LAYOUT)
        with pytest.raises(ValueError, match="2-D latent matrix"):
            ens.predict_proba(x[0])
        probs = ens.predict_proba(x[:1])
        assert probs.shape == (1, 2)
        assert float(probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_wrong_width(self):
        x, y = xor_dataset(n_per=20, seed=12)
        ens = fit(x, y, GbdtConfig(n_rounds=1))
        with pytest.raises(ValueError, match="latent width"):
            ens.predict_proba(np.zeros((3, 5)))

    def test_rejects_a_block_permuted_layout(self):
        x, labels = make_latents(80, seed=13)
        ens = fit(x, labels, GbdtConfig(n_rounds=5), layout=LAYOUT)
        permuted_layout = LatentLayout(
            ("lstm_out", "conv_out", "attn_out", "fc_out", "logits"), (4, 4, 4, 4, 2)
        )
        # the first two blocks swapped, and the swap declared in the layout:
        # the same stages in another order are still a foreign layout
        permuted = np.concatenate([x[:, 4:8], x[:, 0:4], x[:, 8:]], axis=1)
        with pytest.raises(ValueError) as err:
            ens.align(permuted, permuted_layout)
        assert str(err.value) == (
            "latent layout stages lstm_out:4,conv_out:4,attn_out:4,fc_out:4,logits:2 "
            "!= fitted conv_out:4,lstm_out:4,attn_out:4,fc_out:4,logits:2")

    def test_rejects_foreign_layout_names(self):
        x, labels = make_latents(80, seed=14)
        ens = fit(x, labels, GbdtConfig(n_rounds=2), layout=LAYOUT)
        alien_layout = LatentLayout(("a", "b", "c", "d", "e"), (4, 4, 4, 4, 2))
        with pytest.raises(ValueError, match="layout stages"):
            ens.align(x[:3], alien_layout)

    def test_fit_rejects_a_layout_of_another_width(self):
        x, labels = make_latents(20, seed=15)
        with pytest.raises(ValueError, match="layout covers 18 columns, the matrix has 17"):
            fit(x[:, :-1], labels, GbdtConfig(n_rounds=1), layout=LAYOUT)


FIVE = LatentLayout(("conv_out", "lstm_out", "attn_out", "fc_out", "logits"), (1, 1, 1, 1, 1))
# thresholds with ties and duplicates, and the infinities
CUTS = (-np.inf, -1.0, 0.0, 0.0, 0.5, 1.0, np.inf)
# inputs on and between the thresholds, the infinities and NaN
INPUTS = (-np.inf, -1.5, -1.0, -0.25, 0.0, 0.5, 0.75, 1.0, 2.0, np.inf, np.nan)


def random_tree(gen: np.random.Generator, max_depth: int, p_split: float,
                breadth_first: bool) -> Tree:
    """A tree grown by coin flips over 5 features, numbered depth first as
    fit numbers nodes, or breadth first; both keep children after parents."""
    tree = Tree()

    def grow(depth: int) -> int:
        if depth < max_depth and gen.random() < p_split:
            node = tree.add_split(int(gen.integers(5)), float(gen.choice(CUTS)))
            tree.left[node] = grow(depth + 1)
            tree.right[node] = grow(depth + 1)
            return node
        return tree.add_leaf(gen.standard_normal())

    grow(0)
    if not breadth_first:
        return tree
    order, queue = [], [0]
    while queue:
        node = queue.pop(0)
        order.append(node)
        if tree.feature[node] >= 0:
            queue += (tree.left[node], tree.right[node])
    new_id = {old: new for new, old in enumerate(order)} | {-1: -1}
    out = Tree()
    for old in order:
        out.feature.append(tree.feature[old])
        out.threshold.append(tree.threshold[old])
        out.left.append(new_id[tree.left[old]])
        out.right.append(new_id[tree.right[old]])
        out.value.append(tree.value[old])
    return out


class TestPackedEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_depth=st.integers(1, 7),
        p_split=st.sampled_from([0.0, 0.6, 0.9, 1.0]),
        rounds=st.integers(0, 3),
        k=st.integers(2, 3),
        breadth_first=st.booleans(),
        budget=st.sampled_from([1, 7, 1 << 16]),
        rows=st.lists(
            st.lists(st.sampled_from(INPUTS) | st.floats(-3, 3), min_size=5, max_size=5),
            min_size=1, max_size=70,
        ),
    )
    def test_margins_equal_a_tree_walk_bit_for_bit(
        self, seed, max_depth, p_split, rounds, k, breadth_first, budget, rows
    ):
        gen = np.random.default_rng(seed)
        trees = [[random_tree(gen, max_depth, p_split, breadth_first) for _ in range(k)]
                 for _ in range(rounds)]
        ens = CorrectorEnsemble(
            config=GbdtConfig(max_depth=max_depth), n_classes=k, n_features=5,
            base_score=gen.standard_normal(k), trees=trees, layout=FIVE,
            feature_importance_=np.zeros(5), loss_curve=[],
        )
        x = np.array(rows)
        want = walk_margins(ens, x)
        # a small budget splits the rows into blocks of the 32-row floor
        with patch.object(corrector_module, "EVAL_BLOCK_ELEMENTS", budget):
            assert np.array_equal(ens.raw_margins(x), want)
        assert np.array_equal(ens.raw_margins(x[:1]), want[:1])

        # the narrowest word that holds the widest tree; past 64 leaves, several
        widest = max((t.feature.count(-1) for r in trees for t in r), default=1)
        bits = next(b for b in (8, 16, 32, 64) if widest <= b or b == 64)
        assert ens.packed.bits == bits
        assert (ens.packed.tree_first_word is not None) == (widest > 64)

    def test_margins_are_bit_identical_across_block_sizes(self):
        gen = np.random.default_rng(3)
        trees = [[random_tree(gen, 4, 0.9, False) for _ in range(3)] for _ in range(30)]
        ens = CorrectorEnsemble(
            config=GbdtConfig(max_depth=4), n_classes=3, n_features=5,
            base_score=gen.standard_normal(3), trees=trees, layout=FIVE,
            feature_importance_=np.zeros(5), loss_curve=[],
        )
        x = np.where(gen.random((500, 5)) < 0.5, gen.choice(INPUTS, size=(500, 5)),
                     gen.uniform(-3, 3, size=(500, 5)))
        splits = ens.packed.feature.size
        real = PackedForest.leaf_values
        margins, blocks = [], []

        def spy(packed, rows):
            blocks[-1].append(rows.shape[0])
            return real(packed, rows)

        # the 32-row floor, 45 rows a block, one block
        for budget in (1, 45 * splits, 1 << 40):
            blocks.append([])
            with patch.object(corrector_module, "EVAL_BLOCK_ELEMENTS", budget), \
                    patch.object(PackedForest, "leaf_values", spy):
                margins.append(ens.raw_margins(x))
        assert blocks == [[32] * 15 + [20], [45] * 11 + [5], [500]]
        want = walk_margins(ens, x)
        assert all(np.array_equal(m, want) for m in margins)

    def test_every_word_width_is_reached(self):
        gen = np.random.default_rng(0)
        for depth, bits in ((1, 8), (3, 8), (4, 16), (5, 32), (6, 64), (7, 64)):
            single_leaf = Tree()
            single_leaf.add_leaf(0.5)
            ens = CorrectorEnsemble(
                config=GbdtConfig(max_depth=depth), n_classes=2, n_features=5,
                base_score=np.zeros(2),
                trees=[[random_tree(gen, depth, 1.0, False), single_leaf]],
                layout=None, feature_importance_=np.zeros(5), loss_curve=[],
            )
            assert ens.packed.bits == bits
            x = gen.choice(INPUTS, size=(64, 5))
            assert np.array_equal(ens.raw_margins(x), walk_margins(ens, x))


def pinned_data(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact eighths in [-1.5, 1.5] (many ties) and labels mixing row order
    with two of the features."""
    gen = np.random.default_rng(2024)
    x = gen.integers(-12, 13, size=(n, 5)) / 8.0
    y = (np.arange(n) * 7 + (x[:, 0] > 0) * 2 + (x[:, 1] > 0.5)) % 3
    return x, y


PINNED = json.loads((Path(__file__).parent / "fixtures" / "gbdt_pinned.json").read_text())


class TestPinnedFit:
    """fit writes the checkpoint pinned when its split search became a
    histogram."""

    @pytest.mark.parametrize("case,n,config", [
        ("b", 240, GbdtConfig(n_rounds=2, max_depth=7, min_child_weight=0.05,
                              lambda_l2=0.5)),
    ])
    def test_checkpoint_matches_the_pinned_file(self, tmp_path, case, n, config):
        pinned = Path(__file__).parent / "fixtures" / PINNED["files"][case]
        x, y = pinned_data(n)
        save_ensemble(fit(x, y, config), tmp_path / "corrector.txt")
        if host_fingerprint() == PINNED["host"]:
            assert (tmp_path / "corrector.txt").read_bytes() == pinned.read_bytes()
            return
        # another numpy build may round exp differently: same trees, close floats
        got, want = load_ensemble(tmp_path / "corrector.txt"), load_ensemble(pinned)
        for got_round, want_round in zip(got.trees, want.trees, strict=True):
            for g, w in zip(got_round, want_round, strict=True):
                assert (g.feature, g.threshold, g.left, g.right) == (
                    w.feature, w.threshold, w.left, w.right)
                np.testing.assert_allclose(g.value, w.value, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.loss_curve, want.loss_curve, rtol=1e-9)


class TestFeatureImportance:
    def test_single_split_concentrates_importance(self):
        gen = np.random.default_rng(15)
        f = gen.standard_normal(60)
        x = np.column_stack([np.zeros(60), f, np.zeros(60)])
        y = (f > 0).astype(int)
        ens = fit(x, y, GbdtConfig(n_rounds=1, max_depth=1))
        imp = ens.feature_importance_
        assert imp[1] > 0
        assert imp[0] == imp[2] == 0.0

    def test_importance_is_positive_exactly_on_split_features(self):
        x, y = xor_dataset(seed=16)
        ens = fit(x, y, GbdtConfig(n_rounds=10))
        split_on = {f for r in ens.trees for tree in r for f in tree.feature if f >= 0}
        assert np.all(ens.feature_importance_ >= 0)
        assert set(np.nonzero(ens.feature_importance_)[0].tolist()) == split_on
        assert split_on

    def test_informative_block_dominates_gain(self):
        x, labels = make_latents(300, seed=17, informative="attn_out")
        ens = fit(x, labels, GbdtConfig(n_rounds=20, max_depth=3), layout=LAYOUT)
        imp = ens.feature_importance_
        block = ens.layout.block_slice("attn_out")
        assert float(imp[block].sum()) >= 0.8 * float(imp.sum())


class TestCheckpoint:
    def test_round_trip_preserves_predictions_exactly(self, tmp_path):
        x, labels = make_latents(120, seed=18)
        ens = fit(x, labels, GbdtConfig(n_rounds=5, max_depth=3), layout=LAYOUT)
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


def _tree_at(lines: list[str], nth: int = 0) -> int:
    """Index of the nth tree header line."""
    return [i for i, line in enumerate(lines) if line.startswith("tree ")][nth]


def _set_cell(lines: list[str], row: int, cell: int, value: str) -> list[str]:
    cells = lines[row].split(",")
    cells[cell] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


def _root(lines: list[str]) -> int:
    """Index of the line of node 0 of the first tree."""
    return _tree_at(lines) + 1


# edits of a 2-round, 2-class checkpoint whose first tree splits at its root,
# with the 0-based index of the line each must be rejected at, and the message
MALFORMED = {
    "truncated_header": (lambda ls: ls[:3], lambda ls: 3, "file ends early"),
    "truncated_tree": (lambda ls: ls[:_root(ls) + 1], _tree_at, "nodes=.* does not fit"),
    "truncated_between_trees": (lambda ls: ls[:_tree_at(ls, 3)], lambda ls: _tree_at(ls, 3),
                                "file ends early"),
    "child_out_of_range": (lambda ls: _set_cell(ls, _root(ls), 3, "99"), _root,
                           "child 99 is outside"),
    "child_before_parent": (lambda ls: _set_cell(ls, _root(ls), 4, "0"), _root,
                            "child 0 is outside"),
    "feature_out_of_range": (lambda ls: _set_cell(ls, _root(ls), 1, "2"), _root,
                             r"split feature 2 is outside \[0, 2\)"),
    "leaf_with_children": (lambda ls: _set_cell(ls, len(ls) - 2, 3, "1"), lambda ls: len(ls) - 2,
                           "a leaf must have children -1,-1"),
    "shared_child": (lambda ls: _set_cell(ls, _root(ls), 4, ls[_root(ls)].split(",")[3]), _root,
                     "already has parent"),
    "missing_tree": (lambda ls: ls[:_tree_at(ls, 3)] + ["end"], lambda ls: _tree_at(ls, 3),
                     r"3 trees, expected 2 rounds x 2 classes"),
    "extra_tree": (lambda ls: ls[:-1] + ls[_tree_at(ls, 3):], lambda ls: len(ls) - 1,
                   "expected 'end'"),
    "content_after_end": (lambda ls: ls + ["end"], len, "content after 'end'"),
    "base_score_length": (lambda ls: ls[:3] + ["base_score=0.0"] + ls[4:], lambda ls: 3,
                          "base_score has 1 values, expected 2"),
    "importance_length": (lambda ls: ls[:5] + ["importance=1.0,2.0,3.0"] + ls[6:],
                          lambda ls: 5, "importance has 3 values, expected 2"),
    "bad_number": (lambda ls: _set_cell(ls, _root(ls), 2, "half"), _root,
                   "'half' is not a float"),
    # a checkpoint written while GbdtConfig held subsample and seed
    "removed_config_fields": (lambda ls: ls[:2] + [ls[2] + " subsample=1.0 seed=0"] + ls[3:],
                              lambda ls: 2, "expected the fields learning_rate, "
                              "min_child_weight, lambda_l2$"),
    "huge_node_count": (lambda ls: ls[:_tree_at(ls)] + ["tree round=0 class=0 nodes=" + "9" * 5000]
                        + ls[_tree_at(ls) + 1:], _tree_at, "nodes '9{5000}' is not an int"),
}


class TestCheckpointRejections:
    @pytest.fixture(scope="class")
    def lines(self, tmp_path_factory):
        x, y = xor_dataset(n_per=20, seed=21)
        ens = fit(x, y, GbdtConfig(n_rounds=2, max_depth=2))
        assert ens.trees[0][0].feature[0] >= 0
        path = tmp_path_factory.mktemp("ckpt") / "c.txt"
        save_ensemble(ens, path)
        return path.read_text().splitlines()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_error_names_path_and_line(self, tmp_path, lines, case):
        edit, at, message = MALFORMED[case]
        path = tmp_path / "c.txt"
        path.write_text("\n".join(edit(list(lines))) + "\n")
        with pytest.raises(ValueError, match=message) as err:
            load_ensemble(path)
        assert str(err.value).startswith(f"{path}: line {at(lines) + 1}: ")

    def test_unedited_checkpoint_loads(self, tmp_path, lines):
        path = tmp_path / "c.txt"
        path.write_text("\n".join(lines) + "\n")
        assert len(load_ensemble(path).trees) == 2


# ---- reference growers. The binned one is the plain rule of the module notes:
# edges and bins in Python, histograms as loops over rows in row order, a full
# search at every node above max_depth, and rows routed by ``x <= t``. It is
# the oracle for fit's bincounts, masks, early exit and leaf adds. The exact
# one scores every boundary between distinct neighbour values (the search fit
# ran before it binned); with at most MAX_BINS distinct values per feature and
# no NaN it has the binned search's candidates. ----

MAX_BINS = corrector_module.MAX_BINS


def reference_bins(column: np.ndarray) -> tuple[list[float], list[int]]:
    """A feature's bin edges and each row's bin, by the rule of the module notes."""
    ordered = np.sort(column).tolist()  # NaN last

    def distinct(values):
        out = []
        for v in values:
            if not out or not (v == out[-1] or (math.isnan(v) and math.isnan(out[-1]))):
                out.append(v)
        return out

    edges = distinct(ordered)
    if len(edges) > MAX_BINS:
        n = len(ordered)
        edges = distinct([ordered[i * n // MAX_BINS - 1] for i in range(1, MAX_BINS + 1)])
    bins = [next(b for b, e in enumerate(edges) if v <= e or math.isnan(e))
            for v in column.tolist()]
    return edges, bins


def reference_binned_split(bins, rows, g, h, cfg):
    """(feature, bin, gain) of the best boundary of the node ``rows``, or None."""
    m = len(rows)
    g_sum, h_sum = float(g[rows].sum()), float(h[rows].sum())
    best = None
    for feat, feature_bins in enumerate(bins):
        count, g_hist, h_hist = [0] * MAX_BINS, [0.0] * MAX_BINS, [0.0] * MAX_BINS
        for r in rows.tolist():
            b = feature_bins[r]
            count[b] += 1
            g_hist[b] += float(g[r])
            h_hist[b] += float(h[r])
        c_l = g_l = h_l = 0.0
        for b in range(MAX_BINS):
            c_l, g_l, h_l = c_l + count[b], g_l + g_hist[b], h_l + h_hist[b]
            h_r = h_sum - h_l
            if 0 < c_l < m and h_l >= cfg.min_child_weight and h_r >= cfg.min_child_weight:
                gain = split_gain(g_l, h_l, g_sum - g_l, h_r, cfg.lambda_l2)
                if best is None or gain > best[2]:
                    best = (feat, b, gain)
    if best is None or not (math.isfinite(best[2]) and best[2] > 0.0):
        return None
    return best


def reference_binned_tree(x, g, h, cfg, importance):
    binned = [reference_bins(column) for column in x.T]
    bins = [feature_bins for _, feature_bins in binned]
    tree = Tree()

    def grow(rows, depth):
        found = reference_binned_split(bins, rows, g, h, cfg) if depth < cfg.max_depth else None
        if found is None:
            value = -float(g[rows].sum()) / (float(h[rows].sum()) + cfg.lambda_l2)
            return tree.add_leaf(value * cfg.learning_rate)
        feat, b, gain = found
        importance[feat] += gain
        threshold = binned[feat][0][b]
        node = tree.add_split(feat, threshold)
        left = np.array([x[r, feat] <= threshold for r in rows], dtype=bool)
        tree.left[node] = grow(rows[left], depth + 1)
        tree.right[node] = grow(rows[~left], depth + 1)
        return node

    grow(np.arange(x.shape[0]), 0)
    return tree


def reference_best_split(xt, sorted_rows, g, h, cfg):
    d, m = sorted_rows.shape
    if m < 2:
        return None
    vals = np.take_along_axis(xt, sorted_rows, axis=1)
    gl = np.cumsum(g[sorted_rows], axis=1)
    hl = np.cumsum(h[sorted_rows], axis=1)
    g_tot = float(gl[0, -1])
    h_tot = float(hl[0, -1])
    gl = gl[:, :-1]
    hl = hl[:, :-1]
    gr = g_tot - gl
    hr = h_tot - hl
    lam = cfg.lambda_l2
    parent = g_tot * g_tot / (h_tot + lam)
    gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
    valid = (
        (vals[:, :-1] < vals[:, 1:])
        & (hl >= cfg.min_child_weight)
        & (hr >= cfg.min_child_weight)
    )
    gain = np.where(valid, gain, -np.inf)
    flat = int(np.argmax(gain))  # row-major first max: lowest feature, threshold
    best_gain = float(gain.flat[flat])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    feat, pos = divmod(flat, m - 1)
    return feat, pos, best_gain


def reference_exact_tree(x, g, h, cfg, importance):
    xt = np.ascontiguousarray(x.T)
    sorted_root = np.argsort(xt, axis=1, kind="stable")
    tree = Tree()
    member = np.empty(x.shape[0], dtype=bool)

    def grow(sorted_rows, depth):
        node_rows = sorted_rows[0]
        g_sum = float(g[node_rows].sum())
        h_sum = float(h[node_rows].sum())
        if depth >= cfg.max_depth or node_rows.size < 2:
            return tree.add_leaf(-g_sum / (h_sum + cfg.lambda_l2) * cfg.learning_rate)
        found = reference_best_split(xt, sorted_rows, g, h, cfg)
        if found is None:
            return tree.add_leaf(-g_sum / (h_sum + cfg.lambda_l2) * cfg.learning_rate)
        feat, pos, gain = found
        thr = float(xt[feat, sorted_rows[feat, pos]])
        importance[feat] += gain
        node = tree.add_split(feat, thr)
        member[:] = False
        member[sorted_rows[feat, : pos + 1]] = True
        in_left = member[sorted_rows]
        left_sorted = sorted_rows[in_left].reshape(sorted_rows.shape[0], pos + 1)
        right_sorted = sorted_rows[~in_left].reshape(sorted_rows.shape[0], -1)
        tree.left[node] = grow(left_sorted, depth + 1)
        tree.right[node] = grow(right_sorted, depth + 1)
        return node

    grow(sorted_root, 0)
    return tree


def checkpoint_bytes(ens: CorrectorEnsemble) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        save_ensemble(ens, Path(tmp) / "corrector.txt")
        return (Path(tmp) / "corrector.txt").read_bytes()


def reference_fit(x, labels, config, n_classes=None, grower=reference_binned_tree):
    """fit with every tree grown by ``grower`` from ``x`` itself, and each row's
    leaf value added by walking the tree; the boosting loop around the trees
    is fit's own."""
    x = np.asarray(x, dtype=np.float64)

    def build_tree(g, h, margin, codes, edges, cfg, importance):
        tree = grower(x, g, h, cfg, importance)
        for i, row in enumerate(x):
            margin[i] += walk(tree, row)
        return tree

    with patch.object(corrector_module, "_build_tree", build_tree):
        return fit(x, labels, config, n_classes=n_classes)


def oracle_data(seed: int, n: int, d: int, k: int, special_columns: bool):
    """Latent-like columns: ReLU zeros (long ties), coarse grids (ties),
    scattered NaN and +-inf, and optionally whole NaN, +inf and -inf columns."""
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, d))
    x[:, ::2] = np.maximum(x[:, ::2], 0.0)
    x[:, 1::3] = np.round(x[:, 1::3] * 2) / 2
    cells = gen.random((n, d))
    x[cells < 0.08] = np.nan
    x[(cells >= 0.08) & (cells < 0.12)] = np.inf
    x[(cells >= 0.12) & (cells < 0.16)] = -np.inf
    if special_columns:
        x[:, gen.integers(d)] = gen.choice([np.nan, np.inf, -np.inf])
    return x, gen.integers(0, k, size=n)


class TestReferenceGrower:
    """fit grows the trees the binned reference grower grows, byte for byte,
    on any host: both run on the same numpy, so only the code differs."""

    @settings(max_examples=80, deadline=10_000)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 90),
        d=st.integers(1, 6),
        k=st.integers(2, 3),
        special_columns=st.booleans(),
        rounds=st.integers(1, 3),
        max_depth=st.integers(1, 6),
        min_child_weight=st.sampled_from([0.0, 1e-3, 0.3, 0.5, 1.0]),
        lambda_l2=st.sampled_from([0.0, 1.0]),
    )
    def test_fit_bytes_equal_the_reference(self, seed, n, d, k, special_columns, rounds,
                                           max_depth, min_child_weight, lambda_l2):
        x, labels = oracle_data(seed, n, d, k, special_columns)
        config = GbdtConfig(n_rounds=rounds, max_depth=max_depth,
                            min_child_weight=min_child_weight, lambda_l2=lambda_l2)
        want = checkpoint_bytes(reference_fit(x, labels, config, n_classes=k))
        assert checkpoint_bytes(fit(x, labels, config, n_classes=k)) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_edges_are_training_values_that_route_as_the_bins(self, seed):
        # n = 200 gives quantile edges to the wider columns; -0.0 and 0.0 tie
        x, _ = oracle_data(seed, 200, 6, 2, special_columns=True)
        x[seed::7, 1] = -0.0
        codes, edges = corrector_module._bin(x)
        assert codes.shape == x.shape
        for feat, column in enumerate(x.T):
            want_edges, want_bins = reference_bins(column)
            assert np.array_equal(edges[feat], want_edges, equal_nan=True)
            assert np.signbit(edges[feat]).tolist() == np.signbit(want_edges).tolist()
            assert (codes[:, feat] - feat * MAX_BINS).tolist() == want_bins
            assert edges[feat].size <= MAX_BINS
            for b, edge in enumerate(edges[feat][:-1]):  # the last bin is never split
                assert np.any(column == edge)
                assert np.array_equal(codes[:, feat] - feat * MAX_BINS <= b, column <= edge)

    @pytest.mark.parametrize("max_depth", [4, 6])
    @pytest.mark.parametrize("seed", range(6))
    def test_a_tree_matches_the_exact_search_on_few_values(self, seed, max_depth):
        # <= MAX_BINS distinct values per feature and no NaN: the binned search
        # scores the exact search's candidates, so the trees agree; only the
        # order of the sums differs, which rounds the leaf values differently.
        # The gradients are continuous: the class-constant gradients of a
        # first round tie distinct partitions exactly, and rounding in either
        # order may break such a tie either way.
        gen = np.random.default_rng(seed)
        x = gen.integers(-12, 13, size=(300, 5)) / 4.0
        x[:, 3] = np.maximum(x[:, 3], 0.0)
        x[gen.random(300) < 0.05, 4] = np.inf
        x[gen.random(300) < 0.05, 2] = -np.inf
        g = gen.standard_normal(300) + x[:, 0] * x[:, 1]
        h = gen.uniform(0.05, 0.25, 300)
        cfg = GbdtConfig(max_depth=max_depth, min_child_weight=0.5)
        got_importance, want_importance = np.zeros(5), np.zeros(5)
        got = corrector_module._build_tree(g, h, np.zeros(300), *corrector_module._bin(x),
                                           cfg, got_importance)
        want = reference_exact_tree(x, g, h, cfg, want_importance)
        assert got.n_nodes > 7
        assert (got.feature, got.threshold, got.left, got.right) == (
            want.feature, want.threshold, want.left, want.right)
        np.testing.assert_allclose(got.value, want.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_importance, want_importance, rtol=1e-9)

    @pytest.mark.parametrize("max_depth", [1, 3, 7])
    @pytest.mark.parametrize("seed", range(3))
    def test_last_loss_is_the_packed_evaluators(self, seed, max_depth):
        # fit adds each leaf's value where it makes the leaf; the packed
        # evaluator scores the finished trees: the margins agree bit for bit
        x, labels = oracle_data(seed, 150, 6, 3, special_columns=True)
        ens = fit(x, labels, GbdtConfig(n_rounds=6, max_depth=max_depth, min_child_weight=0.0),
                  n_classes=3)
        assert ens.loss_curve[-1] == corrector_module._log_loss(ens.predict_proba(x), labels)

    @pytest.mark.parametrize("min_child_weight", [0.0, 1e-3, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("below", [False, True])
    def test_hessian_sum_at_twice_min_child_weight(self, min_child_weight, below):
        # two rows of hessian mcw and h_tot - mcw: h_tot is exactly 2*mcw, or
        # one ulp below it (the subtraction is exact by Sterbenz's lemma)
        h_tot = 2 * min_child_weight
        if below:
            h_tot = np.nextafter(h_tot, -np.inf)
        h = np.array([min_child_weight, h_tot - min_child_weight])
        assert h[0] + h[1] == h_tot
        self.check_node(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([-1.0, 1.0]), h,
                        min_child_weight, found=not below)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("below", [False, True])
    def test_random_node_at_twice_min_child_weight(self, seed, below):
        # min_child_weight is half of the node's hessian sum, or one ulp
        # above that half, so the sum is exactly 2*mcw or one ulp below it
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((40, 4))
        x[:, 3] = np.round(x[:, 3])
        g, h = gen.standard_normal(40), gen.random(40)
        mcw = float(h.sum()) / 2
        if below:
            mcw = float(np.nextafter(mcw, np.inf))
        self.check_node(x, g, h, mcw, found=False if below else None)

    @staticmethod
    def check_node(x, g, h, min_child_weight, found):
        """The root node of every row of x: fit's grower splits it as the
        reference does, and splits exactly when ``found`` says (None: either)."""
        cfg = GbdtConfig(max_depth=1, min_child_weight=min_child_weight)
        got_importance, want_importance = np.zeros(x.shape[1]), np.zeros(x.shape[1])
        got = corrector_module._build_tree(g, h, np.zeros(x.shape[0]),
                                           *corrector_module._bin(x), cfg, got_importance)
        want = reference_binned_tree(x, g, h, cfg, want_importance)
        assert (got.feature, got.threshold, got.value) == (want.feature, want.threshold,
                                                            want.value)
        assert got_importance.tolist() == want_importance.tolist()
        if found is not None:
            assert (got.n_nodes == 3) == found
