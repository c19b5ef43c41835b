"""Class names, dataset container, RNG streams, splitting, weights."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab.core import (
    LabeledDataset,
    Rng,
    SplitSpec,
    class_weights,
    datasets_equal,
    default_names,
    derived_seed,
    exclude_class,
    largest_remainder,
    split_dataset,
    validation_slice,
)
from mclab.datagen import ProfileConfig, generate_gaussian

from reference_fixture import dataset_sha256

# Per-class totals of the reference imbalanced corpus (sum 15339).
CORPUS_COUNTS = (1619, 355, 877, 5957, 2460, 867, 3204)
# Its train-split per-class counts (sum 7669).
TRAIN_COUNTS = (814, 166, 449, 2974, 1216, 435, 1615)


def make_dataset(counts, dim=3):
    """Features carry (class, within-class index) so splits can be audited."""
    labels = np.concatenate(
        [np.full(c, i, dtype=np.int64) for i, c in enumerate(counts)]
    )
    n = labels.size
    feats = np.zeros((n, dim), dtype=np.float32)
    feats[:, 0] = labels
    feats[:, 1] = np.arange(n)
    return LabeledDataset(feats, labels, len(counts))


class TestLabelSpace:
    def test_default_names(self):
        assert default_names(3) == ("class1", "class2", "class3")


class TestLabeledDataset:
    def test_arrays_frozen_without_touching_caller(self):
        feats = np.zeros((4, 2), dtype=np.float32)
        labels = np.zeros(4, dtype=np.int64)
        data = LabeledDataset(feats, labels, 1)
        assert not data.features.flags.writeable
        assert not data.labels.flags.writeable
        assert feats.flags.writeable  # caller's array untouched
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(
                np.zeros((2, 1), dtype=np.float32),
                np.array([0, 3], dtype=np.int64),
                2,
            )

    @pytest.mark.parametrize("k", [0, -1, True, 2.0, "2", ("a", "b"), np.int64(2)],
                             ids=["zero", "negative", "bool", "float", "str", "names", "numpy"])
    def test_class_count_is_a_positive_int(self, k):
        with pytest.raises(ValueError, match="n_classes must be a positive int"):
            LabeledDataset(np.zeros((2, 1), dtype=np.float32), np.array([0, 0]), k)

    def test_class_counts(self):
        data = make_dataset((3, 0, 2))
        assert data.class_counts.tolist() == [3, 0, 2]

    def test_subset_preserves_order(self):
        data = make_dataset((5, 5))
        sub = data.subset(np.array([7, 2, 4]))
        assert sub.features[:, 1].tolist() == [7.0, 2.0, 4.0]
        assert len(sub) == 3

    def test_subset_copies_its_rows_once(self):
        data = generate_gaussian(ProfileConfig().to_cluster_spec(), 50_000, Rng.from_seed(0))
        tracemalloc.start()
        try:
            idx = np.arange(0, 50_000, 2)
            sub = data.subset(idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (sub.features.nbytes + sub.labels.nbytes)
        assert not sub.features.flags.writeable and not sub.labels.flags.writeable
        assert not np.shares_memory(sub.features, data.features)
        assert not np.shares_memory(sub.labels, data.labels)
        assert idx.flags.writeable  # the caller's buffer is never frozen

    def test_datasets_differing_only_in_names_are_not_equal(self):
        """Two datasets with the same rows but a different K are different."""
        data = make_dataset((4, 3))
        wider = LabeledDataset(data.features, data.labels, 3)
        assert datasets_equal(data, LabeledDataset(data.features, data.labels, 2))
        assert not datasets_equal(data, wider)


class TestRng:
    def test_same_path_same_stream(self):
        a = Rng.from_seed(7).derive("split").generator().random(5)
        b = Rng.from_seed(7).derive("split").generator().random(5)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = Rng.from_seed(7).derive("split").generator().random(5)
        b = Rng.from_seed(7).derive("train").generator().random(5)
        assert not np.array_equal(a, b)

    def test_nested_derivation_order_matters(self):
        a = Rng.from_seed(7).derive("a", "b").generator().random(3)
        b = Rng.from_seed(7).derive("b", "a").generator().random(3)
        assert not np.array_equal(a, b)

    def test_int_and_string_parts_mix(self):
        a = Rng.from_seed(0).derive("run", 3).generator().random(2)
        b = Rng.from_seed(0).derive("run", 3).generator().random(2)
        assert np.array_equal(a, b)

    def test_derived_seed_is_stable_int(self):
        s1 = derived_seed(42, "split")
        s2 = derived_seed(42, "split")
        assert isinstance(s1, int) and s1 == s2 and s1 >= 0
        assert derived_seed(42, "train") != s1


class TestLargestRemainder:
    def test_exact_fractions_pass_through(self):
        assert largest_remainder([2.0, 3.0, 5.0], 10).tolist() == [2, 3, 5]

    def test_half_remainders_tie_break_stable(self):
        # ideals 5.0/2.5/2.5: the two .5 remainders win in positional order
        assert largest_remainder([5.0, 2.5, 2.5], 10).tolist() == [5, 3, 2]

    @given(
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=137),
    )
    def test_conserves_total_and_stays_within_one(self, weights, total):
        w = np.asarray(weights, dtype=np.float64)
        if w.sum() == 0:
            w = w + 1.0
        ideals = w / w.sum() * total
        alloc = largest_remainder(ideals, total)
        assert alloc.sum() == total
        assert np.all(alloc >= np.floor(ideals))
        assert np.all(alloc <= np.ceil(ideals))


class TestSplitDataset:
    def test_corpus_counts_split_sizes(self):
        # 15339 at 0.5/0.25/0.25: floors 7669/3834/3834, remainders
        # 0.5/0.75/0.75, so the last two splits each gain one
        data = make_dataset(CORPUS_COUNTS)
        tr, co, te = split_dataset(data, SplitSpec(seed=0))
        assert (len(tr), len(co), len(te)) == (7669, 3835, 3835)

    def test_corpus_counts_per_class_within_one(self):
        data = make_dataset(CORPUS_COUNTS)
        parts = split_dataset(data, SplitSpec(seed=3))
        for i, total in enumerate(CORPUS_COUNTS):
            got = [int(np.sum(p.labels == i)) for p in parts]
            assert sum(got) == total
            for g, f in zip(got, (0.5, 0.25, 0.25)):
                assert np.floor(total * f) <= g <= np.ceil(total * f)

    def test_single_class_ten_samples(self):
        data = make_dataset((10,))
        tr, co, te = split_dataset(data, SplitSpec(seed=0))
        assert (len(tr), len(co), len(te)) == (5, 3, 2)

    def test_partition_is_exact(self):
        data = make_dataset((40, 13, 27))
        parts = split_dataset(data, SplitSpec(seed=1))
        seen = np.concatenate([p.features[:, 1] for p in parts])
        assert sorted(seen.tolist()) == list(range(80))

    def test_same_seed_reproduces(self):
        data = make_dataset((40, 13, 27))
        a = split_dataset(data, SplitSpec(seed=5))
        b = split_dataset(data, SplitSpec(seed=5))
        for x, y in zip(a, b):
            assert datasets_equal(x, y)

    def test_different_seed_changes_membership(self):
        data = make_dataset((40, 13, 27))
        a, _, _ = split_dataset(data, SplitSpec(seed=5))
        b, _, _ = split_dataset(data, SplitSpec(seed=6))
        assert not np.array_equal(
            np.sort(a.features[:, 1]), np.sort(b.features[:, 1])
        )

    def test_thin_class_is_an_error(self):
        data = make_dataset((20, 2))
        with pytest.raises(ValueError, match="class 1"):
            split_dataset(data, SplitSpec(seed=0))

    def test_empty_class_is_allowed(self):
        data = make_dataset((20, 0, 12))
        parts = split_dataset(data, SplitSpec(seed=0))
        assert all(int(np.sum(p.labels == 1)) == 0 for p in parts)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(fractions=(0.5, 0.3, 0.3), seed=0)

    def test_unresolved_seed_rejected(self):
        # a seed is resolved before a spec exists, so None cannot be built
        with pytest.raises(ValueError, match="^seed: must be a 64-bit non-negative integer, not None$"):
            SplitSpec(seed=None)

    def test_non_stratified_sizes_still_exact(self):
        data = make_dataset(CORPUS_COUNTS)
        tr, co, te = split_dataset(data, SplitSpec(seed=0, stratified=False))
        assert (len(tr), len(co), len(te)) == (7669, 3835, 3835)

    def test_non_stratified_parts_are_pinned(self):
        # counter-based streams and exact arithmetic: the same bytes on every host
        data = generate_gaussian(ProfileConfig().to_cluster_spec(), 700, Rng.from_seed(7))
        parts = split_dataset(data, SplitSpec((0.5, 0.25, 0.25), stratified=False, seed=7))
        assert [dataset_sha256(p) for p in parts] == [
            "4770c4af718798234d2a4dea7bc6ebef41ea5f3884d546fa72fe69e2c11ecc55",
            "7e0d8e960bf61dd95d91d4c2b4cd18f155a2153090f3d7c8a889d3a3a50d1d56",
            "32fb1e75a710458ef727b7ba06bb6a9af18f28ccda73650f273d69a2b39668cb",
        ]

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.integers(min_value=3, max_value=40).filter(lambda c: c != 0),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_stratified_invariants_hold(self, counts, seed):
        data = make_dataset(tuple(counts))
        n = sum(counts)
        parts = split_dataset(data, SplitSpec(seed=seed))
        ideals = [n * f for f in (0.5, 0.25, 0.25)]
        for p, ideal in zip(parts, ideals):
            assert np.floor(ideal) <= len(p) <= np.ceil(ideal)
        assert sum(len(p) for p in parts) == n
        for i, c in enumerate(counts):
            cells = [int(np.sum(p.labels == i)) for p in parts]
            assert sum(cells) == c
            for cell, f in zip(cells, (0.5, 0.25, 0.25)):
                assert np.floor(c * f) <= cell <= np.ceil(c * f)


class TestValidationSlice:
    def test_stratified_partition_of_the_train_split(self):
        data = make_dataset((40, 13, 27))
        fit, val = validation_slice(data, split_seed=4)
        seen = np.concatenate([fit.features[:, 1], val.features[:, 1]])
        assert sorted(seen.tolist()) == list(range(80))
        for i, total in enumerate((40, 13, 27)):
            got = int(np.sum(val.labels == i))
            assert np.floor(total * 0.2) <= got <= np.ceil(total * 0.2)

    def test_split_seed_pins_the_slice(self):
        data = make_dataset((40, 13, 27))
        a = validation_slice(data, split_seed=4)
        b = validation_slice(data, split_seed=4)
        c = validation_slice(data, split_seed=5)
        assert all(datasets_equal(x, y) for x, y in zip(a, b))
        assert not datasets_equal(a[1], c[1])

    def test_single_sample_class_stays_in_fit(self):
        data = make_dataset((20, 1, 12))
        fit, val = validation_slice(data, split_seed=0)
        assert int(np.sum(fit.labels == 1)) == 1
        assert int(np.sum(val.labels == 1)) == 0
        assert len(fit) + len(val) == 33


class TestExcludeClass:
    def test_drops_exactly_one_class(self):
        data = make_dataset(TRAIN_COUNTS)
        kept = exclude_class(data, 1)
        assert len(kept) == 7669 - 166 == 7503
        assert int(np.sum(kept.labels == 1)) == 0
        assert kept.n_classes == data.n_classes  # K unchanged

    def test_order_is_stable(self):
        data = make_dataset((4, 3, 5))
        kept = exclude_class(data, 1)
        assert np.all(np.diff(kept.features[:, 1]) > 0)

    def test_unknown_class_rejected(self):
        data = make_dataset((4, 3))
        with pytest.raises(ValueError):
            exclude_class(data, 2)


class TestClassWeights:
    def test_reference_train_counts(self):
        # N/n_i on the train split: Fear (166 of 7669) and Happiness
        # (2974 of 7669) pin the extremes of the imbalance
        data = make_dataset(TRAIN_COUNTS)
        w = class_weights(data)
        assert abs(w[1] - 7669 / 166) <= 1e-12
        assert abs(w[3] - 7669 / 2974) <= 1e-12
        for i, c in enumerate(TRAIN_COUNTS):
            assert abs(w[i] - 7669 / c) <= 1e-12

    def test_excluded_class_gets_zero_and_shrinks_n(self):
        data = make_dataset((10, 30, 20))
        w = class_weights(data, excluded={1})
        assert w[1] == 0.0
        assert w[0] == pytest.approx(30 / 10, abs=1e-12)
        assert w[2] == pytest.approx(30 / 20, abs=1e-12)

    def test_masking_equals_deleting(self):
        data = make_dataset((10, 30, 20))
        masked = class_weights(data, excluded={1})
        deleted = class_weights(exclude_class(data, 1), excluded={1})
        assert np.array_equal(masked, deleted)

    def test_empty_non_excluded_class_is_an_error(self):
        data = make_dataset((10, 0, 20))
        with pytest.raises(ValueError, match="class 1"):
            class_weights(data)

    def test_empty_excluded_class_is_fine(self):
        data = make_dataset((10, 0, 20))
        w = class_weights(data, excluded={1})
        assert w[1] == 0.0 and w[0] == 3.0
