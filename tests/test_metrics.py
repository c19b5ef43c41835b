"""Metric calculus checks.

The hand-worked set example is derived in comments; the vectorized path is
pinned against the nested-loop oracle; published reference tables from the
seven-emotion case study serve as arithmetic cross-checks (including the
places where the printed numbers disagree with their own arithmetic).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab.core import NEW_CLASS
from mclab.metrics import (
    EPSILON_DEFAULT,
    ClassMetrics,
    PairedPredictions,
    accuracy,
    aggregate,
    brute_force_oracle,
    evaluate,
    per_class,
    report_to_csv,
    report_to_text,
)

# Reference tables from the seven-emotion case study. Rows are true classes
# 1..7, columns are corrector ids 1..7. The "average" rows are the values as
# printed; some disagree with the arithmetic mean of their own column.
REF_RETENTION = np.array([
    [1.000, 1.000, 1.000, 0.963, 0.995, 0.997, 0.971],
    [0.898, 1.000, 0.977, 0.989, 1.000, 0.977, 1.000],
    [1.000, 1.000, 1.000, 0.977, 1.000, 1.000, 0.945],
    [0.999, 0.999, 0.999, 1.000, 0.997, 0.999, 0.975],
    [0.992, 1.000, 0.995, 0.876, 1.000, 1.000, 0.881],
    [0.981, 0.995, 1.000, 0.903, 0.968, 1.000, 0.977],
    [0.982, 0.999, 0.997, 0.955, 0.957, 1.000, 1.000],
])
REF_HARM = np.array([
    [0.000, 0.000, 0.000, 0.037, 0.005, 0.003, 0.029],
    [0.102, 0.000, 0.023, 0.011, 0.000, 0.023, 0.000],
    [0.000, 0.000, 0.000, 0.023, 0.000, 0.000, 0.055],
    [0.001, 0.001, 0.001, 0.000, 0.003, 0.001, 0.025],
    [0.008, 0.000, 0.005, 0.124, 0.000, 0.000, 0.119],
    [0.019, 0.005, 0.000, 0.097, 0.032, 0.000, 0.023],
    [0.018, 0.001, 0.003, 0.045, 0.043, 0.000, 0.000],
])
REF_AVG_RETENTION = np.array([0.973, 0.999, 0.996, 0.940, 0.995, 0.996, 0.963])
REF_AVG_HARM = np.array([0.021, 0.001, 0.005, 0.048, 0.012, 0.004, 0.036])

# Accuracy of each corrected classifier (columns) when the row's class was
# excluded from base training, the uncorrected accuracy, and the printed
# accuracy ratio P.
REF_ACCURACY = np.array([
    [0.51, 0.77, 0.79, 0.84, 0.75, 0.76, 0.80],
    [0.55, 0.24, 0.06, 0.43, 0.47, 0.45, 0.39],
    [0.38, 0.50, 0.48, 0.98, 0.98, 0.97, 0.95],
    [0.99, 0.99, 0.99, 0.77, 0.86, 0.90, 0.92],
    [0.69, 0.71, 0.72, 0.71, 0.24, 0.72, 0.80],
    [0.68, 0.66, 0.63, 0.63, 0.73, 0.20, 0.63],
    [0.77, 0.76, 0.73, 0.79, 0.87, 0.71, 0.59],
])
REF_ACC_NO_CORR = np.array([0.78, 0.43, 0.74, 0.90, 0.78, 0.67, 0.90])
REF_POWER = np.array([0.55, 0.56, 0.65, 0.86, 0.31, 0.30, 0.66])


def triple(true, base, corr, k) -> PairedPredictions:
    return PairedPredictions(np.array(true), np.array(base), np.array(corr), k)


def random_pair(seed: int, n: int = 500, k: int = 7) -> PairedPredictions:
    gen = np.random.default_rng(seed)
    corr = gen.integers(0, k, size=n)
    corr[gen.random(n) < 0.03] = NEW_CLASS
    return PairedPredictions(
        gen.integers(0, k, size=n), gen.integers(0, k, size=n), corr, k
    )


class TestPairedPredictions:
    def test_rejects_bad_shapes_and_ranges(self):
        with pytest.raises(ValueError, match="aligned"):
            triple([0, 1], [0], [0, 1], 2)
        with pytest.raises(ValueError, match="empty"):
            triple([], [], [], 2)
        with pytest.raises(ValueError, match="true labels"):
            triple([2], [0], [0], 2)
        with pytest.raises(ValueError, match="base labels"):
            triple([0], [-1], [0], 2)
        with pytest.raises(ValueError, match="corrected labels"):
            triple([0], [0], [-2], 2)
        with pytest.raises(ValueError, match="n_classes"):
            triple([0], [0], [0], 0)

    def test_sentinel_allowed_only_in_corrected(self):
        p = triple([0, 1], [0, 1], [NEW_CLASS, 1], 2)
        assert p.n == 2

    def test_vectors_are_frozen(self):
        p = triple([0, 1], [0, 1], [0, 1], 2)
        with pytest.raises(ValueError):
            p.true_labels[0] = 1


class TestAccuracy:
    def test_identical_is_one(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint_is_zero(self):
        assert accuracy([1, 2, 3], [2, 3, 1]) == 0.0

    def test_hand_count(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 0, 0]) == 0.5

    def test_sentinel_never_matches(self):
        assert accuracy([0, 1], [NEW_CLASS, 1]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestPerClass:
    def test_worked_set_example(self):
        # N_0 = 10; base correct on samples {0..5}, corrected on {0..4, 6, 7}:
        # A=6, B=7, A&B=5 -> Ret 5/6, Harm 1/6, Gain (7-5)/(10-6)=1/2
        true = [0] * 10
        base = [0] * 6 + [1] * 4
        corr = [0] * 5 + [1] + [0, 0] + [1, 1]
        m = per_class(triple(true, base, corr, 2), 0)
        assert m.count == 10
        assert m.tpr_base == pytest.approx(0.6, abs=1e-12)
        assert m.tpr_corrected == pytest.approx(0.7, abs=1e-12)
        assert m.delta == pytest.approx(0.1, abs=1e-12)
        assert m.retention == pytest.approx(5 / 6, abs=1e-12)
        assert m.harm == pytest.approx(1 / 6, abs=1e-12)
        assert m.gain == pytest.approx(0.5, abs=1e-12)
        assert m.ratio == pytest.approx(0.7 / (0.6 + EPSILON_DEFAULT), abs=1e-12)

    def test_identity_corrector(self):
        true = [0, 0, 0, 1, 1]
        base = [0, 0, 1, 1, 0]
        m = per_class(triple(true, base, base, 2), 0)
        assert m.retention == 1.0
        assert m.harm == 0.0
        assert m.delta == 0.0
        assert m.delta_fpr == 0.0

    def test_published_cell_complement(self):
        # a fraction printing as 0.898 must print its complement as 0.102
        true = [0] * 500
        base = [0] * 500
        corr = [0] * 449 + [1] * 51
        m = per_class(triple(true + [1], base + [1], corr + [1], 2), 0)
        assert m.retention == pytest.approx(0.898, abs=1e-12)
        assert m.harm == pytest.approx(0.102, abs=1e-12)

    def test_zero_count_class_is_undefined(self):
        m = per_class(triple([0, 0], [0, 1], [0, 1], 3), 2)
        assert m.count == 0
        for f in ("tpr_base", "tpr_corrected", "delta", "ratio", "retention",
                  "harm", "gain"):
            assert getattr(m, f) is None
        assert m.fpr_base is not None  # complement still populated

    def test_no_base_correct_leaves_retention_undefined(self):
        m = per_class(triple([0, 0, 1], [1, 1, 1], [0, 1, 1], 2), 0)
        assert m.retention is None and m.harm is None
        assert m.gain == pytest.approx(0.5)

    def test_single_class_population_has_no_fpr(self):
        m = per_class(triple([0, 0], [0, 0], [0, 0], 1), 0)
        assert m.fpr_base is None and m.fpr_corrected is None
        assert m.delta_fpr is None and m.spill is None

    def test_sentinel_counts_against_true_class_and_spills_nowhere(self):
        p = triple([0, 0, 1, 1], [0, 0, 1, 0], [0, NEW_CLASS, 1, 1], 2)
        m0 = per_class(p, 0)
        m1 = per_class(p, 1)
        assert m0.tpr_corrected == 0.5
        assert m0.harm == 0.5
        assert m1.fpr_corrected == 0.0  # the sentinel is not class 1
        assert evaluate(p).new_class_rate == 0.25

    def test_out_of_range_label_raises(self):
        with pytest.raises(ValueError, match="outside"):
            per_class(triple([0], [0], [0], 2), 5)


class TestAggregate:
    def mk(self, label, count, retention, harm=None, gain=0.0, delta_fpr=0.0):
        if harm is None and retention is not None:
            harm = 1.0 - retention
        return ClassMetrics(
            label=label, count=count, tpr_base=0.5, tpr_corrected=0.5,
            delta=0.0, ratio=1.0, retention=retention, harm=harm, gain=gain,
            fpr_base=0.0, fpr_corrected=0.0, delta_fpr=delta_fpr, spill=0.0,
        )

    def test_all_ones_average_to_one(self):
        rows = [self.mk(i, 10, 1.0) for i in range(3)]
        agg = aggregate(rows, [10, 10, 10], 15, 15)
        assert agg.retention_macro == 1.0
        assert agg.retention_weighted == pytest.approx(1.0, abs=1e-12)

    def test_power_is_accuracy_ratio(self):
        # 10/20 base correct vs 9/20 corrected: P = 0.45 / 0.50
        true = [0] * 10 + [1] * 10
        base = [0] * 10 + [0] * 10
        corr = [0] * 9 + [1] + [0] * 10
        agg = evaluate(triple(true, base, corr, 2)).aggregate
        assert agg.accuracy_base == pytest.approx(0.5, abs=1e-12)
        assert agg.accuracy_corrected == pytest.approx(0.45, abs=1e-12)
        assert agg.power == pytest.approx(0.9, abs=1e-12)

    def test_accuracies_are_the_correct_counts_over_n(self):
        # the counts alone set the accuracies, whatever the per-class rates
        rows = [self.mk(i, 10, 1.0) for i in range(3)]
        agg = aggregate(rows, [10, 10, 10], 21, 14)
        assert agg.accuracy_base == 21 / 30
        assert agg.accuracy_corrected == 14 / 30
        assert agg.power == (14 / 30) / (21 / 30)

    def test_undefined_classes_are_skipped(self):
        rows = [self.mk(0, 10, 1.0), self.mk(1, 30, None, harm=None), self.mk(2, 10, 0.5)]
        agg = aggregate(rows, [10, 30, 10], 25, 25)
        assert agg.retention_macro == pytest.approx(0.75)
        # weighted sum runs over defined classes with N_i / N weights
        assert agg.retention_weighted == pytest.approx((10 * 1.0 + 10 * 0.5) / 50)

    def test_weighted_uses_frequency(self):
        rows = [self.mk(0, 90, 1.0), self.mk(1, 10, 0.0)]
        agg = aggregate(rows, [90, 10], 50, 50)
        assert agg.retention_macro == pytest.approx(0.5)
        assert agg.retention_weighted == pytest.approx(0.9)

    def test_all_undefined_field_raises(self):
        p = triple([0, 0, 1], [1, 1, 0], [0, 1, 1], 2)  # base never correct
        with pytest.raises(ValueError, match="retention"):
            evaluate(p)

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="one count per class"):
            aggregate([self.mk(0, 5, 1.0)], [5, 5], 5, 5)

    def test_published_column_mean_disagrees_with_printed_average(self):
        # column 1 of the retention table: the arithmetic mean of the printed
        # per-class cells is ~0.979, not the printed average 0.973
        rows = [self.mk(i, 10, float(REF_RETENTION[i, 0])) for i in range(7)]
        agg = aggregate(rows, [10] * 7, 35, 35)
        assert agg.retention_macro == pytest.approx(0.97885714285, abs=1e-9)
        assert abs(agg.retention_macro - REF_AVG_RETENTION[0]) > 0.004

    def test_published_harm_averages_are_column_means(self):
        # the printed harm averages DO match their column means; retention is
        # the aberrant row
        for col in range(7):
            mean = float(REF_HARM[:, col].mean())
            assert abs(mean - REF_AVG_HARM[col]) <= 0.001


class TestPublishedTables:
    def test_every_cell_pair_is_complementary(self):
        # Ret + Harm = 1 must survive 3-decimal printing in every cell
        np.testing.assert_allclose(REF_RETENTION + REF_HARM, 1.0, atol=1e-3)

    def test_power_column_matches_diagonal_ratio_except_first_row(self):
        diag = np.diag(REF_ACCURACY)
        computed = diag / REF_ACC_NO_CORR
        for row in range(1, 7):
            assert abs(computed[row] - REF_POWER[row]) <= 0.006
        # first row prints 0.55 but its own accuracies give 0.51/0.78 = 0.65
        assert abs(computed[0] - REF_POWER[0]) > 0.05
        assert computed[0] == pytest.approx(0.6538, abs=1e-3)


class TestOracleEquality:
    def assert_reports_identical(self, fast, slow):
        assert fast.n == slow.n
        assert fast.class_counts == slow.class_counts
        assert fast.new_class_rate == slow.new_class_rate
        for mf, ms in zip(fast.per_class, slow.per_class):
            for f in ClassMetrics.__dataclass_fields__:
                assert getattr(mf, f) == getattr(ms, f), f
        for f in type(fast.aggregate).__dataclass_fields__:
            assert getattr(fast.aggregate, f) == getattr(slow.aggregate, f), f

    def test_random_logs_match_exactly(self):
        for seed in range(100):
            p = random_pair(seed)
            self.assert_reports_identical(evaluate(p), brute_force_oracle(p))

    def test_single_sample_log(self):
        p = triple([0], [0], [0], 2)
        m = per_class(p, 0)
        for f in ("tpr_base", "tpr_corrected", "retention", "harm"):
            assert getattr(m, f) in (0.0, 1.0)
        # gain is undefined for every class here, so both report paths must
        # refuse to aggregate, in the same way
        with pytest.raises(ValueError, match="gain"):
            evaluate(p)
        with pytest.raises(ValueError, match="gain"):
            brute_force_oracle(p)

    def test_two_sample_log(self):
        p = triple([0, 1], [0, 0], [0, 1], 2)
        rep = evaluate(p)
        for m in rep.per_class:
            for f in ("tpr_base", "tpr_corrected", "retention", "harm", "gain"):
                v = getattr(m, f)
                assert v is None or v in (0.0, 1.0)
        self.assert_reports_identical(rep, brute_force_oracle(p))

    def test_sample_order_is_irrelevant(self):
        p = random_pair(7, n=200)
        perm = np.random.default_rng(0).permutation(200)
        shuffled = PairedPredictions(
            p.true_labels[perm], p.base_labels[perm],
            p.corrected_labels[perm], p.n_classes,
        )
        self.assert_reports_identical(evaluate(p), evaluate(shuffled))


@st.composite
def prediction_triples(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 60))
    ints = st.integers(0, k - 1)
    t = draw(st.lists(ints, min_size=n, max_size=n))
    b = draw(st.lists(ints, min_size=n, max_size=n))
    c = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    return PairedPredictions(np.array(t), np.array(b), np.array(c), k)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(prediction_triples())
    def test_retention_harm_complement_and_ranges(self, preds):
        for i in range(preds.n_classes):
            m = per_class(preds, i)
            assert m.spill == m.fpr_corrected
            if m.retention is not None:
                assert m.harm is not None
                assert abs(m.retention + m.harm - 1.0) < 1e-12
            for f in ("tpr_base", "tpr_corrected", "retention", "harm", "gain",
                      "fpr_base", "fpr_corrected", "spill"):
                v = getattr(m, f)
                if v is not None:
                    assert 0.0 <= v <= 1.0
            if m.ratio is not None:
                assert m.ratio >= 0.0
            for f in ("delta", "delta_fpr"):
                v = getattr(m, f)
                if v is not None:
                    assert -1.0 <= v <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(prediction_triples())
    def test_epsilon_perturbs_ratio_by_bounded_amount(self, preds):
        eps = EPSILON_DEFAULT
        for i in range(preds.n_classes):
            m = per_class(preds, i)
            if m.tpr_base and m.ratio is not None:
                exact = m.tpr_corrected / m.tpr_base
                assert abs(m.ratio - exact) <= eps * m.ratio / m.tpr_base + 1e-15


class TestRendering:
    def test_csv_blocks_and_one_based_labels(self):
        p = triple([0, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, NEW_CLASS], 2)
        text = report_to_csv(evaluate(p))
        lines = text.splitlines()
        assert lines[0].startswith("label,count,tpr_base,")
        assert lines[1].startswith("1,2,")
        assert lines[2].startswith("2,2,")
        assert "aggregate,value" in lines
        assert any(l.startswith("new_class_rate,0.25") for l in lines)
        assert any(l.startswith("accuracy_base,0.750000") for l in lines)

    def test_csv_leaves_undefined_cells_empty(self):
        p = triple([0, 0, 1], [1, 1, 1], [1, 0, 1], 2)  # class 0: A empty
        text = report_to_csv(evaluate(p))
        row = text.splitlines()[1].split(",")
        names = ("label", "count") + tuple(
            f for f in ("tpr_base", "tpr_corrected", "delta", "ratio",
                        "retention", "harm", "gain", "fpr_base",
                        "fpr_corrected", "delta_fpr", "spill")
        )
        assert row[names.index("retention")] == ""
        assert row[names.index("harm")] == ""
        assert row[names.index("gain")] != ""

    def test_text_table_carries_labels_and_summary(self):
        p = triple([0, 1, 1], [0, 1, 0], [0, 1, 1], 2)
        lines = report_to_text(evaluate(p)).splitlines()
        assert lines[0].split()[:2] == ["class", "n"]
        assert [line.split()[:2] for line in lines[1:3]] == [["1", "1"], ["2", "2"]]
        assert lines[3] == ""
        assert lines[4].startswith("macro: retention=")
        assert lines[5].startswith("accuracy: base=0.667 corrected=1.000 P=1.500")
