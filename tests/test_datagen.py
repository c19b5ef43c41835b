"""Synthetic imbalanced clusters, toy images, dataset file round-trips."""

import tracemalloc
import warnings

import numpy as np
import pytest

from mclab.core import Rng, datasets_equal, default_names
from mclab.corrector import GbdtConfig
from mclab.corrector import fit as fit_gbdt
from mclab.datagen import (
    ClusterSpec,
    DatasetFormatError,
    ProfileConfig,
    SequenceImageSpec,
    generate_gaussian,
    generate_toy_images,
    load_dataset,
    save_dataset,
)

from reference_fixture import dataset_sha256


# the seven-class emotion-style profile of the default config
DEFAULT_PROFILE = ProfileConfig().to_cluster_spec()


def two_cluster_spec(dim=4, dist=8.0, scale=1.0):
    means = np.zeros((2, dim))
    means[1, 0] = dist
    return ClusterSpec(
        means=means,
        covariance_scale=np.full(2, scale),
        proportions=np.array([0.5, 0.5]),
        names=("a", "b"),
    )


class TestClusterSpec:
    def test_default_profile_normalizes_percent_roundings(self):
        # the source percentages sum to 100.2; the default profile stores
        # them renormalized so the sum-to-1 invariant holds
        spec = DEFAULT_PROFILE
        assert spec.proportions.sum() == pytest.approx(1.0, abs=1e-12)
        assert spec.means.shape == (7, 64)

    def test_close_pair_distance(self):
        profile = ProfileConfig(separation=6.0, close_pair=(3, 6), close_distance=4.0)
        spec = profile.to_cluster_spec()
        d36 = np.linalg.norm(spec.means[3] - spec.means[6])
        assert d36 == pytest.approx(4.0)
        # every other pair is far apart
        for i in range(7):
            for j in range(i + 1, 7):
                if (i, j) != (3, 6):
                    assert np.linalg.norm(spec.means[i] - spec.means[j]) > 5.9

    def test_bad_proportions_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(
                means=np.zeros((2, 3)),
                covariance_scale=np.ones(2),
                proportions=np.array([0.6, 0.6]),
                names=("a", "b"),
            )

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(
                means=np.zeros((2, 3)),
                covariance_scale=np.array([1.0, -0.5]),
                proportions=np.array([0.5, 0.5]),
                names=("a", "b"),
            )


class TestGenerateGaussian:
    def test_default_profile_counts_10000(self):
        # largest remainder on the renormalized profile; every class lands
        # within 8 of the nominal percent-times-n reading
        data = generate_gaussian(DEFAULT_PROFILE, 10000, Rng.from_seed(0))
        counts = data.class_counts.tolist()
        assert counts == [3882, 2086, 1607, 1058, 569, 569, 229]
        assert sum(counts) == 10000
        nominal = [3890, 2090, 1610, 1060, 570, 570, 230]
        assert all(abs(c - m) <= 8 for c, m in zip(counts, nominal))

    def test_default_profile_counts_7000(self):
        data = generate_gaussian(DEFAULT_PROFILE, 7000, Rng.from_seed(1))
        assert data.class_counts.tolist() == [2718, 1460, 1125, 740, 398, 398, 161]

    def test_even_split(self):
        data = generate_gaussian(two_cluster_spec(), 100, Rng.from_seed(0))
        assert data.class_counts.tolist() == [50, 50]

    def test_sample_means_near_spec_means(self):
        # post-hoc law-of-large-numbers check: at this seed every class mean
        # sits within 3 sigma / sqrt(n_i) of its spec mean per coordinate
        # (with 448 coordinates a random seed occasionally grazes 3 sigma,
        # so the seed is pinned; worst observed ratio here is 0.93)
        spec = DEFAULT_PROFILE
        data = generate_gaussian(spec, 10000, Rng.from_seed(11))
        x = np.asarray(data.features, dtype=np.float64)
        for c in range(7):
            rows = x[data.labels == c]
            err = rows.mean(axis=0) - spec.means[c]
            bound = 3.0 * spec.covariance_scale[c] / np.sqrt(rows.shape[0])
            assert np.all(np.abs(err) <= bound)
            assert np.linalg.norm(err) <= bound * np.sqrt(x.shape[1])

    def test_deterministic_under_seed(self):
        a = generate_gaussian(DEFAULT_PROFILE, 500, Rng.from_seed(3))
        b = generate_gaussian(DEFAULT_PROFILE, 500, Rng.from_seed(3))
        assert datasets_equal(a, b)
        c = generate_gaussian(DEFAULT_PROFILE, 500, Rng.from_seed(4))
        assert not datasets_equal(a, c)

    def test_too_small_n_rejected(self):
        with pytest.raises(ValueError):
            generate_gaussian(DEFAULT_PROFILE, 69, Rng.from_seed(0))

    def test_zero_scale_rejected_for_gaussian(self):
        spec = two_cluster_spec(scale=0.0)
        with pytest.raises(ValueError):
            generate_gaussian(spec, 100, Rng.from_seed(0))

    def test_peak_memory_stays_near_the_result(self):
        # each class block is cast into one preallocated array, and the
        # shuffled result is handed over without another copy
        tracemalloc.start()
        try:
            data = generate_gaussian(DEFAULT_PROFILE, 50_000, Rng.from_seed(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (data.features.nbytes + data.labels.nbytes)


class TestGenerateToyImages:
    def test_shape_contract(self):
        data = generate_toy_images(
            SequenceImageSpec(), DEFAULT_PROFILE, 700, Rng.from_seed(0)
        )
        assert len(data) == 700
        assert data.feature_shape == (1, 8, 8)

    def test_zero_noise_images_identical_per_class(self):
        spec = ProfileConfig(covariance_scale=0.0).to_cluster_spec()
        data = generate_toy_images(
            SequenceImageSpec(), spec, 140, Rng.from_seed(0)
        )
        x = np.asarray(data.features)
        for c in range(7):
            rows = x[data.labels == c]
            assert np.all(rows == rows[0])

    def test_patterns_are_gbdt_separable(self):
        # the corrector module doubles as the separability oracle
        data = generate_toy_images(
            SequenceImageSpec(), DEFAULT_PROFILE, 700, Rng.from_seed(5)
        )
        flat = np.asarray(data.features, dtype=np.float64).reshape(len(data), -1)
        ens = fit_gbdt(
            flat, data.labels, GbdtConfig(n_rounds=30, max_depth=4, seed=0),
            n_classes=7,
        )
        acc = (ens.predict_proba(flat).argmax(axis=1) == data.labels).mean()
        assert acc >= 0.90

    def test_bytes_are_pinned(self):
        # counter-based streams and exact arithmetic: the same bytes on every host
        data = generate_toy_images(
            SequenceImageSpec(side=16), DEFAULT_PROFILE, 700, Rng.from_seed(7)
        )
        assert dataset_sha256(data) == (
            "30eb2a6c2edba02ea21ebc3b7be41c4c0ec598f93677fb4a2828f9bc149d26f8"
        )

    def test_tiny_side_rejected(self):
        with pytest.raises(ValueError):
            SequenceImageSpec(side=1)


class TestDatasetFiles:
    def test_csv_round_trip(self, tmp_path):
        data = generate_gaussian(two_cluster_spec(), 100, Rng.from_seed(2))
        path = tmp_path / "toy.csv"
        save_dataset(data, path)
        back = load_dataset(path)
        assert back.names == default_names(2) and len(back) == 100
        assert np.array_equal(back.labels, data.labels)
        # each cell is the repr of a float32, so the bits come back
        assert np.array_equal(back.features, data.features)

    def test_old_binary_layout_is_rejected(self, tmp_path):
        # the header line, then little-endian float32 rows of label and features:
        # a second format that save_dataset once wrote to a .bin path
        data = generate_gaussian(two_cluster_spec(), 20, Rng.from_seed(2))
        rows = np.column_stack([data.labels, data.features]).astype("<f4")
        for path in (tmp_path / "d.bin", tmp_path / "d.csv"):
            path.write_bytes(b"mclab-dataset v1, K=2, dim=4\n" + rows.tobytes())
            with pytest.raises(DatasetFormatError) as err:
                load_dataset(path)
            assert str(err.value).startswith(f"{path}: line 2: ")

    def test_image_dataset_round_trip_restores_shape(self, tmp_path):
        data = generate_toy_images(
            SequenceImageSpec(), DEFAULT_PROFILE, 140, Rng.from_seed(1)
        )
        save_dataset(data, tmp_path / "img.csv")
        back = load_dataset(tmp_path / "img.csv")
        # files are flat; the model reshapes on entry
        assert back.feature_shape == (64,)
        assert np.array_equal(
            back.features, np.asarray(data.features).reshape(140, -1)
        )

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a header\n1,2,3\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_label_out_of_range_names_row(self, tmp_path):
        data = generate_gaussian(two_cluster_spec(dim=2), 20, Rng.from_seed(0))
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        lines[3] = "9," + lines[3].split(",", 1)[1]  # row 2 of the body
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="row 2"):
            load_dataset(path)

    def test_row_width_mismatch_names_row(self, tmp_path):
        data = generate_gaussian(two_cluster_spec(dim=2), 20, Rng.from_seed(0))
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5] + ",0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="row 4"):
            load_dataset(path)


def _set_text_cell(raw: bytes, line: int, cell: int, value: str) -> bytes:
    lines = raw.decode("ascii").split("\n")
    cells = lines[line].split(",")
    cells[cell] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines).encode("ascii")


# edits of a saved 2-dim, 2-class dataset, and the message each must be
# rejected with after the path
MALFORMED_DATASETS = {
    "bad_header": (lambda raw: b"mclab dataset" + raw[raw.index(b","):],
                   "line 1: malformed header line"),
    "huge_k": (lambda raw: raw.replace(b"K=2,", b"K=2000000,", 1),
               "line 1: header K=2000000 exceeds the ceiling of 65536 classes"),
    "wrong_field_count": (lambda raw: _set_text_cell(raw, 3, 2, "0.5,0.5"),
                          "line 4: row 2: expected 3 fields, got 4"),
    "unparsable_cell": (lambda raw: _set_text_cell(raw, 5, 1, "one"),
                        "line 6: row 4: unparseable value"),
    "label_out_of_range": (lambda raw: _set_text_cell(raw, 2, 0, "2"),
                           r"line 3: row 1: label 2 is not in \[0, 2\)"),
    "nan_cell": (lambda raw: _set_text_cell(raw, 3, 2, "nan"),
                 "line 4: row 2: feature 1 is 'nan', not a finite float32"),
    "overflow_cell": (lambda raw: _set_text_cell(raw, 5, 1, "1e39"),
                      "line 6: row 4: feature 0 is '1e39', not a finite float32"),
    "row_after_blank_lines": (lambda raw: _set_text_cell(
        raw.replace(b"\n", b"\n\n\n", 1), 4, 0, "2"), r"line 5: row 1: label 2 is not in \[0, 2\)"),
}


class TestDatasetRejections:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        data = generate_gaussian(two_cluster_spec(dim=2), 20, Rng.from_seed(0))
        path = tmp_path_factory.mktemp("dataset") / "d.csv"
        save_dataset(data, path)
        return path.read_bytes()

    @pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
    def test_error_names_the_path(self, tmp_path, saved, case):
        edit, message = MALFORMED_DATASETS[case]
        path = tmp_path / "d.csv"
        path.write_bytes(edit(saved))
        with pytest.raises(DatasetFormatError, match=message) as err:
            load_dataset(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_float32_overflow_is_rejected_without_a_warning(self, tmp_path, saved):
        path = tmp_path / "d.csv"
        path.write_bytes(_set_text_cell(saved, 2, 2, "-1e39"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="feature 1 is '-1e39'"):
                load_dataset(path)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_unedited_dataset_loads(self, tmp_path, saved, suffix):
        # the suffix selects nothing: a file is the one CSV format by any name
        path = tmp_path / f"d{suffix}"
        path.write_bytes(saved)
        assert len(load_dataset(path)) == 20
