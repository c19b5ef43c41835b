"""Synthetic imbalanced datasets and the on-disk dataset format.

Two generators: isotropic Gaussian clusters with a configurable imbalance
profile, and toy single-channel images whose class is encoded by the position
of a localized bright patch. The default profile mirrors a heavy-tailed
seven-class emotion-style distribution (38.9 / 20.9 / 16.1 / 10.6 / 5.7 /
5.7 / 2.3 percent) with one designated minority class placed close to a
majority class in feature space.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .core import MAX_CLASSES, LabeledDataset, Rng, default_names, largest_remainder

__all__ = [
    "ClusterSpec",
    "SequenceImageSpec",
    "DatasetFormatError",
    "ProfileConfig",
    "check_gaussian_scale",
    "check_n_total",
    "generate_gaussian",
    "generate_toy_images",
    "load_dataset",
    "patch_positions",
    "save_dataset",
]

_HEADER_PREFIX = "mclab-dataset v1"


@dataclass(frozen=True)
class ClusterSpec:
    """Per-class mean, isotropic noise scale and proportion for K clusters.

    ``covariance_scale`` is the per-coordinate standard deviation of each
    cluster. Zero is allowed (degenerate point clusters / noise-free images);
    the Gaussian generator itself insists on a positive scale.
    """

    means: np.ndarray  # (K, dim) float64
    covariance_scale: np.ndarray  # (K,) float64, >= 0
    proportions: np.ndarray  # (K,) float64, sums to 1
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        scales = np.atleast_1d(np.asarray(self.covariance_scale, dtype=np.float64))
        props = np.asarray(self.proportions, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError("means must have shape (K, dim)")
        k = means.shape[0]
        if scales.size == 1:
            scales = np.full(k, float(scales[0]))
        if scales.shape != (k,) or props.shape != (k,):
            raise ValueError("covariance_scale and proportions must have length K")
        if np.any(scales < 0):
            raise ValueError("covariance_scale must be >= 0")
        if np.any(props <= 0):
            raise ValueError("proportions must be positive")
        if abs(float(props.sum()) - 1.0) > 1e-9:
            raise ValueError("proportions must sum to 1 within 1e-9")
        if len(self.names) != k:
            raise ValueError("need one display name per class")
        means, scales, props = (
            np.array(a) if a.flags.writeable else a for a in (means, scales, props)
        )
        means.flags.writeable = False
        scales.flags.writeable = False
        props.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariance_scale", scales)
        object.__setattr__(self, "proportions", props)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_classes(self) -> int:
        return int(self.means.shape[0])

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])


@dataclass(frozen=True)
class SequenceImageSpec:
    """Shape of generated toy images."""

    side: int = 8
    channels: int = 1

    def __post_init__(self) -> None:
        if self.side < 2:
            raise ValueError("image side must be >= 2")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")


@dataclass(frozen=True)
class ProfileConfig:
    """Parameters of the heavy-tailed default profile.

    Class means sit on scaled coordinate axes (pairwise distance
    sqrt(2)*separation) except that the second member of ``close_pair`` is
    moved to ``close_distance`` away from the first, emulating two classes
    that are genuinely hard to tell apart. ``proportions`` are normalized to
    sum to 1.
    """

    proportions: tuple[float, ...] = (0.389, 0.209, 0.161, 0.106, 0.057, 0.057, 0.023)
    names: tuple[str, ...] = (
        "Happiness", "Neutral", "Sadness", "Surprise", "Disgust", "Anger", "Fear",
    )
    dim: int = 64
    separation: float = 6.0
    covariance_scale: float = 1.0
    close_pair: tuple[int, int] = (3, 6)
    close_distance: float = 4.0

    def to_cluster_spec(self) -> ClusterSpec:
        props = np.asarray(self.proportions, dtype=np.float64)
        props = props / props.sum()
        k = props.size
        if self.dim < k:
            raise ValueError("dim must be at least the number of classes")
        means = np.zeros((k, self.dim), dtype=np.float64)
        for i in range(k):
            means[i, i] = self.separation
        a, b = self.close_pair
        if not (0 <= a < k and 0 <= b < k) or a == b:
            raise ValueError("close_pair must name two distinct classes")
        # place b near a, offset along b's own axis
        means[b] = means[a]
        means[b, b] = self.close_distance
        return ClusterSpec(
            means=means,
            covariance_scale=np.full(k, float(self.covariance_scale)),
            proportions=props,
            names=tuple(self.names)[:k],
        )


def check_n_total(n_total: int, k: int) -> None:
    """Both generators need at least 10 samples per class."""
    if n_total < 10 * k:
        raise ValueError(f"n_total must be >= {10 * k} for a {k}-class profile")


def check_gaussian_scale(covariance_scale) -> None:
    """The Gaussian generator needs a positive noise scale for every class."""
    if np.any(np.asarray(covariance_scale) <= 0):
        raise ValueError("gaussian generation needs covariance_scale > 0")


def _class_counts(proportions: np.ndarray, n_total: int, k: int) -> np.ndarray:
    check_n_total(n_total, k)
    return largest_remainder(proportions * n_total, n_total)


def generate_gaussian(cluster: ClusterSpec, n_total: int, rng: Rng) -> LabeledDataset:
    """Sample isotropic Gaussian clusters with largest-remainder class counts."""
    check_gaussian_scale(cluster.covariance_scale)
    counts = _class_counts(cluster.proportions, n_total, cluster.n_classes)
    gen = rng.derive("gaussian").generator()
    blocks = []
    labels = []
    for i in range(cluster.n_classes):
        noise = gen.standard_normal((int(counts[i]), cluster.dim))
        blocks.append(cluster.means[i] + cluster.covariance_scale[i] * noise)
        labels.append(np.full(int(counts[i]), i, dtype=np.int64))
    features = np.concatenate(blocks).astype(np.float32)
    label_arr = np.concatenate(labels)
    perm = gen.permutation(n_total)
    return LabeledDataset(features[perm], label_arr[perm], cluster.names)


def patch_positions(k: int, side: int) -> list[tuple[int, int]]:
    """Deterministic, well-spread 2x2 patch anchors for up to side^2/4 classes."""
    anchors = []
    step = max(2, (side - 1) // max(1, int(np.ceil(np.sqrt(k)))))
    for r in range(0, side - 1, step):
        for c in range(0, side - 1, step):
            anchors.append((r, c))
    if len(anchors) < k:
        raise ValueError(f"side {side} too small to place {k} distinct class patches")
    return anchors[:k]


def generate_toy_images(
    spec: SequenceImageSpec, cluster: ClusterSpec, n_total: int, rng: Rng
) -> LabeledDataset:
    """Toy images: a bright 2x2 patch at a class-specific position plus noise.

    Class proportions and the noise standard deviation come from ``cluster``
    (means are ignored; position encodes the class). With noise scale 0 every
    image of a class is identical.
    """
    k = cluster.n_classes
    counts = _class_counts(cluster.proportions, n_total, k)
    anchors = patch_positions(k, spec.side)
    gen = rng.derive("images").generator()
    shape = (spec.channels, spec.side, spec.side)
    blocks = []
    labels = []
    for i in range(k):
        n_i = int(counts[i])
        base = np.zeros(shape, dtype=np.float64)
        r, c = anchors[i]
        base[:, r : r + 2, c : c + 2] = 4.0
        noise = gen.standard_normal((n_i,) + shape) * float(cluster.covariance_scale[i])
        blocks.append(base[None, ...] + noise)
        labels.append(np.full(n_i, i, dtype=np.int64))
    features = np.concatenate(blocks).astype(np.float32)
    label_arr = np.concatenate(labels)
    perm = gen.permutation(n_total)
    return LabeledDataset(features[perm], label_arr[perm], cluster.names)


class DatasetFormatError(ValueError):
    """Malformed dataset file (bad header, row width, or label range)."""


def _header_line(k: int, dim: int) -> str:
    return f"{_HEADER_PREFIX}, K={k}, dim={dim}"


def _parse_header(line: str) -> tuple[int, int]:
    parts = [p.strip() for p in line.strip().split(",")]
    if len(parts) != 3 or parts[0] != _HEADER_PREFIX:
        raise DatasetFormatError(f"malformed header line: {line.strip()!r}")
    try:
        k = int(parts[1].removeprefix("K="))
        dim = int(parts[2].removeprefix("dim="))
    except ValueError as exc:
        raise DatasetFormatError(f"malformed header line: {line.strip()!r}") from exc
    if k < 1 or dim < 1:
        raise DatasetFormatError(f"header K and dim must be positive: {line.strip()!r}")
    if k > MAX_CLASSES:
        raise DatasetFormatError(f"header K={k} exceeds the ceiling of {MAX_CLASSES} classes")
    return k, dim


def save_dataset(data: LabeledDataset, path: str | Path) -> None:
    """Write a dataset file; ``.bin`` paths use the little-endian float32 row
    encoding, anything else CSV rows. Class names are not written."""
    path = Path(path)
    flat = data.features.reshape(len(data), -1)
    dim = flat.shape[1]
    header = _header_line(data.n_classes, dim)
    if path.suffix == ".bin":
        rows = np.empty((len(data), dim + 1), dtype="<f4")
        rows[:, 0] = data.labels
        rows[:, 1:] = flat
        with open(path, "wb") as fh:
            fh.write((header + "\n").encode("ascii"))
            fh.write(rows.tobytes())
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(header + "\n")
            for lab, feat in zip(data.labels, flat):
                fh.write(str(int(lab)) + "," + ",".join(repr(float(v)) for v in feat) + "\n")


def load_dataset(path: str | Path) -> LabeledDataset:
    """Read a dataset file written by save_dataset (or any conforming file).

    A ``.bin`` path holds binary rows, anything else CSV rows. Class names are
    not part of the format; the dataset gets the class1..K placeholders of
    ``default_names``. A malformed file raises DatasetFormatError starting
    with the path: a bad header or K above ``MAX_CLASSES`` (line 1), a text
    row with the wrong field count, an unparsable cell or a label outside
    [0, K) (data row r is line r + 2), a binary payload that is not a whole
    number of rows, or a binary label that is not an integer in [0, K).
    """
    path = Path(path)

    def fail(message: str) -> NoReturn:
        raise DatasetFormatError(f"{path}: {message}")

    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        k, dim = _parse_header(header.decode("ascii", errors="replace"))
    except DatasetFormatError as exc:
        fail(f"line 1: {exc}")
    if path.suffix == ".bin":
        row_bytes = 4 * (dim + 1)
        if len(payload) % row_bytes != 0:
            fail(f"binary payload is {len(payload)} bytes, not a multiple of {row_bytes}")
        rows = np.frombuffer(payload, dtype="<f4").reshape(-1, dim + 1)
        labels_f = rows[:, 0]
        with np.errstate(invalid="ignore"):
            labels = labels_f.astype(np.int64)
        bad = np.nonzero((labels_f != labels) | (labels < 0) | (labels >= k))[0]
        if bad.size:
            r = int(bad[0])
            fail(f"row {r} (offset {len(header) + r * row_bytes}): label "
                 f"{float(labels_f[r])} is not an integer in [0, {k})")
        features = rows[:, 1:].astype(np.float32)
    else:
        text = payload.decode("ascii", errors="replace")
        labels_list: list[int] = []
        feats_list: list[np.ndarray] = []
        for row_no, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            where = f"line {row_no + 2}: row {row_no}"
            cells = line.split(",")
            if len(cells) != dim + 1:
                fail(f"{where}: expected {dim + 1} fields, got {len(cells)}")
            try:
                lab = int(cells[0])
                feat = np.array([float(v) for v in cells[1:]], dtype=np.float32)
            except ValueError:
                fail(f"{where}: unparseable value")
            if lab < 0 or lab >= k:
                fail(f"{where}: label {lab} is not in [0, {k})")
            labels_list.append(lab)
            feats_list.append(feat)
        labels = np.asarray(labels_list, dtype=np.int64)
        features = (
            np.stack(feats_list) if feats_list else np.empty((0, dim), dtype=np.float32)
        )
    return LabeledDataset(features, labels, default_names(k))
