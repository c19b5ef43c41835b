"""Synthetic imbalanced datasets and the on-disk dataset format.

Two generators: isotropic Gaussian clusters with a configurable imbalance
profile, and toy single-channel images whose class is encoded by the position
of a localized bright patch. The default profile mirrors a heavy-tailed
seven-class emotion-style distribution (38.9 / 20.9 / 16.1 / 10.6 / 5.7 /
5.7 / 2.3 percent) with one designated minority class placed close to a
majority class in feature space.

A dataset file has one format: a header line stating K and the feature
width, then one CSV row per sample (``save_dataset``, ``load_dataset``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (ConfigError, LabeledDataset, Rng, _frozen, _LineReader, default_names,
                   largest_remainder)

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
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        if not np.all(scales >= 0):
            raise ValueError("covariance_scale must be >= 0")
        if not np.all(props > 0):
            raise ValueError("proportions must be positive")
        if not abs(float(props.sum()) - 1.0) <= 1e-9:
            raise ValueError("proportions must sum to 1 within 1e-9")
        if len(self.names) != k:
            raise ValueError("need one display name per class")
        object.__setattr__(self, "means", _frozen(means, np.float64))
        object.__setattr__(self, "covariance_scale", _frozen(scales, np.float64))
        object.__setattr__(self, "proportions", _frozen(props, np.float64))
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
        if not self.side >= 2:
            raise ValueError("image side must be >= 2")
        if not self.channels >= 1:
            raise ValueError("channels must be >= 1")


@dataclass(frozen=True)
class ProfileConfig:
    """Parameters of the heavy-tailed default profile.

    Class means sit on scaled coordinate axes (pairwise distance
    sqrt(2)*separation) except that the second member of ``close_pair`` is
    moved to ``close_distance`` away from the first, emulating two classes
    that are genuinely hard to tell apart. ``proportions`` are normalized to
    sum to 1. A profile that ``to_cluster_spec`` would reject cannot be built.
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

    def __post_init__(self) -> None:
        if not all(v > 0 for v in self.proportions):
            raise ConfigError("proportions", "must be positive")
        if len(self.names) != len(self.proportions):
            raise ConfigError("names", "must match proportions length")
        self.to_cluster_spec()

    def to_cluster_spec(self) -> ClusterSpec:
        props = np.asarray(self.proportions, dtype=np.float64)
        props = props / props.sum()
        k = props.size
        if not self.dim >= k:
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
    if not n_total >= 10 * k:
        raise ValueError(f"n_total must be >= {10 * k} for a {k}-class profile")


def check_gaussian_scale(covariance_scale) -> None:
    """The Gaussian generator needs a positive noise scale for every class."""
    if not np.all(np.asarray(covariance_scale) > 0):
        raise ValueError("gaussian generation needs covariance_scale > 0")


def _sample(
    cluster: ClusterSpec, n_total: int, gen: np.random.Generator, shape: tuple[int, ...],
    draw: Callable[[int, int], np.ndarray],
) -> LabeledDataset:
    """Largest-remainder class counts, ``draw(i, count)`` rows of each class
    cast in class order into one float32 array of rows of ``shape``, then one
    shuffle of the whole sample."""
    k = cluster.n_classes
    check_n_total(n_total, k)
    counts = largest_remainder(cluster.proportions * n_total, n_total)
    features = np.empty((n_total, *shape), dtype=np.float32)
    ends = np.cumsum(counts)
    for i, (start, stop) in enumerate(zip(ends - counts, ends)):
        features[start:stop] = draw(i, int(stop - start))
    perm = gen.permutation(n_total)
    features, labels = features[perm], np.repeat(np.arange(k, dtype=np.int64), counts)[perm]
    features.flags.writeable = labels.flags.writeable = False  # fresh, so not copied again
    return LabeledDataset(features, labels, cluster.names)


def generate_gaussian(cluster: ClusterSpec, n_total: int, rng: Rng) -> LabeledDataset:
    """Sample isotropic Gaussian clusters with largest-remainder class counts."""
    check_gaussian_scale(cluster.covariance_scale)
    gen = rng.derive("gaussian").generator()

    def draw(i: int, count: int) -> np.ndarray:
        z = gen.standard_normal((count, cluster.dim))
        z *= cluster.covariance_scale[i]  # in place: the bits of means[i] + scale * z
        z += cluster.means[i]
        return z

    return _sample(cluster, n_total, gen, (cluster.dim,), draw)


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
    gen = rng.derive("images").generator()
    shape = (spec.channels, spec.side, spec.side)

    def draw(i: int, count: int) -> np.ndarray:
        base = np.zeros(shape)
        # looked up here, so that _sample's n_total check runs first
        r, c = patch_positions(k, spec.side)[i]
        base[:, r : r + 2, c : c + 2] = 4.0
        return base + gen.standard_normal((count,) + shape) * float(cluster.covariance_scale[i])

    return _sample(cluster, n_total, gen, shape, draw)


class DatasetFormatError(ValueError):
    """Malformed dataset file (bad header, row width, or label range)."""


def _header_line(k: int, dim: int) -> str:
    return f"{_HEADER_PREFIX}, K={k}, dim={dim}"


def save_dataset(data: LabeledDataset, path: str | Path) -> None:
    """Write a dataset file: a header line, then one CSV row per sample, its
    label and its flattened features. Each feature is the ``repr`` of its
    float32 value, so a load gives back the same bits. Class names are not
    written."""
    flat = data.features.reshape(len(data), -1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_header_line(data.n_classes, flat.shape[1]) + "\n")
        for lab, feat in zip(data.labels, flat):
            fh.write(str(int(lab)) + "," + ",".join(repr(float(v)) for v in feat) + "\n")


def load_dataset(path: str | Path) -> LabeledDataset:
    """Read a dataset file written by save_dataset (or any conforming file).

    Class names are not part of the format; the dataset gets the class1..K
    placeholders of ``default_names``. A malformed file raises
    DatasetFormatError starting with the path and naming its line: a
    non-ASCII byte, a bad header or K above ``MAX_CLASSES``; a row with the
    wrong field count, an unparsable cell, a label outside [0, K) or a
    feature that is not a finite float32 (with its data row too, counted
    without blank lines).
    """
    lines = _LineReader(path, Path(path).read_bytes(), DatasetFormatError)
    header = lines.next().strip()
    parts = [p.strip() for p in header.split(",")]
    if len(parts) != 3 or parts[0] != _HEADER_PREFIX:
        lines.fail(f"malformed header line: {header!r}")
    k = lines.classes(parts[1].removeprefix("K="))
    dim = lines.number(int, "dim", parts[2].removeprefix("dim="))
    if k < 1 or dim < 1:
        lines.fail(f"header K and dim must be positive: {header!r}")
    labels_list: list[int] = []
    feats_list: list[np.ndarray] = []
    for line in lines:
        if not line.strip():
            continue
        where = f"row {len(labels_list)}"
        cells = line.split(",")
        if len(cells) != dim + 1:
            lines.fail(f"{where}: expected {dim + 1} fields, got {len(cells)}")
        try:
            lab = int(cells[0])
            with np.errstate(over="ignore"):
                feat = np.array([float(v) for v in cells[1:]], dtype=np.float32)
        except ValueError:
            lines.fail(f"{where}: unparseable value")
        finite = np.isfinite(feat)
        if not finite.all():
            j = int(finite.argmin())
            lines.fail(f"{where}: feature {j} is {cells[j + 1]!r}, not a finite float32")
        if lab < 0 or lab >= k:
            lines.fail(f"{where}: label {lab} is not in [0, {k})")
        labels_list.append(lab)
        feats_list.append(feat)
    labels = np.asarray(labels_list, dtype=np.int64)
    features = np.stack(feats_list) if feats_list else np.empty((0, dim), np.float32)
    return LabeledDataset(features, labels, default_names(k))
