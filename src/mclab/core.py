"""Core domain types: datasets, deterministic RNG, three-way splits, the
type check of one config value (shared by the config document and the model
checkpoint header), and the line reader behind every file loader.

Every config dataclass, here and in the other modules, checks its own fields
in ``__post_init__``, so a config that exists is valid and no consumer checks
it again. A check may raise ``ConfigError`` at the field it names; the config
document's loader prefixes the section path to it, and names any other
``ValueError`` at the section.

Labels are dense 0-based integers internally and rendered 1-based in every
human-facing report. All randomness flows through ``Rng``, a descriptor around
a counter-based generator (Philox), so the same seed yields the same stream on
every platform.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Iterable, Iterator, NoReturn, Sequence, get_args, get_origin

import numpy as np

__all__ = [
    "MAX_CLASSES",
    "ConfigError",
    "NEW_CLASS",
    "LabeledDataset",
    "Rng",
    "SplitSpec",
    "class_weights",
    "datasets_equal",
    "exclude_class",
    "largest_remainder",
    "split_dataset",
    "validation_slice",
]

# Sentinel prediction for "none of the known classes"; never a valid true label.
NEW_CLASS = -1

# The most classes a file may declare. Readers and metrics do work for every
# declared class, named by a row or not, so without a ceiling one corrupt
# header line could cost gigabytes or minutes. The paper's tables have seven.
MAX_CLASSES = 1 << 16


def default_names(k: int) -> tuple[str, ...]:
    return tuple(f"class{i + 1}" for i in range(k))


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):
        return (ConfigError, (self.path, self.message))


def _value(hint: Any, value: Any, path: str) -> Any:
    """Check one scalar, ``T | None`` or tuple value against its annotation;
    ints widen to float where a float is expected, and floats must be finite."""
    if get_origin(hint) is UnionType:
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not NoneType]
    elif value is None:
        raise ConfigError(path, "must not be null")
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, "expected a list")
        kinds = get_args(hint)
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(value)
        elif len(kinds) != len(value):
            raise ConfigError(path, f"expected {len(kinds)} items")
        return tuple(_value(kind, item, path) for kind, item in zip(kinds, value))
    if hint is float and type(value) is int:
        value = float(value)
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, hint):
        raise ConfigError(path, f"expected {hint.__name__}")
    if hint is float and not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    return value


def _check_seed(seed: int) -> None:
    """A seed is a Python int (not a bool) in [0, 2^64)."""
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ConfigError("seed", f"must be a 64-bit non-negative integer, not {seed!r}")


def _frozen(values: Any, dtype: Any) -> np.ndarray:
    """``values`` as a read-only C-contiguous array, copied unless it already
    is one, so a caller's buffer is never frozen."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable or not arr.flags.c_contiguous:
        arr = np.array(arr, order="C")
        arr.flags.writeable = False
    return arr


class _LineReader:
    """The lines of a text file, or of the text header of a binary one, read
    in order. Every fault names the path and the line being read, as a
    ``ValueError`` ``<path>: line <n>: <message>``; so does a non-ASCII
    byte, named with its offset in ``raw``."""

    def __init__(self, path: str | Path, raw: bytes):
        self.path = path
        self.at = 0  # 1-based number of the line being read; 0 before the first
        try:
            self.lines = raw.decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            # the line the byte is on, counted by the same line breaks
            self.at = len((raw[:exc.start] + b".").decode("ascii").splitlines())
            self.fail(f"non-ASCII byte 0x{raw[exc.start]:02x} at offset {exc.start}")

    def fail(self, message: str) -> NoReturn:
        raise ValueError(f"{self.path}: line {self.at}: {message}")

    def next(self, prefix: str = "", missing: str = "file ends early") -> str:
        """The next line, after the ``prefix`` it must start with."""
        self.at += 1
        if self.at > len(self.lines):
            self.fail(missing)
        line = self.lines[self.at - 1]
        if not line.startswith(prefix):
            self.fail(f"expected {prefix!r}")
        return line[len(prefix):]

    def __iter__(self) -> Iterator[str]:
        """The lines not yet read, each the line being read in its turn."""
        while self.at < len(self.lines):
            self.at += 1
            yield self.lines[self.at - 1]

    def number(self, kind: type, name: str, text: str) -> Any:
        try:
            return kind(text)
        except ValueError:
            self.fail(f"{name} {text!r} is not {'an int' if kind is int else 'a float'}")

    def classes(self, text: str) -> int:
        """A declared class count K of at most ``MAX_CLASSES``. Its digits are
        counted before they are converted, so a huge K costs nothing."""
        digits = text.strip().lstrip("+").replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_CLASSES)) or self.number(int, "K", text) > MAX_CLASSES:
            self.fail(f"header K={text.strip()} exceeds the ceiling of {MAX_CLASSES} classes")
        return int(text)


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable feature/label arrays over K classes, named in the config.

    features:  float32 array of shape (n, *feature_shape)
    labels:    int64 array of shape (n,), values in [0, K)
    n_classes: K, a positive int
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        feats = _frozen(self.features, np.float32)
        labs = _frozen(self.labels, np.int64)
        if feats.ndim < 2:
            raise ValueError("features must have shape (n, *feature_shape)")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError("labels must be a vector aligned with features")
        k = self.n_classes
        if type(k) is not int or k < 1:
            raise ValueError(f"n_classes must be a positive int, not {k!r}")
        if labs.size and (labs.min() < 0 or labs.max() >= k):
            raise ValueError(f"labels must lie in [0, {k})")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return tuple(self.features.shape[1:])

    @property
    def class_counts(self) -> np.ndarray:
        """Per-class sample counts, length K."""
        return np.bincount(self.labels, minlength=self.n_classes)

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        features, labels = self.features[idx], self.labels[idx]
        features.flags.writeable = labels.flags.writeable = False  # fresh, so not copied again
        return LabeledDataset(features, labels, self.n_classes)


def datasets_equal(a: LabeledDataset, b: LabeledDataset) -> bool:
    """Exact equality of class count, shape, labels and features."""
    if a.n_classes != b.n_classes or a.feature_shape != b.feature_shape or len(a) != len(b):
        return False
    return bool(np.array_equal(a.labels, b.labels) and np.array_equal(a.features, b.features))


def _word_for(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError("stream words must be non-negative")
        return int(part)
    digest = hashlib.sha256(b"mclab-stream:" + str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Rng:
    """Descriptor for a counter-based random stream.

    ``words`` is the full derivation path (seed first). Two descriptors with
    the same words produce bit-identical streams on every platform; distinct
    words produce independent streams.
    """

    words: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("Rng needs at least a seed word")
        object.__setattr__(self, "words", tuple(int(w) for w in self.words))

    @classmethod
    def from_seed(cls, seed: int) -> "Rng":
        return cls((_word_for(seed),))

    def derive(self, *path: int | str) -> "Rng":
        if not path:
            raise ValueError("derive needs at least one path element")
        return Rng(self.words + tuple(_word_for(p) for p in path))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(list(self.words))
        return np.random.Generator(np.random.Philox(seed=ss))


def derived_seed(seed: int, *path: int | str) -> int:
    """A plain 63-bit integer seed derived from a master seed and a path."""
    h = hashlib.sha256()
    h.update(b"mclab-seed")
    for w in (seed,) + path:
        h.update(b"/" + str(_word_for(w)).encode("ascii"))
    return int.from_bytes(h.digest()[:8], "big") >> 1


def largest_remainder(ideals: np.ndarray | Sequence[float], total: int) -> np.ndarray:
    """Round non-negative ideals to integers summing exactly to ``total``.

    Ties between equal remainders break toward the lower index.
    """
    ideal = np.asarray(ideals, dtype=np.float64)
    if ideal.ndim != 1 or np.any(ideal < -1e-12):
        raise ValueError("ideals must be a non-negative vector")
    ideal = np.maximum(ideal, 0.0)
    floors = np.floor(ideal + 1e-12).astype(np.int64)
    leftover = int(total) - int(floors.sum())
    if leftover < 0 or leftover > ideal.size:
        raise ValueError("ideals do not sum to total")
    if leftover:
        remainders = ideal - floors
        order = np.argsort(-remainders, kind="stable")
        floors[order[:leftover]] += 1
    return floors


@dataclass(frozen=True)
class SplitSpec:
    """Three-way split fractions (train, correct, test), strategy and seed.

    An experiment derives the seed per run from its master seed, so the
    config document does not hold it.
    """

    fractions: tuple[float, float, float] = (0.5, 0.25, 0.25)
    stratified: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.fractions) < 2:
            raise ConfigError("fractions", "need at least two split fractions")
        if not all(f > 0 for f in self.fractions):
            raise ConfigError("fractions", "split fractions must be positive")
        if not abs(sum(self.fractions) - 1.0) <= 1e-9:
            raise ConfigError("fractions", "split fractions must sum to 1 within 1e-9")
        _check_seed(self.seed)


def _stratified_allocation(class_counts: np.ndarray, fractions: Sequence[float]) -> np.ndarray:
    """Integer allocation matrix (K, S) with exact row sums (= class counts),
    exact column sums (= largest-remainder totals of n*fractions) and every
    cell within floor/ceil of its exact proportion."""
    counts = np.asarray(class_counts, dtype=np.int64)
    fracs = np.asarray(fractions, dtype=np.float64)
    n = int(counts.sum())
    col_targets = largest_remainder(n * fracs, n)

    ideal = np.outer(counts, fracs)
    lo = np.floor(ideal + 1e-12).astype(np.int64)
    hi = lo + (ideal - lo > 1e-12).astype(np.int64)
    x = np.stack([largest_remainder(ideal[i], int(counts[i])) for i in range(counts.size)])

    # Repair column sums by moving single samples along within-class edges;
    # every move keeps cells inside [lo, hi] so the +-1 bound is preserved.
    def repair() -> None:
        while True:
            diff = x.sum(axis=0) - col_targets
            surplus = np.nonzero(diff > 0)[0]
            if surplus.size == 0:
                return
            start = int(surplus[0])
            parents: dict[int, tuple[int, int]] = {start: (-1, -1)}
            frontier = [start]
            goal = -1
            while frontier and goal < 0:
                nxt: list[int] = []
                for u in frontier:
                    for v in range(x.shape[1]):
                        if v in parents or v == u:
                            continue
                        movable = np.nonzero((x[:, u] > lo[:, u]) & (x[:, v] < hi[:, v]))[0]
                        if movable.size == 0:
                            continue
                        parents[v] = (u, int(movable[0]))
                        if diff[v] < 0:
                            goal = v
                            break
                        nxt.append(v)
                    if goal >= 0:
                        break
                frontier = nxt
            if goal < 0:
                raise RuntimeError("stratified allocation repair failed")
            v = goal
            while parents[v][0] >= 0:
                u, cls = parents[v]
                x[cls, u] -= 1
                x[cls, v] += 1
                v = u

    repair()
    return x


def split_dataset(
    data: LabeledDataset, spec: SplitSpec
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Deterministic three-way split; stratified keeps per-class proportions
    within one sample of exact.

    Returns (train, correct, test). Each group of samples (one per class if
    stratified, else all of them) is permuted and cut at its allocation row;
    each part keeps the original sample order.
    """
    n = len(data)
    s = len(spec.fractions)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    gen = Rng.from_seed(spec.seed).derive("split").generator()

    if spec.stratified:
        counts = data.class_counts
        thin = np.nonzero((counts > 0) & (counts < s))[0]
        if thin.size:
            raise ValueError(
                f"class {int(thin[0])} has {int(counts[thin[0]])} samples, "
                f"fewer than the {s} splits"
            )
        # each class's indices in ascending order, one group per class
        groups = np.split(np.argsort(data.labels, kind="stable"), np.cumsum(counts)[:-1])
        alloc = _stratified_allocation(counts, spec.fractions)
    else:
        groups = [np.arange(n)]
        alloc = largest_remainder(n * np.asarray(spec.fractions), n)[None, :]
    parts: list[list[np.ndarray]] = [[] for _ in range(s)]
    for idx, row in zip(groups, alloc):
        if idx.size:
            perm = idx[gen.permutation(idx.size)]
            for part, cut in zip(parts, np.split(perm, np.cumsum(row)[:-1])):
                part.append(cut)
    out = tuple(data.subset(np.sort(np.concatenate(p))) for p in parts)
    return out  # type: ignore[return-value]


# Share of the train split that early stopping validates on.
VALIDATION_FRACTION = 0.2


def validation_slice(
    data: LabeledDataset, split_seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Carve a stratified validation slice off a train split for early stopping.

    Returns (fit, val). The slice is a two-way ``split_dataset`` of ``data``
    on a stream derived from ``split_seed``, so the seed that pins the
    three-way split pins the slice too. A class with a single sample cannot
    be stratified; that sample stays in the fit set, after the carved part.
    """
    alone = data.class_counts[data.labels] == 1
    spec = SplitSpec(
        fractions=(1.0 - VALIDATION_FRACTION, VALIDATION_FRACTION),
        seed=derived_seed(split_seed, "validation"),
    )
    fit, val = split_dataset(data.subset(np.nonzero(~alone)[0]), spec)
    if alone.any():
        fit = LabeledDataset(
            np.concatenate([fit.features, data.features[alone]]),
            np.concatenate([fit.labels, data.labels[alone]]),
            data.n_classes,
        )
    return fit, val


def exclude_class(data: LabeledDataset, excluded: int) -> LabeledDataset:
    """Drop every sample of one class; other samples keep their order.

    K is unchanged, so downstream components still see K classes.
    """
    cls = int(excluded)
    if cls < 0 or cls >= data.n_classes:
        raise ValueError(f"unknown class id {cls} for a {data.n_classes}-class dataset")
    keep = np.nonzero(data.labels != cls)[0]
    return data.subset(keep)


def class_weights(data: LabeledDataset, excluded: Iterable[int] = ()) -> np.ndarray:
    """Inverse-frequency weights w_i = N / n_i (float64, length K).

    N counts only samples of non-excluded classes, so the weights do not
    depend on whether ``data`` still holds an excluded class's samples.
    Excluded classes get 0, and ``basemodel.train`` rejects samples of a
    zero-weight class; any other empty class is an error.
    """
    excl = {int(e) for e in excluded}
    for cls in excl:
        if cls < 0 or cls >= data.n_classes:
            raise ValueError(f"unknown excluded class id {cls}")
    counts = data.class_counts
    active = np.array([i not in excl for i in range(data.n_classes)])
    empty = np.nonzero(active & (counts == 0))[0]
    if empty.size:
        raise ValueError(f"class {int(empty[0])} has no samples and is not excluded")
    n_eff = int(counts[active].sum())
    weights = np.zeros(data.n_classes, dtype=np.float64)
    weights[active] = n_eff / counts[active]
    return weights
