"""Gradient-boosted decision trees over latent vectors, written from scratch.

One-vs-all softmax boosting with Newton (second-order) leaf estimates: each
round fits K regression trees to the class gradients g_i = p_i - y_i with
hessians h_i = p_i (1 - p_i). Split search is exact greedy over every feature
and threshold, maximizing

    gain = 1/2 * (G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda))

with ties broken toward the lower feature index, then the lower threshold.
Leaf values are -G/(H+lambda) * learning_rate. Thresholds are the left
neighbor's feature value with an ``x <= t`` routing rule, so partitions are
exact on float data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .basemodel import LatentLayout, LatentRecord, stack_latents
from .core import Rng
from .stages import softmax

__all__ = [
    "CorrectorEnsemble",
    "GbdtConfig",
    "Tree",
    "fit",
    "load_ensemble",
    "save_ensemble",
    "split_gain",
]

GBDT_MAGIC = "mclab-gbdt v1"


@dataclass(frozen=True)
class GbdtConfig:
    n_rounds: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    min_child_weight: float = 1.0
    lambda_l2: float = 1.0
    subsample: float = 1.0
    seed: int | None = 0  # None: not yet resolved; fit() rejects it

    def validate(self) -> None:
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.min_child_weight < 0:
            raise ValueError("min_child_weight must be >= 0")
        if self.lambda_l2 < 0:
            raise ValueError("lambda_l2 must be >= 0")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")


def split_gain(
    g_left: float, h_left: float, g_right: float, h_right: float, lambda_l2: float
) -> float:
    """Exact split gain for candidate child gradient/hessian sums."""
    g_tot = g_left + g_right
    h_tot = h_left + h_right
    return 0.5 * (
        g_left * g_left / (h_left + lambda_l2)
        + g_right * g_right / (h_right + lambda_l2)
        - g_tot * g_tot / (h_tot + lambda_l2)
    )


@dataclass
class Tree:
    """Flat node arrays; feature -1 marks a leaf."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_leaf(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        return len(self.feature) - 1

    def add_split(self, feature: int, threshold: float) -> int:
        self.feature.append(int(feature))
        self.threshold.append(float(threshold))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, x: np.ndarray) -> np.ndarray:
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
        node = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            feat = feature[node]
            live = feat >= 0
            if not live.any():
                break
            rows = np.nonzero(live)[0]
            goes_left = x[rows, feat[rows]] <= threshold[node[rows]]
            node[rows] = np.where(goes_left, left[node[rows]], right[node[rows]])
        return value[node]


def _presort(x: np.ndarray) -> np.ndarray:
    """(d, n) per-feature ascending row orders; stable so equal values keep
    row order. Computed once per fit and filtered down the tree, which
    replaces a per-node argsort with a boolean gather."""
    return np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T)


def _best_split(
    xt: np.ndarray, sorted_rows: np.ndarray, g: np.ndarray, h: np.ndarray,
    cfg: GbdtConfig,
) -> tuple[int, int, float] | None:
    """Best (feature, boundary position, gain) over all features, or None.

    xt is the (d, n) transposed feature matrix; sorted_rows (d, m) holds the
    node's rows in each feature's ascending order. Every boundary between
    distinct neighbor values is scored; ties take the lowest feature index,
    then the lowest threshold.
    """
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


def _build_tree(
    xt: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    sorted_root: np.ndarray,
    cfg: GbdtConfig,
    importance: np.ndarray,
) -> Tree:
    tree = Tree()
    n = xt.shape[1]
    member = np.empty(n, dtype=bool)

    def grow(sorted_rows: np.ndarray, depth: int) -> int:
        node_rows = sorted_rows[0]
        g_sum = float(g[node_rows].sum())
        h_sum = float(h[node_rows].sum())
        if depth >= cfg.max_depth or node_rows.size < 2:
            return tree.add_leaf(-g_sum / (h_sum + cfg.lambda_l2) * cfg.learning_rate)
        found = _best_split(xt, sorted_rows, g, h, cfg)
        if found is None:
            return tree.add_leaf(-g_sum / (h_sum + cfg.lambda_l2) * cfg.learning_rate)
        feat, pos, gain = found
        thr = float(xt[feat, sorted_rows[feat, pos]])
        importance[feat] += gain
        node = tree.add_split(feat, thr)
        # rows <= thr are exactly the first pos+1 entries of feat's order
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


@dataclass
class CorrectorEnsemble:
    """Fitted boosted-tree classifier over concatenated latent vectors."""

    config: GbdtConfig
    n_classes: int
    n_features: int
    base_score: np.ndarray  # (K,) prior log-probabilities
    trees: list[list[Tree]]  # trees[round][class]
    layout: LatentLayout | None
    feature_importance_: np.ndarray  # (n_features,) accumulated split gain
    loss_curve: list[float]  # train log-loss, index 0 = before round 1

    def _coerce(self, latents) -> np.ndarray:
        if isinstance(latents, LatentRecord):
            return self._coerce([latents])
        if isinstance(latents, np.ndarray):
            x = np.asarray(latents, dtype=np.float64)
            if x.ndim == 1:
                x = x[None, :]
            if x.shape[1] != self.n_features:
                raise ValueError(
                    f"latent width {x.shape[1]} != fitted width {self.n_features}"
                )
            return x
        records: Sequence[LatentRecord] = latents
        return self.align(*stack_latents(records))

    def align(self, matrix: np.ndarray, layout: LatentLayout) -> np.ndarray:
        """Reorder the stage blocks of ``matrix`` (in ``layout``) to the fitted order."""
        if self.layout is not None and layout != self.layout:
            return _reorder_blocks(matrix, layout, self.layout)
        return matrix

    def raw_margins(self, latents) -> np.ndarray:
        x = self._coerce(latents)
        margins = np.tile(self.base_score, (x.shape[0], 1))
        for round_trees in self.trees:
            for cls, tree in enumerate(round_trees):
                margins[:, cls] += tree.predict(x)
        return margins

    def predict_proba(self, latents) -> np.ndarray:
        """Class posteriors; rows sum to 1."""
        probs = softmax(self.raw_margins(latents), axis=-1)
        if isinstance(latents, LatentRecord):
            return probs[0]
        return probs

    def feature_importance(self) -> np.ndarray:
        """Total split gain accumulated per feature during fitting."""
        return self.feature_importance_.copy()

    @property
    def total_gain(self) -> float:
        return float(self.feature_importance_.sum())


def _reorder_blocks(
    matrix: np.ndarray, have: LatentLayout, want: LatentLayout
) -> np.ndarray:
    """Permute stage blocks of ``matrix`` from layout ``have`` to ``want``."""
    if sorted(have.names) != sorted(want.names):
        raise ValueError(f"latent layout stages {have.names} != fitted {want.names}")
    cols = []
    for name, size in zip(want.names, want.sizes):
        sl = have.block_slice(name)
        if sl.stop - sl.start != size:
            raise ValueError(f"latent block {name!r} has size {sl.stop - sl.start}, "
                             f"fitted expects {size}")
        cols.append(matrix[:, sl])
    return np.concatenate(cols, axis=1)


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _log_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = np.maximum(probs[np.arange(labels.size), labels], 1e-15)
    return float(np.mean(-np.log(picked)))


def fit(
    latents,
    labels: np.ndarray | Sequence[int],
    config: GbdtConfig = GbdtConfig(),
    n_classes: int | None = None,
) -> CorrectorEnsemble:
    """Fit the boosted ensemble on latent records (or a plain matrix).

    ``n_classes`` defaults to max(labels)+1; pass it explicitly when the
    label space is wider than the observed labels. Training log-loss is
    recorded per round and is non-increasing.
    """
    config.validate()
    if config.seed is None:
        raise ValueError("GbdtConfig.seed is None: resolve it before fitting")
    layout: LatentLayout | None = None
    if isinstance(latents, np.ndarray):
        x = np.asarray(latents, dtype=np.float64)
    else:
        x, layout = stack_latents(list(latents))
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("empty input")
    if labels.shape != (x.shape[0],):
        raise ValueError("labels must align with latents")
    k = int(n_classes) if n_classes is not None else int(labels.max()) + 1
    if k < 2:
        raise ValueError("single-class input: need a label space of at least 2")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")

    n = x.shape[0]
    priors = np.maximum(np.bincount(labels, minlength=k) / n, 1e-12)
    base = np.log(priors)
    y = _one_hot(labels, k)
    margins = np.tile(base, (n, 1))
    importance = np.zeros(x.shape[1])
    gen = Rng.from_seed(config.seed).derive("gbdt").generator()
    trees: list[list[Tree]] = []
    probs = softmax(margins, axis=-1)
    curve = [_log_loss(probs, labels)]
    xt = np.ascontiguousarray(x.T)
    order = _presort(x)  # shared by every tree: x never changes
    mask = np.empty(n, dtype=bool)
    for _ in range(config.n_rounds):
        grad = probs - y
        hess = probs * (1.0 - probs)
        if config.subsample < 1.0:
            m = max(1, int(round(config.subsample * n)))
            rows = np.sort(gen.choice(n, size=m, replace=False))
            mask[:] = False
            mask[rows] = True
            sorted_root = order[mask[order]].reshape(order.shape[0], m)
        else:
            sorted_root = order
        round_trees = []
        for cls in range(k):
            tree = _build_tree(
                xt, grad[:, cls], hess[:, cls], sorted_root, config, importance
            )
            margins[:, cls] += tree.predict(x)
            round_trees.append(tree)
        trees.append(round_trees)
        probs = softmax(margins, axis=-1)
        curve.append(_log_loss(probs, labels))

    return CorrectorEnsemble(
        config=config,
        n_classes=k,
        n_features=x.shape[1],
        base_score=base,
        trees=trees,
        layout=layout,
        feature_importance_=importance,
        loss_curve=curve,
    )


# ---- text checkpoint ----


def save_ensemble(ensemble: CorrectorEnsemble, path: str | Path) -> None:
    """Human-readable checkpoint: header, then per-tree node tables."""
    lines = [GBDT_MAGIC]
    c = ensemble.config
    lines.append(
        f"n_classes={ensemble.n_classes} n_features={ensemble.n_features} "
        f"n_rounds={c.n_rounds} max_depth={c.max_depth}"
    )
    lines.append(
        f"learning_rate={c.learning_rate!r} min_child_weight={c.min_child_weight!r} "
        f"lambda_l2={c.lambda_l2!r} subsample={c.subsample!r} seed={c.seed}"
    )
    lines.append("base_score=" + ",".join(repr(float(v)) for v in ensemble.base_score))
    if ensemble.layout is not None:
        lines.append(
            "layout="
            + ",".join(f"{n}:{s}" for n, s in zip(ensemble.layout.names, ensemble.layout.sizes))
        )
    else:
        lines.append("layout=none")
    lines.append(
        "importance=" + ",".join(repr(float(v)) for v in ensemble.feature_importance_)
    )
    lines.append("loss_curve=" + ",".join(repr(float(v)) for v in ensemble.loss_curve))
    for r, round_trees in enumerate(ensemble.trees):
        for cls, tree in enumerate(round_trees):
            lines.append(f"tree round={r} class={cls} nodes={tree.n_nodes}")
            for i in range(tree.n_nodes):
                lines.append(
                    f"{i},{tree.feature[i]},{tree.threshold[i]!r},"
                    f"{tree.left[i]},{tree.right[i]},{tree.value[i]!r}"
                )
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_ensemble(path: str | Path) -> CorrectorEnsemble:
    text = Path(path).read_text(encoding="ascii").splitlines()
    if not text or text[0] != GBDT_MAGIC:
        raise ValueError(f"not an ensemble checkpoint: {path}")

    def kv(line: str) -> dict[str, str]:
        return dict(part.split("=", 1) for part in line.split())

    head1 = kv(text[1])
    head2 = kv(text[2])
    config = GbdtConfig(
        n_rounds=int(head1["n_rounds"]),
        max_depth=int(head1["max_depth"]),
        learning_rate=float(head2["learning_rate"]),
        min_child_weight=float(head2["min_child_weight"]),
        lambda_l2=float(head2["lambda_l2"]),
        subsample=float(head2["subsample"]),
        seed=int(head2["seed"]),
    )
    n_classes = int(head1["n_classes"])
    n_features = int(head1["n_features"])
    base = np.array([float(v) for v in text[3].removeprefix("base_score=").split(",")])
    layout_field = text[4].removeprefix("layout=")
    layout = None
    if layout_field != "none":
        names, sizes = [], []
        for part in layout_field.split(","):
            name, size = part.rsplit(":", 1)
            names.append(name)
            sizes.append(int(size))
        layout = LatentLayout(tuple(names), tuple(sizes))
    importance = np.array(
        [float(v) for v in text[5].removeprefix("importance=").split(",")]
    )
    curve = [float(v) for v in text[6].removeprefix("loss_curve=").split(",")]

    trees: list[list[Tree]] = []
    i = 7
    tree_re = re.compile(r"^tree round=(\d+) class=(\d+) nodes=(\d+)$")
    while i < len(text) and text[i] != "end":
        m = tree_re.match(text[i])
        if not m:
            raise ValueError(f"malformed tree header at line {i + 1}")
        r, cls, n_nodes = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if r == len(trees):
            trees.append([])
        if r != len(trees) - 1 or cls != len(trees[-1]):
            raise ValueError(f"trees out of order at line {i + 1}")
        tree = Tree()
        for j in range(n_nodes):
            cells = text[i + 1 + j].split(",")
            if len(cells) != 6 or int(cells[0]) != j:
                raise ValueError(f"malformed node at line {i + 2 + j}")
            tree.feature.append(int(cells[1]))
            tree.threshold.append(float(cells[2]))
            tree.left.append(int(cells[3]))
            tree.right.append(int(cells[4]))
            tree.value.append(float(cells[5]))
        trees[-1].append(tree)
        i += 1 + n_nodes

    return CorrectorEnsemble(
        config=config,
        n_classes=n_classes,
        n_features=n_features,
        base_score=base,
        trees=trees,
        layout=layout,
        feature_importance_=importance,
        loss_curve=curve,
    )
