"""Gradient-boosted decision trees over latent matrices, written from scratch.

One-vs-all softmax boosting with Newton (second-order) leaf estimates: each
round fits K regression trees to the class gradients g_i = p_i - y_i with
hessians h_i = p_i (1 - p_i). A split maximizes ``split_gain``,

    gain = 1/2 * (G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)),

over the boundaries whose two children are non-empty and each hold a
hessian sum of at least min_child_weight (mcw), with ties broken toward the
lower feature index, then the lower threshold. Leaf values are
-G/(H+lambda) * learning_rate, added to the margins of the leaf's rows where
the leaf is made.

The candidate boundaries are those of a histogram (LightGBM; Ke et al.,
NeurIPS 2017) over quantile bins (Chen & Guestrin, XGBoost, KDD 2016). A fit
bins each feature once. A feature with at most MAX_BINS distinct values gets
one bin per value; any other gets the upper edges of its sorted values at
ranks floor(i*n/MAX_BINS) - 1, i = 1..MAX_BINS, duplicates removed. A value's
bin is the first whose edge is >= it, with NaN sorted last; no split uses the
last bin, as it would leave the right child empty. Every edge is a training
value, so for every other bin b, ``bin <= b`` holds exactly when
``x <= edges[b]``: a split at bin b writes the threshold edges[b], and the
``x <= t`` rule below routes every training row as the fit did. A node sums
its row count, g and h per (feature, bin) with one bincount each, in row
order, and scores every boundary from their cumulative sums over the bins.
A node whose hessian sum H is below 2*mcw is a leaf without a histogram: a
boundary with H_L >= mcw leaves H_R = H - H_L <= H - mcw < mcw, since
rounding is monotone.

Evaluation packs the trees into flat arrays and scores them as leaf
bitmasks, after QuickScorer (Lucchese et al., SIGIR 2015). A tree's leaves
are numbered left to right, and each split node carries a word whose set
bits are the leaves of its left subtree. A row for which ``x <= t`` is false
at a node cannot reach those leaves; OR-ing the words of all such nodes of a
tree marks every leaf the row cannot reach, and the lowest unmarked bit is
its exit leaf. NaN compares false, so a NaN feature goes right at every
split. Words are uint8 to uint64, the narrowest that holds a tree's leaves;
a tree with more than 64 leaves spans several words. Leaf values are added
round by round, in the order ``fit`` adds them, so the margins are
bit-identical to walking each tree row by row.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .basemodel import LatentLayout
from .core import _LineReader
from .stages import softmax

__all__ = [
    "CorrectorEnsemble",
    "GbdtConfig",
    "PackedForest",
    "Tree",
    "fit",
    "load_ensemble",
    "pack_trees",
    "save_ensemble",
    "split_gain",
]

GBDT_MAGIC = "mclab-gbdt v1"

# One evaluation block's (split nodes, rows) scratch holds about this many
# elements; the block's row count follows from the forest's split count, but
# is at least 32, below which per-block overhead dominates.
EVAL_BLOCK_ELEMENTS = 1 << 16

# A fit bins each feature into at most this many bins (see the module notes).
MAX_BINS = 32


@dataclass(frozen=True)
class GbdtConfig:
    n_rounds: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    min_child_weight: float = 1.0
    lambda_l2: float = 1.0

    def __post_init__(self) -> None:
        if not self.n_rounds >= 1:
            raise ValueError("n_rounds must be >= 1")
        if not self.max_depth >= 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 <= self.min_child_weight < math.inf:
            raise ValueError("min_child_weight must be finite and >= 0")
        if not 0 <= self.lambda_l2 < math.inf:
            raise ValueError("lambda_l2 must be finite and >= 0")


def split_gain(
    g_left: float | np.ndarray, h_left: float | np.ndarray,
    g_right: float | np.ndarray, h_right: float | np.ndarray, lambda_l2: float,
) -> float | np.ndarray:
    """Split gain for the child gradient/hessian sums: floats, or arrays of
    candidates."""
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

    def _add(self, feature: int, threshold: float, value: float) -> int:
        self.feature.append(int(feature))
        self.threshold.append(float(threshold))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        return len(self.feature) - 1

    def add_leaf(self, value: float) -> int:
        return self._add(-1, 0.0, value)

    def add_split(self, feature: int, threshold: float) -> int:
        return self._add(feature, threshold, 0.0)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _leaf_order(tree: Tree) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The tree's leaves left to right, and (node, lo, mid) per split node:
    its left subtree holds leaves lo..mid-1 and its right subtree starts at mid."""
    before: dict[int, int] = {}  # node -> leaves left of its subtree
    leaves: list[int] = []
    stack = [0]
    while stack:
        node = stack.pop()
        before[node] = len(leaves)
        if tree.feature[node] < 0:
            leaves.append(node)
        else:
            stack += (tree.right[node], tree.left[node])
    splits = [(n, lo, before[tree.right[n]]) for n, lo in before.items() if tree.feature[n] >= 0]
    return leaves, splits


@dataclass(frozen=True)
class PackedForest:
    """Trees as flat arrays for leaf-bitmask evaluation (see the module notes).

    A word covers up to ``bits`` consecutive leaves of one tree. Node rows
    come in layers: layer j holds the j-th node of every word that has more
    than j. Words sit in slots sorted by node count, so the words a layer
    touches are always a prefix of the slots.
    """

    feature: np.ndarray  # (S,) split feature of each node row
    threshold: np.ndarray  # (S,)
    left_leaves: np.ndarray  # (S,) word: the node's left-subtree leaves
    layers: tuple[int, ...]  # node rows per layer
    slot_word: np.ndarray  # (W,) word held by each slot
    slot_leaf: np.ndarray  # (W,) flat leaf index of bit 0 of the slot's word
    tree_first_word: np.ndarray | None  # (T,); None when every tree fits one word
    values: np.ndarray  # leaf values: trees in order, leaves left to right
    n_trees: int

    @property
    def bits(self) -> int:
        return 8 * self.left_leaves.dtype.itemsize

    def leaf_values(self, x: np.ndarray) -> np.ndarray:
        """(n_trees, rows): the value of the leaf each row of ``x`` reaches."""
        goes_right = ~(np.ascontiguousarray(x.T)[self.feature] <= self.threshold[:, None])
        lost_words = self.left_leaves[:, None] * goes_right
        lost = np.zeros((self.slot_word.size, x.shape[0]), self.left_leaves.dtype)
        start = 0
        for count in self.layers:
            np.bitwise_or(lost[:count], lost_words[start : start + count], out=lost[:count])
            start += count
        # the exit leaf is the lowest bit not lost: count the trailing ones
        exit_bit = np.bitwise_count(lost & ~(lost + 1))
        leaf = self.slot_leaf[:, None] + exit_bit
        if self.tree_first_word is not None:
            leaf[exit_bit == self.bits] = self.values.size  # every leaf of the word lost
        by_word = np.empty_like(leaf)
        by_word[self.slot_word] = leaf
        if self.tree_first_word is not None:
            by_word = np.minimum.reduceat(by_word, self.tree_first_word, axis=0)
        return self.values[by_word]


def pack_trees(trees: Sequence[Tree]) -> PackedForest:
    """Flatten ``trees`` (in order) into one ``PackedForest``."""
    shapes = [_leaf_order(tree) for tree in trees]
    widest = max((len(leaves) for leaves, _ in shapes), default=1)
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if widest <= 8 * np.dtype(t).itemsize or t is np.uint64)
    bits = 8 * np.dtype(dtype).itemsize
    words: list[list[tuple[int, float, int]]] = []  # per word: (feature, threshold, bits)
    word_leaf: list[int] = []
    tree_first_word: list[int] = []
    values: list[float] = []
    for tree, (leaves, splits) in zip(trees, shapes):
        first = len(words)
        tree_first_word.append(first)
        for w in range(0, len(leaves), bits):
            word_leaf.append(len(values) + w)
            words.append([])
        values.extend(tree.value[leaf] for leaf in leaves)
        for node, lo, mid in splits:
            for w in range(lo // bits, (mid - 1) // bits + 1):
                a, b = max(lo - w * bits, 0), min(mid - w * bits, bits)
                words[first + w].append(
                    (tree.feature[node], tree.threshold[node], ((1 << (b - a)) - 1) << a)
                )
    counts = np.array([len(nodes) for nodes in words], dtype=np.intp)
    slot_word = np.argsort(-counts, kind="stable")
    layers, rows = [], []
    for j in range(int(counts.max(initial=0))):
        live = int(np.count_nonzero(counts > j))
        layers.append(live)
        rows.extend(words[w][j] for w in slot_word[:live])
    feature, threshold, left_leaves = zip(*rows) if rows else ((), (), ())
    return PackedForest(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left_leaves=np.array(left_leaves, dtype=dtype),
        layers=tuple(layers),
        slot_word=slot_word,
        slot_leaf=np.array(word_leaf, dtype=np.intp)[slot_word],
        tree_first_word=(None if len(words) == len(trees)
                         else np.array(tree_first_word, dtype=np.intp)),
        values=np.array(values, dtype=np.float64),
        n_trees=len(trees),
    )


def _add_leaf_values(forest: PackedForest, x: np.ndarray, margins: np.ndarray) -> None:
    """Add the forest's leaf values for the rows of ``x`` to ``margins`` (n, K).

    The trees are round-major, K per round. Each round's values are added
    after the round before, as ``fit`` adds them at its leaves, so the sums
    are bit-identical to adding one tree at a time. Rows go in blocks whose
    scratch stays near ``EVAL_BLOCK_ELEMENTS`` (at least 32 rows).
    """
    k = margins.shape[1]
    if forest.n_trees % k:
        raise ValueError(f"{forest.n_trees} trees do not split into rounds of {k} classes")
    if forest.n_trees == 0:
        return
    rows = max(32, EVAL_BLOCK_ELEMENTS // max(1, forest.feature.size))
    for start in range(0, x.shape[0], rows):
        block = slice(start, start + rows)
        vals = forest.leaf_values(x[block])
        vals = vals.reshape(-1, k, vals.shape[1])
        vals[0] += margins[block].T
        margins[block] = np.add.accumulate(vals, axis=0)[-1].T


def _bin(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The (n, d) bin codes of ``x``, offset by MAX_BINS per feature so that
    one bincount covers every (feature, bin), and each feature's bin edges
    (see the module notes)."""
    n, d = x.shape
    ranks = np.arange(1, MAX_BINS + 1) * n // MAX_BINS - 1
    edges = []
    for column in x.T:
        values = np.unique(column)
        if values.size > MAX_BINS:
            values = np.unique(np.sort(column)[ranks])
        edges.append(values)
    codes = np.column_stack([np.searchsorted(e, column) for e, column in zip(edges, x.T)])
    return codes + np.arange(d) * MAX_BINS, edges


def _build_tree(
    g: np.ndarray,
    h: np.ndarray,
    margin: np.ndarray,
    codes: np.ndarray,
    edges: list[np.ndarray],
    cfg: GbdtConfig,
    importance: np.ndarray,
) -> Tree:
    """Grow one tree on the binned rows (``_bin``); each leaf adds its value
    to its rows of ``margin`` (n,)."""
    tree = Tree()
    d = len(edges)
    mcw, lam = cfg.min_child_weight, cfg.lambda_l2

    def grow(rows: np.ndarray, depth: int) -> int:
        g_node, h_node = g[rows], h[rows]
        g_sum, h_sum = float(g_node.sum()), float(h_node.sum())
        best, gain = 0, -np.inf
        if depth < cfg.max_depth and h_sum >= 2 * mcw:
            # per (feature, bin), summed in row order, then cumulated over bins:
            # the rows, gradient and hessian left of each boundary
            idx = codes[rows].ravel()
            count_l, g_l, h_l = (
                np.bincount(idx, w, d * MAX_BINS).reshape(d, MAX_BINS).cumsum(axis=1)
                for w in (None, np.repeat(g_node, d), np.repeat(h_node, d)))
            h_r = h_sum - h_l
            with np.errstate(divide="ignore", invalid="ignore"):  # cells masked below
                gains = split_gain(g_l, h_l, g_sum - g_l, h_r, lam)
            valid = (count_l > 0) & (count_l < rows.size) & (h_l >= mcw) & (h_r >= mcw)
            gains = np.where(valid, gains, -np.inf)
            best = int(np.argmax(gains))  # row-major first max: lowest feature, bin
            gain = float(gains.flat[best])
        if not (np.isfinite(gain) and gain > 0.0):
            value = -g_sum / (h_sum + lam) * cfg.learning_rate
            margin[rows] += value
            return tree.add_leaf(value)
        feat, b = divmod(best, MAX_BINS)
        importance[feat] += gain
        node = tree.add_split(feat, edges[feat][b])
        left = codes[rows, feat] <= best  # bin <= b, that is x <= edges[feat][b]
        tree.left[node] = grow(rows[left], depth + 1)
        tree.right[node] = grow(rows[~left], depth + 1)
        return node

    grow(np.arange(codes.shape[0]), 0)
    return tree


@dataclass
class CorrectorEnsemble:
    """Fitted boosted-tree classifier over the rows of a latent matrix."""

    config: GbdtConfig
    n_classes: int
    n_features: int
    base_score: np.ndarray  # (K,) prior log-probabilities
    trees: list[list[Tree]]  # trees[round][class]
    layout: LatentLayout | None
    feature_importance_: np.ndarray  # (n_features,) accumulated split gain
    loss_curve: list[float]  # train log-loss, index 0 = before round 1

    def align(self, matrix: np.ndarray, layout: LatentLayout) -> np.ndarray:
        """``matrix`` itself, after checking that its stage blocks (``layout``)
        are the ones the ensemble was fitted on."""
        if self.layout is not None and layout != self.layout:
            raise ValueError(f"latent layout stages {_blocks(layout)} != fitted "
                             f"{_blocks(self.layout)}")
        return matrix

    @cached_property
    def packed(self) -> PackedForest:
        """Every tree, packed once on first use; ``trees`` must not change after."""
        return pack_trees([tree for round_trees in self.trees for tree in round_trees])

    def raw_margins(self, x: np.ndarray) -> np.ndarray:
        """(n, K) margins for the rows of the (n, n_features) matrix ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D latent matrix, got shape {x.shape}")
        if x.shape[1] != self.n_features:
            raise ValueError(f"latent width {x.shape[1]} != fitted width {self.n_features}")
        margins = np.tile(self.base_score, (x.shape[0], 1))
        _add_leaf_values(self.packed, x, margins)
        return margins

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """(n, K) class posteriors for the rows of ``x``; rows sum to 1."""
        return softmax(self.raw_margins(x), axis=-1)


def _blocks(layout: LatentLayout) -> str:
    return ",".join(f"{name}:{size}" for name, size in zip(layout.names, layout.sizes))


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _log_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = np.maximum(probs[np.arange(labels.size), labels], 1e-15)
    return float(np.mean(-np.log(picked)))


def fit(
    x: np.ndarray,
    labels: np.ndarray | Sequence[int],
    config: GbdtConfig = GbdtConfig(),
    n_classes: int | None = None,
    layout: LatentLayout | None = None,
) -> CorrectorEnsemble:
    """Fit the boosted ensemble on the (n, d) latent matrix ``x``.

    ``layout`` names the stage blocks of the columns, as ``forward_latents``
    returns it; the ensemble keeps it to check the blocks of later inputs
    (``align``) and writes it to its checkpoint. ``n_classes`` defaults to
    max(labels)+1; pass it explicitly when the label space is wider than the
    observed labels. Training log-loss is recorded per round and is
    non-increasing.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or 0 in x.shape:
        raise ValueError("empty input")
    if layout is not None and layout.total != x.shape[1]:
        raise ValueError(f"layout covers {layout.total} columns, the matrix has {x.shape[1]}")
    if labels.shape != (x.shape[0],):
        raise ValueError("labels must align with latents")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if n_classes is not None and not isinstance(n_classes, (int, np.integer)):
        raise ValueError(f"n_classes must be an integer, got {n_classes!r}")
    k = int(n_classes) if n_classes is not None else int(labels.max()) + 1
    if k < 2:
        raise ValueError("single-class input: need a label space of at least 2")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    labels = labels.astype(np.intp)

    n = x.shape[0]
    priors = np.maximum(np.bincount(labels, minlength=k) / n, 1e-12)
    base = np.log(priors)
    y = _one_hot(labels, k)
    margins = np.tile(base, (n, 1))
    importance = np.zeros(x.shape[1])
    trees: list[list[Tree]] = []
    probs = softmax(margins, axis=-1)
    curve = [_log_loss(probs, labels)]
    codes, edges = _bin(x)  # shared by every tree: x never changes
    for _ in range(config.n_rounds):
        grad = probs - y
        hess = probs * (1.0 - probs)
        # gradients are fixed at the start of a round, so each tree adds its
        # leaf values to its class's margins as it grows, and every row gets
        # one add per tree
        trees.append([
            _build_tree(grad[:, cls], hess[:, cls], margins[:, cls], codes, edges, config,
                        importance)
            for cls in range(k)
        ])
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
    head = {"n_classes": ensemble.n_classes, "n_features": ensemble.n_features,
            **asdict(ensemble.config)}
    pairs = [f"{key}={value}" for key, value in head.items()]
    lines = [GBDT_MAGIC, " ".join(pairs[:4]), " ".join(pairs[4:])]
    lines.append("base_score=" + ",".join(repr(float(v)) for v in ensemble.base_score))
    if ensemble.layout is not None:
        lines.append("layout=" + _blocks(ensemble.layout))
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
    """Read a checkpoint written by ``save_ensemble``.

    A truncated or malformed file raises ValueError naming the path and the
    line. Besides the syntax it checks what evaluation relies on: one
    base score per class, one importance per feature, n_rounds x n_classes
    trees, and node tables that form a binary tree over the ensemble's
    features (children come after their parent, every node but the root
    has exactly one parent, and leaves have children -1,-1). Every number
    is finite, as ``fit`` writes them, except that a threshold may be
    +-inf (never NaN).
    """
    lines = _LineReader(path, Path(path).read_bytes())
    if lines.next() != GBDT_MAGIC:
        lines.fail("not an ensemble checkpoint")
    kinds = {"n_classes": int, "n_features": int} | {  # in save_ensemble's order
        name: float if hint is float else int for name, hint in get_type_hints(GbdtConfig).items()}

    def fields(names: list[str]) -> dict:
        pairs = dict(part.partition("=")[::2] for part in lines.next().split())
        if sorted(pairs) != sorted(names):
            lines.fail(f"expected the fields {', '.join(names)}")
        return {key: lines.number(kinds[key], key, pairs[key]) for key in names}

    def finite(name: str, text: str) -> float:
        value = lines.number(float, name, text)
        if not math.isfinite(value):
            lines.fail(f"{name} {text!r} is not finite")
        return value

    def floats(prefix: str, count: int) -> np.ndarray:
        values = [finite(prefix[:-1], v) for v in lines.next(prefix).split(",")]
        if len(values) != count:
            lines.fail(f"{prefix[:-1]} has {len(values)} values, expected {count}")
        return np.array(values)

    def read_tree(n_nodes: int, n_features: int) -> Tree:
        if not 1 <= n_nodes <= len(lines.lines) - lines.at:
            lines.fail(f"nodes={n_nodes} does not fit the rest of the file")
        first = lines.at + 1  # the line of node 0
        parent = [-1] * n_nodes
        tree = Tree()
        for j in range(n_nodes):
            cells = lines.next().split(",")
            if len(cells) != 6 or lines.number(int, "node", cells[0]) != j:
                lines.fail(f"malformed node: expected 6 fields starting with {j}")
            feat, left, right = (lines.number(int, name, cells[c])
                                 for name, c in (("feature", 1), ("left", 3), ("right", 4)))
            if feat == -1:
                if (left, right) != (-1, -1):
                    lines.fail("a leaf must have children -1,-1")
            elif not 0 <= feat < n_features:
                lines.fail(f"split feature {feat} is outside [0, {n_features})")
            else:
                for child in (left, right):
                    if not j < child < n_nodes:
                        lines.fail(f"child {child} is outside ({j}, {n_nodes})")
                    if parent[child] >= 0:
                        lines.fail(f"node {child} already has parent {parent[child]}")
                    parent[child] = j
            threshold = lines.number(float, "threshold", cells[2])
            if math.isnan(threshold):  # +-inf route rows soundly; fit writes -inf itself
                lines.fail(f"threshold {cells[2]!r} is NaN")
            tree.feature.append(feat)
            tree.threshold.append(threshold)
            tree.left.append(left)
            tree.right.append(right)
            tree.value.append(finite("value", cells[5]))
        for j in range(1, n_nodes):
            if parent[j] < 0:
                lines.at = first + j
                lines.fail(f"node {j} has no parent")
        return tree

    head = fields(list(kinds)[:4])
    n_classes, n_features = head.pop("n_classes"), head.pop("n_features")
    if n_classes < 2 or n_features < 1:
        lines.fail("need n_classes >= 2 and n_features >= 1")
    head |= fields(list(kinds)[4:])
    try:
        config = GbdtConfig(**head)
    except ValueError as exc:
        lines.fail(str(exc))
    base = floats("base_score=", n_classes)
    layout_field = lines.next("layout=")
    layout = None
    if layout_field != "none":
        names, sizes = [], []
        for part in layout_field.split(","):
            name, _, size = part.rpartition(":")
            names.append(name)
            sizes.append(lines.number(int, name, size))
        try:
            layout = LatentLayout(tuple(names), tuple(sizes))
        except ValueError as exc:
            lines.fail(str(exc))
        if layout.total != n_features:
            lines.fail(f"layout covers {layout.total} features, expected {n_features}")
    importance = floats("importance=", n_features)
    curve = floats("loss_curve=", config.n_rounds + 1).tolist()

    tree_re = re.compile(r"tree round=(\d+) class=(\d+) nodes=(\d+)")
    trees: list[list[Tree]] = []
    for r in range(config.n_rounds):
        trees.append([])
        for cls in range(n_classes):
            header = lines.next()
            if header == "end":
                lines.fail(f"{r * n_classes + cls} trees, expected {config.n_rounds} rounds "
                           f"x {n_classes} classes")
            m = tree_re.fullmatch(header)
            if not m:
                lines.fail("malformed tree header")
            found = [lines.number(int, name, text)
                     for name, text in zip(("round", "class", "nodes"), m.groups())]
            if found[:2] != [r, cls]:
                lines.fail(f"trees out of order: expected round={r} class={cls}")
            trees[-1].append(read_tree(found[2], n_features))
    if lines.next() != "end":
        lines.fail(f"expected 'end' after {config.n_rounds} rounds x {n_classes} classes of trees")
    for _ in lines:
        lines.fail("content after 'end'")

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
