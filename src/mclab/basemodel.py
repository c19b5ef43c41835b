"""The staged base classifier: conv features -> LSTM -> attention -> head.

The conv output (C', H', W') is read row-major as a sequence of T = H'*W'
positions with C' features each, run through a single unrolled LSTM cell and
one single-head attention stage, mean-pooled over positions and classified by
a two-layer head. Class imbalance is handled by inverse-frequency weights in
the loss; per-channel input standardization stands in for batch normalization
at this scale. Intermediate representations from all four stages are exposed to
downstream correctors as one (n, total) latent matrix plus the
``LatentLayout`` that names its column blocks (``forward_latents``, which
also returns the class probabilities of the same pass). ``extract_latents``,
``stack_latents`` and ``LatentRecord`` are per-sample views of that matrix
for callers outside the package; the package itself uses the matrix.
"""

from __future__ import annotations

import io
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .core import MAX_CLASSES, LabeledDataset, Rng, _LineReader, _value
from .stages import AttentionStage, ConvStage, HeadStage, LstmStage, softmax

__all__ = [
    "LatentLayout",
    "LatentRecord",
    "ModelConfig",
    "StagedModel",
    "TrainConfig",
    "TrainingHistory",
    "extract_latents",
    "forward_latents",
    "load_model",
    "predict_batch",
    "save_model",
    "stack_latents",
    "train",
    "weighted_ce_loss",
]

logger = logging.getLogger("mclab")

LOG_CLAMP = 1e-12
MODEL_MAGIC = "mclab-model v2"

LATENT_STAGES = ("conv_out", "lstm_out", "attn_out", "fc_out", "logits")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs. The sequence width equals the last conv channel
    count, so the LSTM/attention/head width is conv_channels[-1]."""

    input_shape: tuple[int, int, int] = (1, 8, 8)
    conv_channels: tuple[int, ...] = (4, 8, 16)
    n_classes: int = 7

    def __post_init__(self) -> None:
        if len(self.input_shape) != 3 or not all(s >= 1 for s in self.input_shape):
            raise ValueError("input_shape must be (channels, height, width)")
        if len(self.conv_channels) != 3 or not all(c >= 1 for c in self.conv_channels):
            raise ValueError("conv_channels must be three positive counts")
        if not self.n_classes >= 2:
            raise ValueError("need at least two classes")
        if not min(self.conv_out_shape[1:]) >= 1:
            raise ValueError("input too small: pooling collapses below 1x1")

    @property
    def width(self) -> int:
        return int(self.conv_channels[-1])

    @property
    def conv_out_shape(self) -> tuple[int, int, int]:
        h, w = self.input_shape[1], self.input_shape[2]
        for _ in self.conv_channels:
            h, w = h // 2, w // 2
        return (self.width, h, w)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.02
    batch_size: int = 64
    max_epochs: int = 60
    patience: int = 10
    dropout_p: float = 0.5

    def __post_init__(self) -> None:
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if not (self.batch_size >= 1 and self.max_epochs >= 1):
            raise ValueError("batch_size and max_epochs must be >= 1")
        if not self.patience >= 0:
            raise ValueError("patience must be >= 0")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")


@dataclass(frozen=True)
class LatentLayout:
    """Ordered stage blocks of the columns of a latent matrix."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.sizes) or not self.names:
            raise ValueError("names and sizes must align and be non-empty")
        if any(s < 1 for s in self.sizes):
            raise ValueError("block sizes must be positive")

    @property
    def offsets(self) -> tuple[int, ...]:
        out = []
        pos = 0
        for s in self.sizes:
            out.append(pos)
            pos += s
        return tuple(out)

    @property
    def total(self) -> int:
        return int(sum(self.sizes))

    def block_slice(self, name: str) -> slice:
        for n, off, size in zip(self.names, self.offsets, self.sizes):
            if n == name:
                return slice(off, off + size)
        raise KeyError(name)


@dataclass(frozen=True)
class LatentRecord:
    """Per-sample intermediate representations of the staged model.

    conv_out: conv features mean-pooled over space (length C')
    lstm_out: final LSTM hidden state (length D)
    attn_out: attention output mean-pooled over positions (length D)
    fc_out:   head hidden activation before the final linear (length D)
    logits:   unnormalized class scores (length K)
    """

    conv_out: np.ndarray
    lstm_out: np.ndarray
    attn_out: np.ndarray
    fc_out: np.ndarray
    logits: np.ndarray
    layout: LatentLayout

    def concat(self) -> np.ndarray:
        return np.concatenate(
            [self.conv_out, self.lstm_out, self.attn_out, self.fc_out, self.logits]
        )


def stack_latents(records: Sequence[LatentRecord]) -> tuple[np.ndarray, LatentLayout]:
    """Stack records into an (n, total) matrix plus their shared layout."""
    if not records:
        raise ValueError("no latent records")
    layout = records[0].layout
    for r in records:
        if r.layout != layout:
            raise ValueError("latent records disagree on layout")
    return np.stack([r.concat() for r in records]), layout


def weighted_ce_loss(probs: np.ndarray, label: int, weights: np.ndarray) -> float:
    """Weighted cross-entropy -w_y * log(p_y) with the log clamped at 1e-12."""
    p = max(float(probs[int(label)]), LOG_CLAMP)
    return -float(weights[int(label)]) * float(np.log(p))


class StagedModel:
    """Conv -> LSTM -> attention -> head classifier over small image tensors.

    Flat feature vectors whose length equals prod(input_shape) are reshaped transparently,
    so Gaussian-cluster datasets feed the conv front end too; ``rng`` draws the weights.
    """

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        gen = rng.generator()
        c0 = config.input_shape[0]
        self.conv = ConvStage(c0, config.conv_channels, gen)
        self.lstm = LstmStage(config.width, config.width, gen)
        self.attn = AttentionStage(config.width, gen)
        self.head = HeadStage(config.width, config.n_classes, gen)
        self.input_mean = np.zeros(c0)
        self.input_std = np.ones(c0)

    # ---- parameters ----

    def params(self) -> list[tuple[str, np.ndarray]]:
        out: list[tuple[str, np.ndarray]] = []
        for stage in (self.conv, self.lstm, self.attn, self.head):
            out.extend(stage.params())
        return out

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [("input_mean", self.input_mean), ("input_std", self.input_std)]

    def set_input_stats(self, data: LabeledDataset) -> None:
        """Per-channel standardization statistics from a training set."""
        x = self._reshape(np.asarray(data.features, dtype=np.float64))
        self.input_mean = x.mean(axis=(0, 2, 3))
        self.input_std = np.maximum(x.std(axis=(0, 2, 3)), 1e-6)

    # ---- forward / backward ----

    def _reshape(self, x: np.ndarray) -> np.ndarray:
        shape = self.config.input_shape
        flat = int(np.prod(shape))
        if x.shape[1:] == shape:
            return x
        if x.ndim == 2 and x.shape[1] == flat:
            return x.reshape((x.shape[0],) + shape)
        raise ValueError(f"feature shape {x.shape[1:]} incompatible with input {shape}")

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.input_mean[None, :, None, None]) / self.input_std[None, :, None, None]

    def forward_batch(
        self,
        x: np.ndarray,
        dropout_p: float = 0.0,
        gen: np.random.Generator | None = None,
    ) -> dict:
        """Run the full pipeline; returns probs, logits, latents and caches.

        With ``dropout_p > 0`` a dropout mask on the head's hidden layer is
        drawn from ``gen``; at 0 the pass is deterministic (inference).
        """
        x = self._standardize(self._reshape(np.asarray(x, dtype=np.float64)))
        b_n = x.shape[0]
        conv_out, conv_cache = self.conv.forward(x)
        c_p, h_p, w_p = conv_out.shape[1:]
        seq = np.ascontiguousarray(
            conv_out.reshape(b_n, c_p, h_p * w_p).transpose(0, 2, 1)
        )  # row-major scan: positions as sequence, channels as features
        hs, lstm_cache = self.lstm.forward(seq)
        attn_out, attn_cache = self.attn.forward(hs)
        pooled = attn_out.mean(axis=1)
        dropout_mask = None
        if dropout_p > 0.0:
            if gen is None:
                raise ValueError("dropout needs a generator")
            keep = gen.random((b_n, self.config.width)) >= dropout_p
            dropout_mask = keep / (1.0 - dropout_p)
        logits, head_cache = self.head.forward(pooled, dropout_mask)
        probs = softmax(logits, axis=-1)
        return {
            "probs": probs,
            "logits": logits,
            "conv_out": conv_out,
            "hs": hs,
            "pooled": pooled,
            "fc_out": head_cache[2],
            "caches": (conv_cache, lstm_cache, attn_cache, head_cache),
            "seq_shape": (b_n, c_p, h_p, w_p),
        }

    def loss_and_grads(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        dropout_p: float = 0.0,
        gen: np.random.Generator | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean weighted cross-entropy over the batch plus analytic gradients."""
        fwd = self.forward_batch(x, dropout_p=dropout_p, gen=gen)
        probs = fwd["probs"]
        b_n = probs.shape[0]
        labels = np.asarray(labels, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)[labels]
        picked = np.maximum(probs[np.arange(b_n), labels], LOG_CLAMP)
        loss = float(np.mean(-w * np.log(picked)))

        dlogits = probs.copy()
        dlogits[np.arange(b_n), labels] -= 1.0
        dlogits *= w[:, None] / b_n

        conv_cache, lstm_cache, attn_cache, head_cache = fwd["caches"]
        dpooled, grads = self.head.backward(dlogits, head_cache)
        b_n2, c_p, h_p, w_p = fwd["seq_shape"]
        t_len = h_p * w_p
        dattn_seq = np.repeat(dpooled[:, None, :], t_len, axis=1) / t_len
        dhs, attn_grads = self.attn.backward(dattn_seq, attn_cache)
        grads.update(attn_grads)
        dseq, lstm_grads = self.lstm.backward(dhs, lstm_cache)
        grads.update(lstm_grads)
        dconv = np.ascontiguousarray(dseq.transpose(0, 2, 1)).reshape(b_n2, c_p, h_p, w_p)
        _, conv_grads = self.conv.backward(dconv, conv_cache, input_grad=False)
        grads.update(conv_grads)
        return loss, grads

    def latent_layout(self) -> LatentLayout:
        d = self.config.width
        c_p = self.config.conv_out_shape[0]
        return LatentLayout(LATENT_STAGES, (c_p, d, d, d, self.config.n_classes))


# rows per forward_batch call in the batched passes below
FORWARD_CHUNK = 256


def forward_latents(
    model: StagedModel, data: LabeledDataset | np.ndarray
) -> tuple[np.ndarray, np.ndarray, LatentLayout]:
    """One chunked pass: class probabilities, latent matrix and its layout.

    Dropout is disabled and sample order is preserved. Row i of the (n, total)
    matrix holds sample i's stage blocks in ``model.latent_layout()`` order.
    """
    x = data.features if isinstance(data, LabeledDataset) else np.asarray(data)
    layout = model.latent_layout()
    n = x.shape[0]
    probs = np.empty((n, model.config.n_classes))
    latents = np.empty((n, layout.total))
    for start in range(0, n, FORWARD_CHUNK):
        fwd = model.forward_batch(x[start : start + FORWARD_CHUNK])
        rows = slice(start, start + fwd["probs"].shape[0])
        probs[rows] = fwd["probs"]
        # the stage blocks, in LATENT_STAGES order
        latents[rows] = np.concatenate([fwd["conv_out"].mean(axis=(2, 3)), fwd["hs"][:, -1, :],
                                        fwd["pooled"], fwd["fc_out"], fwd["logits"]], axis=1)
    return probs, latents, layout


def predict_batch(
    model: StagedModel, data: LabeledDataset | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Labels (argmax ties break toward the lowest id) and class probabilities."""
    probs, _, _ = forward_latents(model, data)
    return probs.argmax(axis=1), probs


def extract_latents(
    model: StagedModel, data: LabeledDataset | np.ndarray
) -> list[LatentRecord]:
    """Latent records for every sample, dropout disabled, order preserved.

    The blocks of each record are views of one row of the ``forward_latents``
    matrix.
    """
    _, latents, layout = forward_latents(model, data)
    blocks = [layout.block_slice(name) for name in layout.names]
    return [
        LatentRecord(**dict(zip(layout.names, (row[b] for b in blocks))), layout=layout)
        for row in latents
    ]


@dataclass
class TrainingHistory:
    """Per-epoch log plus early-stopping bookkeeping."""

    rows: list[tuple[int, float, float]] = field(default_factory=list)
    best_epoch: int = 0
    best_val_acc: float = float("nan")
    stopped_early: bool = False

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_acc"]
        for epoch, loss, acc in self.rows:
            lines.append(f"{epoch},{loss:.8f},{acc:.6f}")
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="ascii")


def _accuracy(model: StagedModel, data: LabeledDataset) -> float:
    pred, _ = predict_batch(model, data)
    return float(np.mean(pred == data.labels))


def train(
    model: StagedModel,
    train_set: LabeledDataset,
    val_set: LabeledDataset,
    weights: np.ndarray,
    config: TrainConfig,
    rng: Rng,
) -> tuple[StagedModel, TrainingHistory]:
    """SGD with a fixed learning rate and accuracy-based early stopping.

    A class left out of training has weight 0 and no samples in ``train_set``
    (``core.exclude_class`` deletes them). The best-validation
    parameters are restored before returning; if train loss rose at the
    checkpoint epoch, a warning is logged. ``rng`` draws the shuffles and dropout masks.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (model.config.n_classes,) or np.any(weights < 0):
        raise ValueError("weights must be a non-negative length-K vector")
    unweighted = train_set.labels[weights[train_set.labels] == 0]
    if unweighted.size:
        raise ValueError(f"class {int(unweighted.min())} has weight 0 but samples in the "
                         "train set")
    if len(train_set) == 0:
        raise ValueError("empty train set")
    if len(val_set) == 0:
        raise ValueError("empty validation set")

    model.set_input_stats(train_set)
    gen = rng.generator()
    x_all = train_set.features
    y_all = train_set.labels
    n = len(train_set)
    history = TrainingHistory()
    best_params = [p.copy() for _, p in model.params()]
    best_acc = -np.inf
    best_epoch = 0
    since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        perm = gen.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, grads = model.loss_and_grads(
                x_all[idx], y_all[idx], weights, dropout_p=config.dropout_p, gen=gen
            )
            loss_sum += loss * idx.size
            for name, param in model.params():
                param -= config.learning_rate * grads[name]
        train_loss = loss_sum / n
        val_acc = _accuracy(model, val_set)
        history.rows.append((epoch, train_loss, val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = [p.copy() for _, p in model.params()]
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                history.stopped_early = True
                break

    for (_, param), saved in zip(model.params(), best_params):
        param[...] = saved
    history.best_epoch = best_epoch
    history.best_val_acc = float(best_acc)
    if best_epoch > 1:
        prev_loss = history.rows[best_epoch - 2][1]
        at_best = history.rows[best_epoch - 1][1]
        if at_best > prev_loss:
            logger.warning(
                "train loss rose at checkpoint epoch %d (%.6f -> %.6f)",
                best_epoch, prev_loss, at_best,
            )
    return model, history


# ---- checkpoint io ----


def save_model(model: StagedModel, path: str | Path) -> None:
    """Versioned binary checkpoint: text header, then float64 blocks (a load is exact)."""
    blocks = model.buffers() + model.params()
    header = {
        "config": asdict(model.config),
        "blocks": [[name, list(arr.shape)] for name, arr in blocks],
    }
    buf = io.BytesIO()
    buf.write((MODEL_MAGIC + "\n").encode("ascii"))
    buf.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
    for _, arr in blocks:
        buf.write(np.asarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(buf.getvalue())


def _block_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) of every checkpoint block of a ``config`` model, in
    ``buffers() + params()`` order, without building the model."""
    c0, d, k = config.input_shape[0], config.width, config.n_classes
    shapes = [("input_mean", (c0,)), ("input_std", (c0,))]
    for i, (ci, co) in enumerate(zip((c0,) + config.conv_channels, config.conv_channels)):
        shapes += [(f"conv{i}.w", (co, ci, 3, 3)), (f"conv{i}.b", (co,))]
    shapes += [("lstm.wx", (d, 4 * d)), ("lstm.wh", (d, 4 * d)), ("lstm.b", (4 * d,))]
    shapes += [(f"attn.{kind}{x}", (d, d) if kind == "w" else (d,))
               for x in "qkvo" for kind in "wb"]
    return shapes + [("head.w1", (d, d)), ("head.b1", (d,)),
                     ("head.w2", (d, k)), ("head.b2", (k,))]


def load_model(path: str | Path) -> StagedModel:
    """Read a checkpoint written by ``save_model``.

    A malformed file raises ValueError naming the path, and the line for a
    fault in the text header: another checkpoint version (a float32 v1 file)
    or no checkpoint, a non-ASCII byte, a header that does not parse or has
    no newline, an unknown header key or config field, a config field that
    is missing or of the wrong type, an invalid config or more than
    ``MAX_CLASSES`` classes, or a block list other than ``_block_shapes`` of
    the config (the message names the first entry that differs, as the file
    has it and as the config implies it). With no line, it names a float64
    payload that is not exactly 8 bytes per weight, or the first block that
    holds a NaN or an infinity. All of this is checked before the model is
    built, so a model is built only for a file that holds every one of its
    weights, each finite, in the order its parameters take them.
    """
    raw = Path(path).read_bytes()
    end = raw.find(b"\n", raw.find(b"\n") + 1) + 1  # past the two header lines; 0 if cut short
    lines = _LineReader(path, raw[:end or len(raw)])
    magic = lines.next()
    if magic != MODEL_MAGIC:
        lines.fail(f"checkpoint {magic!r}, this loader reads {MODEL_MAGIC!r} only"
                   if magic.startswith("mclab-model ") else "not a model checkpoint")
    text = lines.next()
    if not end:
        lines.fail("header line has no newline")
    try:
        header = json.loads(text)
        doc = header["config"]
        hints = get_type_hints(ModelConfig)
        unknown = [key for key in header if key not in ("blocks", "config")]
        unknown += [f"config.{name}" for name in doc if name not in hints]
        if unknown:
            raise ValueError(f"unknown fields {', '.join(unknown)}")
        absent = [name for name in hints if name not in doc]
        if absent:
            raise ValueError(f"config lacks {', '.join(absent)}")
        cfg = ModelConfig(**{name: _value(hint, doc[name], f"config.{name}")
                             for name, hint in hints.items()})
        if cfg.n_classes > MAX_CLASSES:
            raise ValueError(f"{cfg.n_classes} classes exceed the ceiling of {MAX_CLASSES}")
        blocks = [_value(tuple[str, tuple[int, ...]], block, "blocks")
                  for block in header["blocks"]]
    except (ValueError, KeyError, TypeError) as exc:
        lines.fail(f"malformed header: {exc}")
    expected = _block_shapes(cfg)
    if blocks != expected:
        i = next((i for i, pair in enumerate(zip(blocks, expected)) if pair[0] != pair[1]),
                 min(len(blocks), len(expected)))
        have, want = (f"{entries[i][0]!r} {list(entries[i][1])}" if i < len(entries)
                      else "no block" for entries in (blocks, expected))
        lines.fail(f"block {i}: the file has {have}, the config implies {want}")
    size = sum(math.prod(shape) for _, shape in expected)
    if len(raw) - end != 8 * size:
        raise ValueError(f"{path}: payload of {len(raw) - end} bytes, "
                         f"the blocks need {8 * size}")
    weights = np.split(np.frombuffer(raw, dtype="<f8", offset=end),
                       np.cumsum([math.prod(shape) for _, shape in expected])[:-1])
    for i, ((name, _), block) in enumerate(zip(expected, weights)):
        bad = block[~np.isfinite(block)]
        if bad.size:
            raise ValueError(f"{path}: block {i} {name!r} holds {bad[0]}, not a finite float64")
    model = StagedModel(cfg, Rng.from_seed(0))  # every weight it draws is overwritten below
    for (_, arr), block in zip(model.buffers() + model.params(), weights):
        arr[...] = block.reshape(arr.shape)
    return model
