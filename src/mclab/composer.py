"""Composition of the base classifier with a corrector under the paper's
decision rule.

The corrected classifier returns the base prediction unless the corrector
names the excluded class with probability at least ``tau``; then that label
(or, with ``as_new_class``, the NEW_CLASS sentinel) replaces it. Raising
``tau`` never increases the number of overrides. A ``DecisionPolicy`` checks
its fields when it is built; only the range of the run-time
``excluded_label``, which depends on the corrector, is checked in
``decide_batch``.

``compose_batch`` streams the batch in row blocks: one forward pass per
block yields both the base posteriors and the corrector's latent rows, and
the policy runs once over the whole posterior arrays (``decide_batch``).
Both return ``Predictions``, one array per column; iterating it yields one
``CorrectedPrediction`` row per sample, built on demand.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .basemodel import FORWARD_CHUNK, StagedModel, forward_latents
from .core import NEW_CLASS, ConfigError, LabeledDataset, _LineReader
from .corrector import CorrectorEnsemble
from .metrics import PairedPredictions

__all__ = [
    "NEW_CLASS",
    "CorrectedPrediction",
    "DecisionPolicy",
    "Predictions",
    "compose_batch",
    "decide_batch",
    "read_prediction_log",
    "write_prediction_log",
]

PREDS_MAGIC = "mclab-preds v1"
LOG_COLUMNS = "sample_id,true,base,corrected,overridden,base_conf,corr_conf"
_LOG_HEADER = re.compile(rf"# {re.escape(PREDS_MAGIC)} K=([1-9][0-9]*)")
_CELL_KINDS = (int,) * 5 + (float,) * 2
_NO_COLUMNS = "prediction log missing column header"

# compose_batch streams rows in blocks of this size. It is a multiple of the
# forward chunk, so every block splits into the chunks one pass over the
# whole batch would make.
STREAM_BLOCK = 16 * FORWARD_CHUNK


@dataclass(frozen=True)
class DecisionPolicy:
    """When the corrector's verdict replaces the base prediction.

    The override fires only when the corrector's argmax is ``excluded_label``,
    the class left out of the base model's training, with probability at
    least ``tau``. With ``as_new_class`` the override emits the NEW_CLASS
    sentinel instead of the label itself.

    A ``tau`` that is not a real number (a bool or NaN included), an
    ``as_new_class`` that is not a bool, and an ``excluded_label`` that is
    neither None nor an int (a bool included) are rejected when the policy
    is built. Any other ``tau`` builds: one above 1 is unreachable and
    switches overrides off. The config document also keeps ``tau`` in
    [0, 1] (``harness.normalize_config``). Whether the run-time
    ``excluded_label`` is one of the corrector's classes is checked when the
    policy is applied.
    """

    tau: float = 0.5
    excluded_label: int | None = None
    as_new_class: bool = False

    def __post_init__(self) -> None:
        tau = self.tau
        if isinstance(tau, bool) or not isinstance(tau, numbers.Real) or math.isnan(tau):
            raise ConfigError("tau", f"must be a number, not {tau!r}")
        if not isinstance(self.as_new_class, bool):
            raise ConfigError("as_new_class", f"must be a bool, not {self.as_new_class!r}")
        label = self.excluded_label
        if isinstance(label, bool) or not isinstance(label, (int, np.integer, type(None))):
            raise ConfigError("excluded_label", f"must be an int, not {label!r}")


class CorrectedPrediction(NamedTuple):
    """One sample's row of ``Predictions``."""

    base_label: int
    corrected_label: int  # may be NEW_CLASS (-1)
    overridden: bool
    base_probs: np.ndarray
    corrector_probs: np.ndarray


@dataclass(frozen=True)
class Predictions:
    """Corrected predictions for n samples, one array per column.

    ``len`` is n, and iterating yields one ``CorrectedPrediction`` per
    sample, in order, built as it is reached.
    """

    base_labels: np.ndarray  # (n,) int
    corrected_labels: np.ndarray  # (n,) int, NEW_CLASS where the policy flags a new class
    overridden: np.ndarray  # (n,) bool
    base_probs: np.ndarray  # (n, K)
    corrector_probs: np.ndarray  # (n, K')

    def __len__(self) -> int:
        return self.base_labels.size

    def __iter__(self) -> Iterator[CorrectedPrediction]:
        return map(
            CorrectedPrediction,
            self.base_labels.tolist(),
            self.corrected_labels.tolist(),
            self.overridden.tolist(),
            self.base_probs,
            self.corrector_probs,
        )


def decide_batch(
    base_probs: np.ndarray,
    corr_probs: np.ndarray,
    policy: DecisionPolicy | None,
) -> Predictions:
    """Apply the policy to (n, K) base and corrector posteriors, one row per sample.

    The rule runs once over the whole arrays. With ``policy=None`` the base
    prediction stands everywhere, as in the baseline run, which has no
    corrector. The result holds the two posterior arrays themselves.
    """
    if base_probs.shape[0] != corr_probs.shape[0]:
        raise ValueError("base and corrector posteriors must have one row per sample")
    base_label = base_probs.argmax(axis=1)
    if policy is None:
        corrected = base_label
    else:
        exc = policy.excluded_label
        if exc is None:
            raise ValueError("the policy needs an excluded_label")
        if not 0 <= exc < corr_probs.shape[1]:
            raise ValueError(
                f"excluded_label {exc} is outside the corrector's {corr_probs.shape[1]} classes"
            )
        fire = (corr_probs.argmax(axis=1) == exc) & (corr_probs[:, exc] >= policy.tau)
        corrected = np.where(fire, NEW_CLASS if policy.as_new_class else exc, base_label)
    return Predictions(base_label, corrected, corrected != base_label, base_probs, corr_probs)


def compose_batch(
    model: StagedModel,
    ensemble: CorrectorEnsemble,
    policy: DecisionPolicy,
    data: LabeledDataset,
) -> Predictions:
    """Corrected predictions for every sample, in dataset order.

    Rows are streamed in blocks of ``STREAM_BLOCK``. One forward pass per
    block gives its base posteriors and latent rows, the corrector scores
    those rows, and both posteriors fill preallocated (n, K) arrays, so the
    latent matrix of the whole batch is never built. The policy then runs
    once over the two arrays.
    """
    n = len(data)
    base_probs = np.empty((n, model.config.n_classes))
    corr_probs = np.empty((n, ensemble.n_classes))
    for start in range(0, n, STREAM_BLOCK):
        rows = slice(start, start + STREAM_BLOCK)
        base_probs[rows], latents, layout = forward_latents(model, data.features[rows])
        corr_probs[rows] = ensemble.predict_proba(ensemble.align(latents, layout))
    return decide_batch(base_probs, corr_probs, policy)


def write_prediction_log(
    preds: Predictions,
    true_labels: np.ndarray | Sequence[int],
    n_classes: int,
    path: str | Path,
) -> None:
    """CSV log with 0-based label ids (NEW_CLASS as -1)."""
    true_arr = np.asarray(true_labels, dtype=np.int64)
    if true_arr.shape != (len(preds),):
        raise ValueError("true labels must align with predictions")
    columns = zip(true_arr.tolist(), preds.base_labels.tolist(), preds.corrected_labels.tolist(),
                  preds.overridden.astype(np.int64).tolist(),
                  preds.base_probs.max(axis=1).tolist(), preds.corrector_probs.max(axis=1).tolist())
    lines = [f"# {PREDS_MAGIC} K={n_classes}", LOG_COLUMNS]
    for i, (t, b, c, o, bc, cc) in enumerate(columns):
        lines.append(f"{i},{t},{b},{c},{o},{bc:.6f},{cc:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_prediction_log(path: str | Path) -> PairedPredictions:
    """The true, base and corrected labels of a log written by
    ``write_prediction_log``, over the K classes its first line states.

    The first line must be ``# mclab-preds v1 K=<classes>``, with K at most
    ``MAX_CLASSES``. A malformed file raises ValueError naming the path and
    the line: a non-ASCII byte, a missing, bad or too large K= line, a
    missing column header, no rows, a row without exactly 7 cells, a
    sample_id other than the row's index, a cell that does not parse, an
    overridden flag other than 0 or 1, or a label out of range (true and
    base in [0, K), corrected in [0, K) or NEW_CLASS). Each row is checked
    as it is read, before any array is built.
    """
    lines = _LineReader(path, Path(path).read_bytes())
    first = lines.next(missing="empty prediction log")
    head = _LOG_HEADER.fullmatch(first)
    if head is None:
        lines.fail(f"prediction log header {first!r} is not '# {PREDS_MAGIC} K=<classes>'")
    k = lines.classes(head[1])
    if lines.next(missing=_NO_COLUMNS) != LOG_COLUMNS:
        lines.fail(_NO_COLUMNS)
    if lines.at == len(lines.lines):
        lines.fail("no prediction rows after the column header")
    names = LOG_COLUMNS.split(",")
    rows = []
    for line in lines:
        cells = line.split(",")
        if len(cells) != len(names):
            lines.fail(f"expected {len(names)} cells, found {len(cells)}")
        row = [lines.number(*cell) for cell in zip(_CELL_KINDS, names, cells)]
        if row[0] != len(rows):
            lines.fail(f"sample_id {row[0]}, expected {len(rows)}")
        if row[4] not in (0, 1):
            lines.fail(f"overridden {row[4]}, expected 0 or 1")
        for name, label, low in zip(("true", "base", "corrected"), row[1:4], (0, 0, NEW_CLASS)):
            if not low <= label < k:
                lines.fail(f"{name} {label} outside [{low}, {k})")
        rows.append(row[1:4])
    true_arr, base, corrected = np.array(rows, dtype=np.int64).T
    return PairedPredictions(true_arr, base, corrected, k)
