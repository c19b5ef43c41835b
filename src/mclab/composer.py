"""Composition of the base classifier with a corrector under a decision policy.

The corrected classifier returns the base prediction unless the active policy
fires, in which case the corrector's verdict (or the NEW_CLASS sentinel)
replaces it. Raising ``tau`` never increases the number of overrides.

``compose_batch`` streams the batch in row blocks: one forward pass per
block yields both the base posteriors and the corrector's latent rows, and
the policy runs once over the whole posterior arrays (``decide_batch``);
``compose`` runs the same rule on a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .basemodel import FORWARD_CHUNK, LatentRecord, StagedModel, forward_latents
from .core import NEW_CLASS, LabeledDataset
from .corrector import CorrectorEnsemble

__all__ = [
    "NEW_CLASS",
    "POLICY_KINDS",
    "CorrectedPrediction",
    "DecisionPolicy",
    "PredictionLog",
    "compose",
    "compose_batch",
    "decide_batch",
    "read_prediction_log",
    "write_prediction_log",
]

POLICY_KINDS = ("always_corrector", "threshold_override", "excluded_only")

PREDS_MAGIC = "mclab-preds v1"

# compose_batch streams rows in blocks of this size. It is a multiple of the
# forward chunk, so every block splits into the chunks one pass over the
# whole batch would make.
STREAM_BLOCK = 16 * FORWARD_CHUNK


@dataclass(frozen=True)
class DecisionPolicy:
    """When the corrector's verdict replaces the base prediction.

    always_corrector:    the corrector's argmax always wins.
    threshold_override:  override only when the base model is unsure
                         (max base prob < base_confidence_floor) and the
                         corrector is sure (max corrector prob >= tau).
    excluded_only:       override only when the corrector's argmax is the
                         designated excluded label with probability >= tau;
                         that label plays the role of the "new class". With
                         ``as_new_class`` the override emits the NEW_CLASS
                         sentinel instead of the label itself.

    ``validate`` enforces tau in [0, 1]; the field itself accepts tau > 1 so
    a deliberately unreachable threshold (policy off) stays constructible.
    """

    kind: str = "excluded_only"
    tau: float = 0.5
    base_confidence_floor: float = 0.6
    excluded_label: int | None = None
    as_new_class: bool = False

    def field_problems(self) -> list[tuple[str, str]]:
        """(field, message) for each field out of its range. The run-time
        ``excluded_label`` is left to ``validate``."""
        problems = []
        if self.kind not in POLICY_KINDS:
            problems.append(("kind", f"must be one of {', '.join(POLICY_KINDS)}, "
                                     f"not {self.kind!r}"))
        for key in ("tau", "base_confidence_floor"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                problems.append((key, "must be in [0, 1]"))
        return problems

    def validate(self) -> None:
        for key, message in self.field_problems():
            raise ValueError(f"{key} {message}")
        if self.kind == "excluded_only" and self.excluded_label is None:
            raise ValueError("excluded_only policy needs excluded_label")


@dataclass(frozen=True)
class CorrectedPrediction:
    base_label: int
    corrected_label: int  # may be NEW_CLASS (-1)
    overridden: bool
    base_probs: np.ndarray
    corrector_probs: np.ndarray


def compose(
    base_probs: np.ndarray,
    latent: LatentRecord,
    ensemble: CorrectorEnsemble,
    policy: DecisionPolicy,
) -> CorrectedPrediction:
    """Apply the policy to one sample's base posteriors and latent record."""
    corr_probs = ensemble.predict_proba(latent)
    base = np.asarray(base_probs, dtype=np.float64).reshape(1, -1)
    return decide_batch(base, np.reshape(corr_probs, (1, -1)), policy)[0]


def _corrected_labels(
    base_label: np.ndarray,
    base_probs: np.ndarray,
    corr_probs: np.ndarray,
    policy: DecisionPolicy,
) -> np.ndarray:
    if policy.kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy kind {policy.kind!r}")
    corr_label = corr_probs.argmax(axis=1)
    if policy.kind == "always_corrector":
        return corr_label
    if policy.kind == "threshold_override":
        fire = (base_probs.max(axis=1) < policy.base_confidence_floor) & (
            corr_probs.max(axis=1) >= policy.tau
        )
        return np.where(fire, corr_label, base_label)
    if policy.excluded_label is None:
        raise ValueError("excluded_only policy needs excluded_label")
    exc = int(policy.excluded_label)
    if not 0 <= exc < corr_probs.shape[1]:
        raise ValueError(
            f"excluded_label {exc} is outside the corrector's {corr_probs.shape[1]} classes"
        )
    fire = (corr_label == exc) & (corr_probs[:, exc] >= policy.tau)
    return np.where(fire, NEW_CLASS if policy.as_new_class else exc, base_label)


def decide_batch(
    base_probs: np.ndarray,
    corr_probs: np.ndarray,
    policy: DecisionPolicy | None,
) -> list[CorrectedPrediction]:
    """Apply the policy to (n, K) base and corrector posteriors, one row per sample.

    The rule runs once over the whole arrays. With ``policy=None`` the base
    prediction stands everywhere, as in the baseline run, which has no
    corrector. Each prediction holds row views of the two arrays.
    """
    if base_probs.shape[0] != corr_probs.shape[0]:
        raise ValueError("base and corrector posteriors must have one row per sample")
    base_label = base_probs.argmax(axis=1)
    corrected = (
        base_label
        if policy is None
        else _corrected_labels(base_label, base_probs, corr_probs, policy)
    )
    overridden = corrected != base_label
    return [
        CorrectedPrediction(b, c, o, bp, cp)
        for b, c, o, bp, cp in zip(
            base_label.tolist(), corrected.tolist(), overridden.tolist(), base_probs, corr_probs
        )
    ]


def compose_batch(
    model: StagedModel,
    ensemble: CorrectorEnsemble,
    policy: DecisionPolicy,
    data: LabeledDataset,
) -> list[CorrectedPrediction]:
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


@dataclass(frozen=True)
class PredictionLog:
    """Columnar view of a prediction log file."""

    true_labels: np.ndarray
    base_labels: np.ndarray
    corrected_labels: np.ndarray
    overridden: np.ndarray
    base_conf: np.ndarray
    corr_conf: np.ndarray
    n_classes: int


def write_prediction_log(
    preds: Sequence[CorrectedPrediction],
    true_labels: np.ndarray | Sequence[int],
    n_classes: int,
    path: str | Path,
) -> None:
    """CSV log with 0-based label ids (NEW_CLASS as -1)."""
    true_arr = np.asarray(true_labels, dtype=np.int64)
    if true_arr.shape != (len(preds),):
        raise ValueError("true labels must align with predictions")
    base_conf = _row_max([p.base_probs for p in preds])
    corr_conf = _row_max([p.corrector_probs for p in preds])
    lines = [f"# {PREDS_MAGIC} K={n_classes}",
             "sample_id,true,base,corrected,overridden,base_conf,corr_conf"]
    for i, (t, p, bc, cc) in enumerate(zip(true_arr.tolist(), preds, base_conf, corr_conf)):
        lines.append(
            f"{i},{t},{p.base_label},{p.corrected_label},"
            f"{int(p.overridden)},{bc:.6f},{cc:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _row_max(rows: list[np.ndarray]) -> list[float]:
    """Per-row maxima of equal-length probability rows, as one reduction."""
    if not rows:
        return []
    return np.stack(rows).max(axis=1).tolist()


def read_prediction_log(path: str | Path, n_classes: int | None = None) -> PredictionLog:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"empty prediction log: {path}")
    start = 0
    k = n_classes
    if lines[0].startswith("#"):
        head = lines[0].lstrip("# ").strip()
        if not head.startswith(PREDS_MAGIC):
            raise ValueError(f"unrecognized prediction log header: {lines[0]!r}")
        if k is None:
            k = int(head.rsplit("K=", 1)[1])
        start = 1
    if lines[start] != "sample_id,true,base,corrected,overridden,base_conf,corr_conf":
        raise ValueError("prediction log missing column header")
    rows = [line.split(",") for line in lines[start + 1 :] if line.strip()]
    cols = list(zip(*rows)) if rows else [[]] * 7
    true_arr = np.asarray([int(v) for v in cols[1]], dtype=np.int64)
    base = np.asarray([int(v) for v in cols[2]], dtype=np.int64)
    corrected = np.asarray([int(v) for v in cols[3]], dtype=np.int64)
    overridden = np.asarray([int(v) for v in cols[4]], dtype=bool)
    base_conf = np.asarray([float(v) for v in cols[5]])
    corr_conf = np.asarray([float(v) for v in cols[6]])
    if k is None:
        k = int(max(true_arr.max(initial=0), base.max(initial=0), corrected.max(initial=0))) + 1
    return PredictionLog(true_arr, base, corrected, overridden, base_conf, corr_conf, int(k))
