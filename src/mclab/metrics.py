"""Metric calculus for (base, corrected) prediction pairs.

All metrics are defined through explicit index sets. For true class i with
J_i = {j : y_j = i}, N_i = |J_i|, A_i = {j in J_i : base_j = i} and
B_i = {j in J_i : corrected_j = i}:

    TPR_base  = |A_i| / N_i          TPR_corr = |B_i| / N_i
    delta     = TPR_corr - TPR_base  ratio    = TPR_corr / (TPR_base + eps)
    retention = |A_i & B_i| / |A_i|  harm     = |A_i \\ B_i| / |A_i|
    gain      = |B_i \\ A_i| / |J_i \\ A_i|
    fpr_*     = |{j : y_j != i, pred_j = i}| / (N - N_i)
    spill     = fpr_corr             delta_fpr = fpr_corr - fpr_base

Ratios with empty denominators are undefined: the field is None (never NaN)
and the class is skipped by macro averages; an average with no defined class
is None too. NEW_CLASS predictions (-1) count as incorrect for every true
class, spill toward no class, and are tallied in the report's new_class_rate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .core import NEW_CLASS, _frozen

__all__ = [
    "EPSILON_DEFAULT",
    "AggregateMetrics",
    "ClassMetrics",
    "EvalReport",
    "PairedPredictions",
    "aggregate",
    "brute_force_oracle",
    "evaluate",
    "report_to_csv",
    "report_to_text",
]

EPSILON_DEFAULT = 1e-9

@dataclass(frozen=True)
class PairedPredictions:
    """Aligned true / base / corrected label vectors over K classes."""

    true_labels: np.ndarray
    base_labels: np.ndarray
    corrected_labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        t, b, c = (_frozen(v, np.int64)
                   for v in (self.true_labels, self.base_labels, self.corrected_labels))
        if not (t.shape == b.shape == c.shape) or t.ndim != 1:
            raise ValueError("label vectors must be aligned 1-D arrays")
        if t.size == 0:
            raise ValueError("empty prediction pair")
        k = int(self.n_classes)
        if k < 1:
            raise ValueError("n_classes must be >= 1")
        if t.min() < 0 or t.max() >= k:
            raise ValueError(f"true labels must lie in [0, {k})")
        if b.min() < 0 or b.max() >= k:
            raise ValueError(f"base labels must lie in [0, {k})")
        if c.max(initial=NEW_CLASS) >= k or c.min(initial=0) < NEW_CLASS:
            raise ValueError(f"corrected labels must lie in [0, {k}) or be NEW_CLASS")
        object.__setattr__(self, "true_labels", t)
        object.__setattr__(self, "base_labels", b)
        object.__setattr__(self, "corrected_labels", c)
        object.__setattr__(self, "n_classes", k)

    @property
    def n(self) -> int:
        return int(self.true_labels.size)

    @classmethod
    def from_log(cls, log) -> "PairedPredictions":
        """The labels of ``log``. ``read_prediction_log`` already returns a
        ``PairedPredictions``; ``perfbench/workloads.py`` still calls this."""
        return cls(log.true_labels, log.base_labels, log.corrected_labels, log.n_classes)


@dataclass(frozen=True)
class ClassMetrics:
    """Per-class metrics; None marks an undefined ratio."""

    label: int
    count: int
    tpr_base: float | None
    tpr_corrected: float | None
    delta: float | None
    ratio: float | None
    retention: float | None
    harm: float | None
    gain: float | None
    fpr_base: float | None
    fpr_corrected: float | None
    delta_fpr: float | None
    spill: float | None


# the per-class rate columns, in report order
RATE_FIELDS = tuple(f.name for f in fields(ClassMetrics)[2:])


@dataclass(frozen=True)
class AggregateMetrics:
    """Macro (unweighted over defined classes) and frequency-weighted means,
    plus overall accuracies and the accuracy ratio P."""

    retention_macro: float | None
    harm_macro: float | None
    gain_macro: float | None
    delta_fpr_macro: float | None
    retention_weighted: float | None
    harm_weighted: float | None
    gain_weighted: float | None
    delta_fpr_weighted: float | None
    accuracy_base: float
    accuracy_corrected: float
    power: float | None


@dataclass(frozen=True)
class EvalReport:
    per_class: tuple[ClassMetrics, ...]
    aggregate: AggregateMetrics
    n: int
    class_counts: tuple[int, ...]
    new_class_rate: float


def _macro(values: list[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return sum(defined) / len(defined)


def _weighted(values: list[float | None], counts: Sequence[int], n: int) -> float | None:
    num = 0.0
    any_defined = False
    for v, n_i in zip(values, counts):
        if v is None:
            continue
        any_defined = True
        num += (n_i / n) * v
    return num if any_defined else None


def aggregate(
    per_class_metrics: Sequence[ClassMetrics],
    class_counts: Sequence[int],
    correct_base: int,
    correct_corrected: int,
) -> AggregateMetrics:
    """Averages over classes plus accuracy-derived summary numbers.

    Macro means skip undefined classes; the weighted variant is
    sum_i (N_i / N) * metric_i over defined classes. The accuracies are the
    integer counts of correct base and corrected predictions over
    N = sum(class_counts). A mean over no defined class is None.
    """
    if len(per_class_metrics) != len(class_counts):
        raise ValueError("need one count per class")
    n = int(sum(class_counts))
    if n == 0:
        raise ValueError("empty evaluation")

    def column(name: str) -> list[float | None]:
        return [getattr(m, name) for m in per_class_metrics]

    acc_base = correct_base / n
    acc_corr = correct_corrected / n
    power = acc_corr / acc_base if acc_base > 0 else None
    return AggregateMetrics(
        retention_macro=_macro(column("retention")),
        harm_macro=_macro(column("harm")),
        gain_macro=_macro(column("gain")),
        delta_fpr_macro=_macro(column("delta_fpr")),
        retention_weighted=_weighted(column("retention"), class_counts, n),
        harm_weighted=_weighted(column("harm"), class_counts, n),
        gain_weighted=_weighted(column("gain"), class_counts, n),
        delta_fpr_weighted=_weighted(column("delta_fpr"), class_counts, n),
        accuracy_base=float(acc_base),
        accuracy_corrected=float(acc_corr),
        power=power,
    )


def evaluate(preds: PairedPredictions) -> EvalReport:
    """Full per-class and aggregate report for one prediction pair.

    One pass over the rows gives every class's set sizes as ``bincount``
    vectors: N_i, |A_i|, |B_i|, |A_i & B_i|, and how often the base and the
    corrected predictions name i (NEW_CLASS names no class). The rates come
    from those Python ints, so they equal ``brute_force_oracle``'s exactly.
    """
    t, b, c = preds.true_labels, preds.base_labels, preds.corrected_labels
    k, n = preds.n_classes, preds.n

    def count(labels: np.ndarray) -> list[int]:
        return np.bincount(labels, minlength=k).tolist()

    hit_b, hit_c = b == t, c == t
    counts = count(t)
    in_a, in_b, in_ab = count(t[hit_b]), count(t[hit_c]), count(t[hit_b & hit_c])
    named_b, named_c = count(b), count(c[c != NEW_CLASS])
    table = []
    for i, (n_i, a, bb, ab) in enumerate(zip(counts, in_a, in_b, in_ab)):
        neg = n - n_i
        tpr_base = a / n_i if n_i > 0 else None
        tpr_corr = bb / n_i if n_i > 0 else None
        fpr_base = (named_b[i] - a) / neg if neg > 0 else None
        fpr_corr = (named_c[i] - bb) / neg if neg > 0 else None
        table.append(ClassMetrics(
            label=i,
            count=n_i,
            tpr_base=tpr_base,
            tpr_corrected=tpr_corr,
            delta=tpr_corr - tpr_base if n_i > 0 else None,
            ratio=tpr_corr / (tpr_base + EPSILON_DEFAULT) if n_i > 0 else None,
            retention=ab / a if a > 0 else None,
            harm=(a - ab) / a if a > 0 else None,
            gain=(bb - ab) / (n_i - a) if n_i - a > 0 else None,
            fpr_base=fpr_base,
            fpr_corrected=fpr_corr,
            delta_fpr=fpr_corr - fpr_base if neg > 0 else None,
            spill=fpr_corr,
        ))
    agg = aggregate(table, counts, sum(in_a), sum(in_b))
    return EvalReport(
        per_class=tuple(table),
        aggregate=agg,
        n=n,
        class_counts=tuple(counts),
        new_class_rate=float(np.mean(c == NEW_CLASS)),
    )


def brute_force_oracle(preds: PairedPredictions) -> EvalReport:
    """Reference implementation: every metric from materialized index sets.

    Pure-Python nested loops and set algebra; used by tests to pin the fast
    path exactly (identical integer counts, identical divisions).
    """
    t = [int(v) for v in preds.true_labels]
    b = [int(v) for v in preds.base_labels]
    c = [int(v) for v in preds.corrected_labels]
    n = len(t)
    table = []
    correct_base = correct_corr = 0
    for i in range(preds.n_classes):
        j_set = {j for j in range(n) if t[j] == i}
        a_set = {j for j in j_set if b[j] == i}
        b_set = {j for j in j_set if c[j] == i}
        n_i = len(j_set)
        correct_base += len(a_set)
        correct_corr += len(b_set)
        fp_b = len({j for j in range(n) if t[j] != i and b[j] == i})
        fp_c = len({j for j in range(n) if t[j] != i and c[j] == i})
        neg = n - n_i
        tpr_base = len(a_set) / n_i if n_i > 0 else None
        tpr_corr = len(b_set) / n_i if n_i > 0 else None
        fpr_base = fp_b / neg if neg > 0 else None
        fpr_corr = fp_c / neg if neg > 0 else None
        table.append(
            ClassMetrics(
                label=i,
                count=n_i,
                tpr_base=tpr_base,
                tpr_corrected=tpr_corr,
                delta=tpr_corr - tpr_base if n_i > 0 else None,
                ratio=tpr_corr / (tpr_base + EPSILON_DEFAULT) if n_i > 0 else None,
                retention=len(a_set & b_set) / len(a_set) if a_set else None,
                harm=len(a_set - b_set) / len(a_set) if a_set else None,
                gain=len(b_set - a_set) / len(j_set - a_set) if j_set - a_set else None,
                fpr_base=fpr_base,
                fpr_corrected=fpr_corr,
                delta_fpr=fpr_corr - fpr_base if neg > 0 else None,
                spill=fpr_corr,
            )
        )
    counts = tuple(m.count for m in table)
    agg = aggregate(table, counts, correct_base, correct_corr)
    new_rate = sum(1 for v in c if v == NEW_CLASS) / n
    return EvalReport(
        per_class=tuple(table),
        aggregate=agg,
        n=n,
        class_counts=counts,
        new_class_rate=float(new_rate),
    )


# ---- rendering ----


def _cell(v: float | None, fmt: str = "{:.6f}") -> str:
    return "" if v is None else fmt.format(v)


def report_to_csv(report: EvalReport) -> str:
    """Two-block CSV: per-class rows (1-based labels), then aggregate rows."""
    lines = ["label,count," + ",".join(RATE_FIELDS)]
    for m in report.per_class:
        cells = [str(m.label + 1), str(m.count)]
        cells += [_cell(getattr(m, f)) for f in RATE_FIELDS]
        lines.append(",".join(cells))
    lines.append("")
    lines.append("aggregate,value")
    agg = report.aggregate
    for f in fields(AggregateMetrics):
        lines.append(f"{f.name},{_cell(getattr(agg, f.name))}")
    lines.append(f"new_class_rate,{report.new_class_rate:.6f}")
    lines.append(f"n,{report.n}")
    return "\n".join(lines) + "\n"


def report_to_text(report: EvalReport) -> str:
    """Aligned table for terminals (1-based labels); blank cells mark
    undefined ratios."""
    headers = ["class", "n"] + list(RATE_FIELDS)
    rows = []
    for m in report.per_class:
        row = [str(m.label + 1), str(m.count)]
        row += [_cell(getattr(m, f), "{:.3f}") for f in RATE_FIELDS]
        rows.append(row)
    widths = [max(len(h), *(len(r[j]) for r in rows)) for j, h in enumerate(headers)]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for r in rows:
        out.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    agg = report.aggregate
    out.append("")
    out.append(
        "macro: retention={} harm={} gain={} delta_fpr={}".format(
            _cell(agg.retention_macro, "{:.3f}"),
            _cell(agg.harm_macro, "{:.3f}"),
            _cell(agg.gain_macro, "{:.3f}"),
            _cell(agg.delta_fpr_macro, "{:.3f}"),
        )
    )
    out.append(
        "accuracy: base={:.3f} corrected={:.3f} P={} new_class_rate={:.3f}".format(
            agg.accuracy_base,
            agg.accuracy_corrected,
            _cell(agg.power, "{:.3f}"),
            report.new_class_rate,
        )
    )
    return "\n".join(out) + "\n"
