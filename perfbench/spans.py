"""In-memory spans around calls into mclab, recorded from outside the package.

A ``Tracer`` replaces public mclab functions and methods with wrappers that
record one span per call: name, start, end, parent span and run id. A
function is replaced under every name an mclab module holds it by (for
example ``harness.train`` and ``basemodel.train``), so calls made inside the
package are seen too. ``close`` restores every original. Spans stay in memory
until ``per_layer`` turns them into per-layer numbers; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

STAGES = ("conv", "lstm", "attn", "head")


class Tracer:
    def __init__(self) -> None:
        # one [name, start, end, parent index or -1, run id] per call
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrapper(self, original: Callable, name: str, on_result: Callable | None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), 0.0, parent, tracer.run_id])
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        return traced

    def wrap_function(self, func: Callable, name: str, on_result: Callable | None = None) -> None:
        """Replace ``func`` under every name an mclab module binds it to."""
        traced = self._wrapper(func, name, on_result)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mclab" and not mod_name.startswith("mclab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, traced)

    def wrap_method(self, cls: type, attr: str, name: str, on_result: Callable | None = None) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, on_result))

    def close(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def to_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]


# ---- what gets wrapped ----


def _count_records(counts: Counter, args, result) -> None:
    counts["basemodel.latent_records"] += len(result)


def _count_rows(counts: Counter, args, result) -> None:
    counts["corrector.predict_rows"] += 1 if result.ndim == 1 else result.shape[0]


def _count_overrides(counts: Counter, args, result) -> None:
    counts["composer.composed"] += len(result)
    counts["composer.overrides"] += sum(1 for p in result if p.overridden)


def _file_bytes(key: str, path_arg: int) -> Callable:
    def count(counts: Counter, args, result) -> None:
        counts[key] += os.path.getsize(args[path_arg])

    return count


def tree_structure(ensemble) -> Counter:
    """Counters from the fitted tree arrays.

    A split search runs at every internal node and at every leaf above
    ``max_depth``; nodes with fewer than 2 rows skip it, so the search count
    is an upper bound.
    """
    out: Counter = Counter()
    max_depth = ensemble.config.max_depth
    for round_trees in ensemble.trees:
        for tree in round_trees:
            out["trees"] += 1
            out["nodes"] += len(tree.feature)
            if len(tree.feature) == 1:
                out["single_leaf_trees"] += 1
            depth = {0: 0}
            for node, feat in enumerate(tree.feature):
                if feat >= 0:
                    out["splits"] += 1
                    out["searches"] += 1
                    depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
                elif depth[node] < max_depth:
                    out["searches"] += 1
    return out


def _count_structure(counts: Counter, args, result) -> None:
    for key, value in tree_structure(result).items():
        counts["corrector." + key] += value


def _conv_fwd_work(counts: Counter, args, result) -> None:
    stage, x = args[0], args[1]
    b_n, ci, h, w = x.shape
    for co in stage.plan:
        counts["conv.fwd_flop"] += 2 * b_n * co * ci * 9 * h * w
        # padded input and weights read, pre-activation written (float64)
        counts["conv.fwd_bytes"] += 8 * (b_n * ci * (h + 2) * (w + 2) + co * ci * 9 + b_n * co * h * w)
        ci, h, w = co, h // 2, w // 2


def _conv_bwd_work(counts: Counter, args, result) -> None:
    stage, cache = args[0], args[2]
    for weight, (xp, *_rest) in zip(stage.weights, cache):
        b_n, ci, hp, wp = xp.shape
        co, h, w = weight.shape[0], hp - 2, wp - 2
        # weight gradient and input gradient, each one forward's worth
        counts["conv.bwd_flop"] += 4 * b_n * co * ci * 9 * h * w
        # padded input, output gradient and weights read; both gradients written
        counts["conv.bwd_bytes"] += 8 * (2 * xp.size + b_n * co * h * w + 2 * weight.size)


def install(tracer: Tracer) -> None:
    """Wrap the public mclab calls that the per-layer metrics are built from."""
    from mclab import basemodel, composer, core, corrector, harness, metrics, stages

    tracer.wrap_function(harness.run_single, "harness.run_single")
    tracer.wrap_function(harness.render_report, "harness.render_report")
    tracer.wrap_function(harness.build_dataset, "datagen.build_dataset")
    tracer.wrap_function(core.split_dataset, "core.split_dataset")
    tracer.wrap_function(basemodel.train, "basemodel.train")
    tracer.wrap_function(basemodel.predict_batch, "basemodel.predict_batch")
    tracer.wrap_function(basemodel.extract_latents, "basemodel.extract_latents", _count_records)
    tracer.wrap_function(basemodel.save_model, "basemodel.save_model")
    tracer.wrap_method(basemodel.TrainingHistory, "write", "basemodel.history_write")
    tracer.wrap_method(basemodel.StagedModel, "loss_and_grads", "basemodel.step")
    tracer.wrap_function(corrector.fit, "corrector.fit", _count_structure)
    tracer.wrap_method(corrector.CorrectorEnsemble, "predict_proba", "corrector.predict_proba", _count_rows)
    tracer.wrap_function(corrector.save_ensemble, "corrector.save_ensemble",
                         _file_bytes("corrector.save_bytes", 1))
    tracer.wrap_function(composer.compose_batch, "composer.compose_batch", _count_overrides)
    tracer.wrap_function(composer.write_prediction_log, "composer.write_prediction_log",
                         _file_bytes("composer.log_bytes", 3))
    tracer.wrap_function(metrics.evaluate, "metrics.evaluate")
    classes = (stages.ConvStage, stages.LstmStage, stages.AttentionStage, stages.HeadStage)
    for short, cls in zip(STAGES, classes):
        tracer.wrap_method(cls, "forward", f"stages.{short}.fwd",
                           _conv_fwd_work if short == "conv" else None)
        tracer.wrap_method(cls, "backward", f"stages.{short}.bwd",
                           _conv_bwd_work if short == "conv" else None)


# ---- per-layer numbers ----


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from the recorded spans and counters.

    Returns the metric values and, for ratios, the base they were taken over.
    A layer the traced pass never entered reads 0.
    """
    spans, counts = tracer.spans, tracer.counts
    dur = [e - s for _, s, e, _, _ in spans]
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def total(name: str) -> float:
        return sum(dur[i] for i in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_time(name: str) -> float:
        return sum(dur[i] - sum(dur[c] for c in children[i]) for i in by_name[name])

    def with_parent(name: str, parent_name: str) -> list[int]:
        return [i for i in by_name[name] if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent_name]

    m: dict[str, float] = {}
    bases: dict[str, str] = {}
    for stage in STAGES:
        for kind in ("fwd", "bwd"):
            m[f"stages.{stage}.{kind}_s"] = total(f"stages.{stage}.{kind}")
            m[f"stages.{stage}.{kind}_calls"] = calls(f"stages.{stage}.{kind}")
    conv_flop = counts["conv.fwd_flop"] + counts["conv.bwd_flop"]
    conv_s = m["stages.conv.fwd_s"] + m["stages.conv.bwd_s"]
    m["stages.conv.fwd_gflop"] = counts["conv.fwd_flop"] / 1e9
    m["stages.conv.bwd_gflop"] = counts["conv.bwd_flop"] / 1e9
    m["stages.conv.fwd_mb"] = counts["conv.fwd_bytes"] / 1e6
    m["stages.conv.bwd_mb"] = counts["conv.bwd_bytes"] / 1e6
    m["stages.conv.gflop_per_s"] = _ratio(conv_flop / 1e9, conv_s)
    for key in ("fwd_gflop", "bwd_gflop", "fwd_mb", "bwd_mb", "gflop_per_s"):
        bases[f"stages.conv.{key}"] = "computed from array shapes"

    steps = [dur[i] for i in by_name["basemodel.step"]]
    m["basemodel.steps"] = len(steps)
    m["basemodel.step_s.p50"] = _percentile(steps, 50)
    m["basemodel.step_s.p99"] = _percentile(steps, 99)
    m["basemodel.train_s"] = total("basemodel.train")
    val = with_parent("basemodel.predict_batch", "basemodel.train")
    m["basemodel.epochs"] = len(val)
    m["basemodel.val_s"] = sum(dur[i] for i in val)
    epochs = []
    for t in by_name["basemodel.train"]:
        last = spans[t][1]
        for i in children[t]:
            if spans[i][0] == "basemodel.predict_batch":
                epochs.append(spans[i][2] - last)
                last = spans[i][2]
    m["basemodel.epoch_s"] = statistics.median(epochs) if epochs else 0.0
    m["basemodel.latent_records"] = counts["basemodel.latent_records"]

    searches = counts["corrector.searches"]
    m["corrector.fit_s"] = total("corrector.fit")
    m["corrector.trees"] = counts["corrector.trees"]
    m["corrector.nodes"] = counts["corrector.nodes"]
    m["corrector.single_leaf_trees"] = counts["corrector.single_leaf_trees"]
    m["corrector.splits"] = counts["corrector.splits"]
    m["corrector.split_searches"] = searches
    m["corrector.split_yield"] = _ratio(counts["corrector.splits"], searches)
    bases["corrector.split_yield"] = f"{counts['corrector.splits']}/{searches}"
    m["corrector.fit_us_per_search"] = _ratio(m["corrector.fit_s"] * 1e6, searches)
    m["corrector.predict_proba_s"] = total("corrector.predict_proba")
    m["corrector.predict_rows_per_s"] = _ratio(counts["corrector.predict_rows"],
                                               m["corrector.predict_proba_s"])
    m["corrector.save_s"] = total("corrector.save_ensemble")
    m["corrector.save_bytes"] = counts["corrector.save_bytes"]

    batches = calls("composer.compose_batch")
    passes = len(with_parent("basemodel.predict_batch", "composer.compose_batch")) + len(
        with_parent("basemodel.extract_latents", "composer.compose_batch"))
    m["composer.compose_batch_s"] = total("composer.compose_batch")
    m["composer.self_s"] = self_time("composer.compose_batch")
    m["composer.forward_passes"] = _ratio(passes, batches)
    bases["composer.forward_passes"] = f"{passes}/{batches}"
    m["composer.override_rate"] = _ratio(counts["composer.overrides"], counts["composer.composed"])
    bases["composer.override_rate"] = f"{counts['composer.overrides']}/{counts['composer.composed']}"
    m["composer.write_log_s"] = total("composer.write_prediction_log")
    m["composer.log_bytes"] = counts["composer.log_bytes"]
    m["metrics.evaluate_s"] = total("metrics.evaluate")

    runs = [dur[i] for i in by_name["harness.run_single"]]
    m["harness.runs"] = len(runs)
    m["harness.run_s.max"] = max(runs, default=0.0)
    m["harness.run_s.sum"] = sum(runs)
    m["harness.persist_s"] = sum(
        dur[i]
        for name in ("basemodel.save_model", "corrector.save_ensemble",
                     "composer.write_prediction_log", "basemodel.history_write")
        for i in with_parent(name, "harness.run_single")
    )
    m["harness.render_report_s"] = total("harness.render_report")
    m["datagen.build_s"] = total("datagen.build_dataset")
    m["core.split_s"] = total("core.split_dataset")
    m["trace.spans"] = len(spans)
    return m, bases
