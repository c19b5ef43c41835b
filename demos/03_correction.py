"""Blind a base model to one class, then bolt on a corrector that sees it.

The base model trains with class 2 removed, so it cannot ever predict it.
Its run is set up and trained by the harness stages (``plan_run``,
``train_run``) from a small config document, exactly as ``run_single`` would
train it. A gradient-boosted corrector trained on the base model's own latent
activations (from a split the base never trained on) learns the missing
class. The paper's decision rule arbitrates between the two: the corrector
overrides only when it names the excluded class with probability at least
tau. The demo varies tau and the new-class sentinel on the one base model.
"""

import numpy as np

from mclab.basemodel import forward_latents
from mclab.composer import NEW_CLASS, DecisionPolicy, compose_batch
from mclab.corrector import GbdtConfig, fit
from mclab.harness import normalize_config, plan_run, train_run

EXCLUDED = 2
CONFIG = {
    "seed": 7,
    "dataset": {"n_total": 1200, "profile": {
        "proportions": [0.5, 0.3, 0.2], "names": ["A", "B", "C"],
        "close_pair": [0, 2], "close_distance": 6.0}},
    "model": {"conv_channels": [2, 4, 8], "n_classes": 3},
    "train": {"learning_rate": 0.08, "batch_size": 32, "max_epochs": 30,
              "patience": 8, "dropout_p": 0.1},
}


def summarize(tag, preds, true_labels):
    base, final = preds.base_labels, preds.corrected_labels
    acc_base = float(np.mean(base == true_labels))
    acc_final = float(np.mean(final == true_labels))
    hits = int(np.sum(final[true_labels == EXCLUDED] == EXCLUDED))
    total = int(np.sum(true_labels == EXCLUDED))
    flagged = int(np.sum(final == NEW_CLASS))
    extra = f", flagged-as-new {flagged}" if flagged else ""
    print(f"  {tag:<28} overrides {int(preds.overridden.sum()):>3}  "
          f"accuracy {acc_base:.3f} -> {acc_final:.3f}  "
          f"excluded-class recall {hits}/{total}{extra}")


def main() -> None:
    # data, split, validation slice, exclusion and seeds: the run's set-up stage
    plan = plan_run(normalize_config(CONFIG), EXCLUDED)
    print(f"train split: {plan.train_set.labels.size} samples -> "
          f"{plan.fit_set.labels.size} to fit + {plan.val_set.labels.size} to "
          f"validate early stopping, both without class {EXCLUDED}")
    model, history = train_run(plan)
    print(f"base model val accuracy {history.best_val_acc:.3f} on the slice "
          f"without class {EXCLUDED} (it can never say '{EXCLUDED}')")
    correct_set, test_set = plan.correct_set, plan.test_set

    _, latents, layout = forward_latents(model, correct_set)
    ensemble = fit(latents, correct_set.labels,
                   GbdtConfig(n_rounds=20, max_depth=3), n_classes=3, layout=layout)
    print(f"corrector: {len(ensemble.trees)} trees, "
          f"final train loss {ensemble.loss_curve[-1]:.4f}")

    print("\nthe decision rule on the held-out test split, over tau:")
    counts = []
    for tau in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99):
        preds = compose_batch(
            model, ensemble, DecisionPolicy(tau=tau, excluded_label=EXCLUDED), test_set)
        summarize(f"tau={tau}", preds, test_set.labels)
        counts.append(int(preds.overridden.sum()))
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts  # never more overrides

    new_class = DecisionPolicy(tau=0.5, excluded_label=EXCLUDED, as_new_class=True)
    summarize("tau=0.5 as_new_class", compose_batch(model, ensemble, new_class, test_set),
              test_set.labels)
    off = compose_batch(
        model, ensemble, DecisionPolicy(tau=2.0, excluded_label=EXCLUDED), test_set)
    summarize("tau=2.0 (off)", off, test_set.labels)
    assert np.array_equal(off.corrected_labels, off.base_labels)
    print("\nwith tau above 1 no override can fire, and the composed model")
    print("degenerates to the base model exactly.")


if __name__ == "__main__":
    main()
