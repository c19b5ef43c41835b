"""Blind a base model to one class, then bolt on a corrector that sees it.

The base model trains with class 2 removed, so it cannot ever predict it.
A gradient-boosted corrector trained on the base model's own latent
activations (from a split the base never trained on) learns the missing
class. The paper's decision rule arbitrates between the two: the corrector
overrides only when it names the excluded class with probability at least
tau. The demo varies tau and the new-class sentinel.
"""

import numpy as np

from mclab.basemodel import (
    ModelConfig, StagedModel, TrainConfig, forward_latents, train,
)
from mclab.composer import NEW_CLASS, DecisionPolicy, compose_batch
from mclab.core import (
    Rng, SplitSpec, class_weights, exclude_class, split_dataset, validation_slice,
)
from mclab.corrector import GbdtConfig, fit
from mclab.datagen import ProfileConfig, generate_gaussian

EXCLUDED = 2


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
    spec = ProfileConfig(
        dim=64, proportions=(0.5, 0.3, 0.2), names=("A", "B", "C"),
        close_pair=(0, 2), close_distance=6.0,
    ).to_cluster_spec()
    data = generate_gaussian(spec, 1200, Rng.from_seed(7).derive("data"))
    train_set, correct_set, test_set = split_dataset(data, SplitSpec(seed=7))

    # early stopping validates on a slice of the train split, blind too
    fit_set, val_set = validation_slice(train_set, split_seed=7)
    blind = exclude_class(fit_set, EXCLUDED)
    blind_val = exclude_class(val_set, EXCLUDED)
    print(f"train split: {train_set.labels.size} samples -> "
          f"{fit_set.labels.size} to fit + {val_set.labels.size} to validate "
          f"-> {blind.labels.size} + {blind_val.labels.size} after removing "
          f"class {EXCLUDED}")

    model = StagedModel(
        ModelConfig(input_shape=(1, 8, 8), conv_channels=(2, 4, 8),
                    n_heads=2, n_classes=3),
        seed=7,
    )
    weights = class_weights(blind, excluded={EXCLUDED})
    model, history = train(
        model, blind, blind_val, weights,
        TrainConfig(learning_rate=0.08, batch_size=32, max_epochs=30,
                    patience=8, dropout_p=0.1, seed=7),
    )
    print(f"base model val accuracy {history.best_val_acc:.3f} on the slice "
          f"without class {EXCLUDED} (it can never say '{EXCLUDED}')")

    _, latents, layout = forward_latents(model, correct_set)
    ensemble = fit(latents, correct_set.labels,
                   GbdtConfig(n_rounds=20, max_depth=3, seed=7), n_classes=3, layout=layout)
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
