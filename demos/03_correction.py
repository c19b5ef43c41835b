"""Blind a base model to one class, then bolt on a corrector that sees it.

The base model trains with class 2 removed, so it cannot ever predict it.
A gradient-boosted corrector trained on the base model's own latent
activations (from a split the base never trained on) learns the missing
class, and a decision policy arbitrates between the two. The three policy
kinds trade coverage against caution in different ways.
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
from mclab.datagen import default_profile, generate_gaussian

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
    spec = default_profile(
        dim=64, proportions=(0.5, 0.3, 0.2), names=("A", "B", "C"),
        close_pair=(0, 2), close_distance=6.0,
    )
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

    print("\npolicy comparison on the held-out test split:")
    policies = [
        ("always_corrector", DecisionPolicy(kind="always_corrector")),
        ("threshold_override", DecisionPolicy(kind="threshold_override", tau=0.5)),
        ("excluded_only tau=0.5", DecisionPolicy(
            kind="excluded_only", tau=0.5, excluded_label=EXCLUDED)),
        ("excluded_only as_new_class", DecisionPolicy(
            kind="excluded_only", tau=0.5, excluded_label=EXCLUDED,
            as_new_class=True)),
        ("excluded_only tau=2.0 (off)", DecisionPolicy(
            kind="excluded_only", tau=2.0, excluded_label=EXCLUDED)),
    ]
    for tag, policy in policies:
        preds = compose_batch(model, ensemble, policy, test_set)
        summarize(tag, preds, test_set.labels)

    print("\nnote the threshold policy: a well-trained base model is")
    print("confidently wrong on the class it never saw, so waiting for low")
    print("base confidence fires never. The excluded_only policy skips that")
    print("condition, which is exactly why it recovers the missing class.")
    print("With tau above 1 no override can fire and the composed model")
    print("degenerates to the base model exactly.")


if __name__ == "__main__":
    main()
