"""Train the staged base classifier and peek at its internal stages.

A small conv -> one-way LSTM -> attention -> fc network trained with weighted
cross-entropy and early stopping. Every stage's activations are exposed as
one latent matrix whose column blocks are named by stage, which is what the
corrector consumes downstream.
"""

import tempfile
from pathlib import Path

import numpy as np

from mclab.basemodel import (
    ModelConfig, StagedModel, TrainConfig, forward_latents, load_model,
    predict_batch, save_model, train,
)
from mclab.core import (
    Rng, SplitSpec, class_weights, split_dataset, validation_slice,
)
from mclab.datagen import ProfileConfig, generate_gaussian


def main() -> None:
    spec = ProfileConfig(
        dim=64, proportions=(0.5, 0.3, 0.2), names=("A", "B", "C"),
        close_pair=(0, 2), close_distance=6.0,
    ).to_cluster_spec()
    data = generate_gaussian(spec, 900, Rng.from_seed(3).derive("data"))
    train_set, _, test_set = split_dataset(data, SplitSpec(seed=3))
    # early stopping validates on a slice of the train split; the test split
    # is only scored
    fit_set, val_set = validation_slice(train_set, split_seed=3)

    config = ModelConfig(input_shape=(1, 8, 8), conv_channels=(2, 4, 8),
                         n_heads=2, n_classes=3)
    model = StagedModel(config, seed=3)
    weights = class_weights(fit_set)
    model, history = train(
        model, fit_set, val_set, weights,
        TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=45,
                    patience=10, dropout_p=0.1, seed=3),
    )

    print(f"{'epoch':>6}{'train loss':>12}{'val acc':>9}")
    for epoch, loss, acc in history.rows:
        marker = "  <- checkpoint" if epoch == history.best_epoch else ""
        print(f"{epoch:>6}{loss:>12.4f}{acc:>9.3f}{marker}")
    print(f"stopped early: {history.stopped_early}, "
          f"best val acc {history.best_val_acc:.3f}")

    labels, probs = predict_batch(model, test_set)
    acc = float(np.mean(labels == test_set.labels))
    print(f"\ntest accuracy {acc:.3f}, "
          f"mean top-class confidence {probs.max(axis=1).mean():.3f}")

    _, latents, layout = forward_latents(model, test_set)
    print(f"\nlatent matrix of the test split, {latents.shape[0]} rows, by stage block:")
    for name, size in zip(layout.names, layout.sizes):
        block = latents[:, layout.block_slice(name)]
        print(f"  {name:<10} width {size:>4}  |mean| {np.abs(block).mean():.4f}")
    print(f"  concatenated width {layout.total}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(model, path)
        clone = load_model(path)
        relabels, _ = predict_batch(clone, test_set)
        print(f"\ncheckpoint round trip: {path.stat().st_size} bytes, "
              f"predictions identical: {bool(np.array_equal(labels, relabels))}")


if __name__ == "__main__":
    main()
