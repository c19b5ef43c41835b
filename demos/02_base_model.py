"""Train the staged base classifier and peek at its internal stages.

A small conv -> one-way LSTM -> attention -> fc network trained with weighted
cross-entropy and early stopping. The baseline run (no class excluded) is set
up and trained by the harness stages (``plan_run``, ``train_run``) from a small
config document, exactly as ``run_single`` would train it. Every stage's
activations are exposed as one latent matrix whose column blocks are named by
stage, which is what the corrector consumes downstream.
"""

import tempfile
from pathlib import Path

import numpy as np

from mclab.basemodel import forward_latents, load_model, predict_batch, save_model
from mclab.harness import normalize_config, plan_run, train_run

CONFIG = {
    "seed": 0,
    "dataset": {"n_total": 900, "profile": {
        "proportions": [0.5, 0.3, 0.2], "names": ["A", "B", "C"],
        "close_pair": [0, 2], "close_distance": 6.0}},
    "model": {"conv_channels": [2, 4, 8], "n_classes": 3},
    "train": {"learning_rate": 0.05, "batch_size": 32, "max_epochs": 45,
              "patience": 10, "dropout_p": 0.1},
}


def main() -> None:
    # data, split, validation slice, class weights and the init and train
    # streams: the run's set-up stage. Early stopping validates on a slice of
    # the train split; the test split is only scored
    plan = plan_run(normalize_config(CONFIG), None)
    model, history = train_run(plan)
    test_set = plan.test_set

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
        relabels, reprobs = predict_batch(clone, test_set)
        # model.bin holds the float64 weights, so the reload is the model itself
        assert np.array_equal(labels, relabels) and reprobs.tobytes() == probs.tobytes()
        print(f"\ncheckpoint round trip: {path.stat().st_size} bytes, the reloaded "
              f"model's test probabilities equal the trained model's bit for bit")


if __name__ == "__main__":
    main()
