"""Generate the skewed-mixture dataset and look at what makes it hard.

Two difficulties are built in: a long-tailed label distribution (the rarest
class is ~17x smaller than the largest) and one deliberately close pair of
cluster centers that the classifier will tend to confuse.
"""

import numpy as np

from mclab.core import Rng, SplitSpec, class_weights, split_dataset
from mclab.datagen import ProfileConfig, generate_gaussian


def main() -> None:
    profile = ProfileConfig(dim=64)
    spec = profile.to_cluster_spec()
    rng = Rng.from_seed(0).derive("data")
    data = generate_gaussian(spec, 7000, rng)

    print(f"dataset: n={data.labels.size} features={data.feature_shape} "
          f"classes={data.n_classes}")
    print()
    print(f"{'class':<12}{'count':>7}{'share':>9}{'weight':>9}")
    weights = class_weights(data)
    counts = data.class_counts
    for i, name in enumerate(profile.names):
        print(f"{i}:{name:<10}{counts[i]:>7}"
              f"{counts[i] / data.labels.size:>9.3f}{weights[i]:>9.2f}")
    print()
    print("inverse-frequency weights give every class equal pull on the")
    print("training loss no matter how rare it is.")

    a, b = 3, 6
    means = np.asarray(spec.means)
    dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    print()
    print(f"closest center pair: classes {a} and {b} at distance "
          f"{dists[a, b]:.1f} (next closest {np.sort(dists[dists < np.inf])[2]:.1f})")

    train_set, correct_set, test_set = split_dataset(data, SplitSpec(seed=0))
    print()
    print("stratified 50/25/25 split keeps the skew in every part:")
    for name, part in (("train", train_set), ("correct", correct_set),
                       ("test", test_set)):
        shares = part.class_counts / part.labels.size
        print(f"  {name:<8} n={part.labels.size:<5} shares="
              + " ".join(f"{s:.3f}" for s in shares))


if __name__ == "__main__":
    main()
