"""Synthetic dataset generators.

``make_synth_cifar10`` / ``make_synth_cifar100`` produce Gaussian-cluster
image-like data with 10/100 classes — the drop-in replacement for the CIFAR
datasets used in the paper (see DESIGN.md, substitution table).  The other
generators cover regression and a non-linearly-separable spiral task used in
tests and examples.

The classification generators self-register in the shared
:data:`repro.api.registries.DATASETS` registry, so experiment configs refer
to them by name (``dataset="synth_cifar100"``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registries import DATASETS
from repro.utils.domains import Interval
from repro.utils.seeding import check_random_state

__all__ = [
    "Dataset",
    "make_gaussian_blobs",
    "make_synth_cifar10",
    "make_synth_cifar100",
    "make_spirals",
    "make_linear_regression",
]

#: The fraction of labels flipped at random: all of them would leave no signal.
LABEL_NOISE = Interval(0, 1, hi_open=True)


@dataclass
class Dataset:
    """A fixed design matrix / target pair with a train/test split helper."""

    X: np.ndarray
    y: np.ndarray
    n_classes: int | None = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y)
        if len(self.X) != len(self.y):
            raise ValueError(f"X has {len(self.X)} rows but y has {len(self.y)}")
        if len(self.X) == 0:
            raise ValueError("dataset must be non-empty")

    def __len__(self) -> int:
        return len(self.X)

    @property
    def n_features(self) -> int:
        return int(np.prod(self.X.shape[1:]))

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.X[idx], self.y[idx], n_classes=self.n_classes, name=self.name)

    def split(self, test_fraction: float = 0.2, rng=None) -> tuple["Dataset", "Dataset"]:
        """Shuffle and split into (train, test)."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        gen = check_random_state(rng)
        perm = gen.permutation(len(self))
        n_test = max(1, int(round(test_fraction * len(self))))
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        return self.subset(train_idx), self.subset(test_idx)


@DATASETS.register("gaussian_blobs")
def make_gaussian_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    class_sep: float = 2.0,
    noise_std: float = 1.0,
    label_noise: float = 0.0,
    rng=None,
    name: str = "blobs",
) -> Dataset:
    """Isotropic Gaussian clusters, one per class.

    ``class_sep`` controls how far apart the class means are (in units of the
    per-class standard deviation); smaller values make the task harder and
    raise the irreducible loss floor, mimicking harder datasets like CIFAR-100.
    ``label_noise`` flips that fraction of labels uniformly at random.
    """
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    LABEL_NOISE("label_noise", label_noise)
    gen = check_random_state(rng)
    centers = gen.normal(0.0, class_sep, size=(n_classes, n_features))
    y = gen.integers(0, n_classes, size=n_samples)
    X = centers[y] + gen.normal(0.0, noise_std, size=(n_samples, n_features))
    if label_noise > 0:
        flip = gen.random(n_samples) < label_noise
        y = np.where(flip, gen.integers(0, n_classes, size=n_samples), y)
    return Dataset(X, y.astype(np.int64), n_classes=n_classes, name=name)


@DATASETS.register("synth_cifar10")
def make_synth_cifar10(
    n_samples: int = 2000,
    n_features: int = 192,
    class_sep: float = 1.0,
    label_noise: float = 0.05,
    rng=None,
) -> Dataset:
    """Synthetic stand-in for CIFAR-10: 10 Gaussian classes, image-like dimensionality.

    The default class separation and label noise are chosen so that the task
    is *not* trivially separable — training loss decreases gradually and has
    a non-zero floor, which is the regime in which the paper's error-runtime
    trade-off (large τ → fast start but high floor) is visible.
    ``n_features = 192`` corresponds to 3×8×8 "images" so the CNN models can
    consume the same data in NCHW form.
    """
    return make_gaussian_blobs(
        n_samples,
        n_features,
        n_classes=10,
        class_sep=class_sep,
        label_noise=label_noise,
        rng=rng,
        name="synth-cifar10",
    )


@DATASETS.register("synth_cifar100")
def make_synth_cifar100(
    n_samples: int = 2000,
    n_features: int = 192,
    class_sep: float = 0.8,
    label_noise: float = 0.05,
    rng=None,
) -> Dataset:
    """Synthetic stand-in for CIFAR-100: 100 classes, lower separation (harder)."""
    return make_gaussian_blobs(
        n_samples,
        n_features,
        n_classes=100,
        class_sep=class_sep,
        label_noise=label_noise,
        rng=rng,
        name="synth-cifar100",
    )


@DATASETS.register("spirals")
def make_spirals(
    n_samples: int = 1000,
    n_classes: int = 3,
    noise_std: float = 0.2,
    rng=None,
) -> Dataset:
    """Interleaved 2-D spirals — a non-linearly-separable task for MLP tests."""
    gen = check_random_state(rng)
    per_class = n_samples // n_classes
    xs, ys = [], []
    for c in range(n_classes):
        r = np.linspace(0.2, 1.0, per_class)
        theta = np.linspace(c * 2 * np.pi / n_classes, c * 2 * np.pi / n_classes + 3.5, per_class)
        theta = theta + gen.normal(0.0, noise_std, size=per_class)
        xs.append(np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))
        ys.append(np.full(per_class, c, dtype=np.int64))
    X = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = gen.permutation(len(X))
    return Dataset(X[perm], y[perm], n_classes=n_classes, name="spirals")


def make_linear_regression(
    n_samples: int = 1000,
    n_features: int = 20,
    noise_std: float = 0.1,
    rng=None,
) -> tuple[Dataset, np.ndarray]:
    """Linear-regression data ``y = X w* + ε``; returns (dataset, true weights)."""
    gen = check_random_state(rng)
    w_star = gen.normal(size=n_features)
    X = gen.normal(size=(n_samples, n_features))
    y = X @ w_star + gen.normal(0.0, noise_std, size=n_samples)
    return Dataset(X, y, n_classes=None, name="linreg"), w_star
