"""Tests for the data substrate (repro.data)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.loader import BatchLoader
from repro.data.partition import partition_dataset
from repro.data.synthetic import (
    Dataset,
    make_gaussian_blobs,
    make_linear_regression,
    make_spirals,
    make_synth_cifar10,
    make_synth_cifar100,
)


class TestDataset:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0))

    def test_subset(self):
        ds = make_gaussian_blobs(50, 4, 3, rng=0)
        sub = ds.subset(np.array([0, 5, 10]))
        assert len(sub) == 3
        np.testing.assert_allclose(sub.X[1], ds.X[5])

    def test_split_sizes_and_disjoint(self):
        ds = make_gaussian_blobs(100, 4, 2, rng=0)
        train, test = ds.split(test_fraction=0.25, rng=0)
        assert len(train) == 75 and len(test) == 25

    def test_split_invalid_fraction(self):
        ds = make_gaussian_blobs(20, 2, 2, rng=0)
        with pytest.raises(ValueError):
            ds.split(test_fraction=1.5)

    def test_n_features_flattens(self):
        ds = Dataset(np.zeros((4, 3, 2)), np.zeros(4))
        assert ds.n_features == 6


class TestGenerators:
    def test_blobs_shapes_and_labels(self):
        ds = make_gaussian_blobs(120, 6, 4, rng=0)
        assert ds.X.shape == (120, 6)
        assert set(np.unique(ds.y)) <= set(range(4))
        assert ds.n_classes == 4

    def test_blobs_reproducible(self):
        a = make_gaussian_blobs(30, 3, 2, rng=7)
        b = make_gaussian_blobs(30, 3, 2, rng=7)
        np.testing.assert_allclose(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_blobs_separation_controls_difficulty(self):
        near = make_gaussian_blobs(600, 8, 3, class_sep=0.2, rng=0)
        far = make_gaussian_blobs(600, 8, 3, class_sep=5.0, rng=0)
        # Nearest-centroid error should be much lower for well-separated data.
        def centroid_accuracy(ds):
            centers = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(3)])
            dists = ((ds.X[:, None, :] - centers[None]) ** 2).sum(axis=2)
            return (dists.argmin(axis=1) == ds.y).mean()

        assert centroid_accuracy(far) > centroid_accuracy(near) + 0.2

    def test_label_noise_flips_labels(self):
        clean = make_gaussian_blobs(500, 4, 5, label_noise=0.0, rng=3)
        noisy = make_gaussian_blobs(500, 4, 5, label_noise=0.5, rng=3)
        assert (clean.y != noisy.y).mean() > 0.2

    def test_invalid_label_noise(self):
        with pytest.raises(ValueError):
            make_gaussian_blobs(10, 2, 2, label_noise=1.0)

    def test_synth_cifar_variants(self):
        c10 = make_synth_cifar10(n_samples=200, rng=0)
        c100 = make_synth_cifar100(n_samples=300, rng=0)
        assert c10.n_classes == 10 and c100.n_classes == 100
        assert c10.name == "synth-cifar10"

    def test_spirals(self):
        ds = make_spirals(n_samples=300, n_classes=3, rng=0)
        assert ds.X.shape[1] == 2
        assert set(np.unique(ds.y)) == {0, 1, 2}

    def test_linear_regression_data(self):
        ds, w_star = make_linear_regression(n_samples=500, n_features=6, noise_std=0.0, rng=0)
        np.testing.assert_allclose(ds.y, ds.X @ w_star, atol=1e-10)


class TestPartitioning:
    def test_iid_partition_covers_all_samples_once(self):
        ds = make_gaussian_blobs(100, 4, 3, rng=0)
        part = partition_dataset(ds, 4, rng=0)
        all_idx = np.concatenate(part.worker_indices)
        assert len(all_idx) == 100
        assert len(np.unique(all_idx)) == 100
        assert part.n_workers == 4

    def test_iid_shard_sizes_balanced(self):
        ds = make_gaussian_blobs(103, 4, 3, rng=0)
        part = partition_dataset(ds, 4, rng=0)
        sizes = part.shard_sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_shard_materialization(self):
        ds = make_gaussian_blobs(60, 4, 3, rng=0)
        part = partition_dataset(ds, 3, rng=0)
        shard = part.shard(1)
        assert len(shard) == 20

    def test_shard_out_of_range(self):
        ds = make_gaussian_blobs(30, 2, 2, rng=0)
        part = partition_dataset(ds, 3, rng=0)
        with pytest.raises(IndexError):
            part.shard(3)

    def test_label_skew_partition(self):
        ds = make_gaussian_blobs(400, 4, 8, rng=0)
        part = partition_dataset(ds, 4, strategy="label_skew", classes_per_worker=2, rng=0)
        all_idx = np.concatenate(part.worker_indices)
        assert len(np.unique(all_idx)) == 400
        # Each worker should be dominated by few classes.
        for w in range(4):
            labels = ds.y[part.worker_indices[w]]
            top2 = np.sort(np.bincount(labels, minlength=8))[-2:].sum()
            assert top2 / len(labels) > 0.8

    def test_label_skew_requires_classification(self):
        ds, _ = make_linear_regression(50, 4, rng=0)
        with pytest.raises(ValueError):
            partition_dataset(ds, 2, strategy="label_skew")

    def test_unknown_strategy(self):
        ds = make_gaussian_blobs(30, 2, 2, rng=0)
        with pytest.raises(ValueError):
            partition_dataset(ds, 2, strategy="zipf")

    def test_too_many_workers(self):
        ds = make_gaussian_blobs(3, 2, 2, rng=0)
        with pytest.raises(ValueError):
            partition_dataset(ds, 10)

    def test_reshuffle_keeps_coverage(self):
        ds = make_gaussian_blobs(80, 3, 2, rng=0)
        part = partition_dataset(ds, 4, rng=0)
        part2 = part.reshuffle(rng=1)
        assert part2.n_workers == 4
        assert len(np.unique(np.concatenate(part2.worker_indices))) == 80


class TestBatchLoader:
    def test_batch_shapes(self):
        ds = make_gaussian_blobs(50, 4, 3, rng=0)
        loader = BatchLoader(ds, batch_size=8, rng=0)
        X, y = loader.next_batch()
        assert X.shape == (8, 4) and y.shape == (8,)

    def test_cycles_and_counts_epochs(self):
        ds = make_gaussian_blobs(20, 2, 2, rng=0)
        loader = BatchLoader(ds, batch_size=8, rng=0)
        for _ in range(10):
            loader.next_batch()
        assert loader.epochs_completed >= 3

    def test_all_samples_seen_within_one_cycle(self):
        ds = make_gaussian_blobs(24, 2, 2, rng=0)
        loader = BatchLoader(ds, batch_size=6, rng=0)
        seen = set()
        for _ in range(4):
            X, _ = loader.next_batch()
            for row in X:
                seen.add(tuple(np.round(row, 6)))
        assert len(seen) == 24

    def test_batch_larger_than_dataset_is_clamped(self):
        ds = make_gaussian_blobs(5, 2, 2, rng=0)
        loader = BatchLoader(ds, batch_size=50, rng=0)
        X, _ = loader.next_batch()
        assert X.shape[0] == 5

    def test_invalid_batch_size(self):
        ds = make_gaussian_blobs(5, 2, 2, rng=0)
        with pytest.raises(ValueError):
            BatchLoader(ds, batch_size=0)

    def test_iterator_protocol(self):
        ds = make_gaussian_blobs(16, 2, 2, rng=0)
        loader = BatchLoader(ds, batch_size=4, rng=0)
        X, y = next(iter(loader))
        assert X.shape == (4, 2)


@settings(max_examples=25, deadline=None)
@given(
    n_samples=st.integers(min_value=10, max_value=200),
    n_workers=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_iid_partition_is_exact_cover(n_samples, n_workers, seed):
    """Every sample appears in exactly one shard, for any sizes."""
    if n_samples < n_workers:
        return
    ds = make_gaussian_blobs(n_samples, 3, 2, rng=seed)
    part = partition_dataset(ds, n_workers, rng=seed)
    all_idx = np.sort(np.concatenate(part.worker_indices))
    np.testing.assert_array_equal(all_idx, np.arange(n_samples))
