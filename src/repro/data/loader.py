"""Mini-batch sampling from a worker's data shard.

``BatchLoader`` is an infinite sampler: PASGD's iteration count is driven by
the wall-clock budget and the communication schedule rather than by epochs,
so the loader reshuffles and continues whenever it exhausts its shard
(matching the paper's "partition ... randomly shuffled after every epoch").
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import Dataset
from repro.utils.seeding import check_random_state

__all__ = ["BatchLoader"]


class BatchLoader:
    """Cyclic shuffled mini-batch iterator over a dataset shard."""

    def __init__(self, dataset: Dataset, batch_size: int, rng=None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self.requested_batch_size = batch_size
        self._rng = check_random_state(rng)
        self._order = self._rng.permutation(len(dataset))
        self._cursor = 0
        self.epochs_completed = 0

    def next_indices(self) -> np.ndarray:
        """Dataset-local indices of the next mini-batch, advancing the stream.

        This is the RNG-bearing half of :meth:`next_batch` (shuffle order,
        epoch wrap); separating it lets the vectorized :class:`BankLoader`
        reproduce each shard's exact sampling stream while gathering all m
        batches with a single fancy-index.
        """
        n = len(self.dataset)
        if self._cursor + self.batch_size > n:
            remaining = self._order[self._cursor :]
            self._order = self._rng.permutation(n)
            self._cursor = 0
            self.epochs_completed += 1
            if len(remaining) > 0:
                needed = self.batch_size - len(remaining)
                idx = np.concatenate([remaining, self._order[:needed]])
                self._cursor = needed
                return idx
        idx = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return idx

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next (X, y) mini-batch, reshuffling at epoch boundaries."""
        idx = self.next_indices()
        return self.dataset.X[idx], self.dataset.y[idx]

    def __iter__(self):
        return self

    def __next__(self) -> tuple[np.ndarray, np.ndarray]:
        return self.next_batch()

    def full_data(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole shard (used for exact loss evaluation)."""
        return self.dataset.X, self.dataset.y
