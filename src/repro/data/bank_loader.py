"""Vectorized mini-batch sampling across all worker shards at once.

``BankLoader`` is the data half of the vectorized worker-bank backend: it
draws the next mini-batch of *every* worker in one call, returning stacked
``(m, B, ...)`` design matrices ready for the param-bank forward path.

Reproducibility is the hard requirement here: each worker's shard must see
exactly the sampling stream it would under its own :class:`BatchLoader`
(per-shard shuffle order, epoch wrap, per-worker RNG).  The loader therefore
keeps one ``BatchLoader`` per shard for the cheap index/RNG bookkeeping
(:meth:`BatchLoader.next_indices`) and vectorizes the expensive part — the
row gather — as a single fancy-index into one concatenated design matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.loader import BatchLoader
from repro.data.synthetic import Dataset

__all__ = ["BankLoader", "common_effective_batch"]


def common_effective_batch(shards: Sequence[Dataset], batch_size: int) -> int:
    """The one batch size every shard clips ``batch_size`` to, or ``ValueError``.

    :class:`BatchLoader` clips the requested batch to each shard's length;
    stacked sampling needs that clipped size to be *common* across shards.
    This is the single home of the rule — ``BankLoader`` enforces it at
    construction and
    :func:`~repro.distributed.worker_bank.check_bank_setup` checks it before
    any stream is consumed (so ``"auto"`` can fall back).
    """
    effective = {min(batch_size, len(shard)) for shard in shards}
    if len(effective) > 1:
        raise ValueError(
            f"stacked sampling needs one common batch size, but the shards "
            f"clip batch_size={batch_size} to {sorted(effective)}"
        )
    return effective.pop()


class BankLoader:
    """Stacked cyclic mini-batch iterator over m worker shards.

    Parameters
    ----------
    shards:
        One :class:`Dataset` per worker.  All shards must share the feature
        shape (they are partitions of one parent dataset) and must support a
        common effective batch size.
    batch_size:
        Requested per-worker batch size; clipped per shard exactly as
        :class:`BatchLoader` does.  Shards small enough to clip to different
        effective sizes cannot be stacked and raise ``ValueError``.
    rngs:
        One RNG (or seed) per worker, consumed identically to handing each
        worker its own ``BatchLoader``.
    dtype:
        Optional dtype the stacked design matrix is stored (and therefore
        sampled) in — the entry point of the opt-in ``float32`` bank mode.
        ``None`` keeps the dataset's own dtype (the byte-identical default).
        Targets are never cast; class labels stay integral.
    """

    def __init__(
        self,
        shards: Sequence[Dataset],
        batch_size: int,
        rngs: Sequence | None = None,
        dtype=None,
    ):
        if not shards:
            raise ValueError("BankLoader needs at least one shard")
        if rngs is None:
            rngs = [None] * len(shards)
        if len(rngs) != len(shards):
            raise ValueError(f"{len(shards)} shards but {len(rngs)} RNG streams")
        common_effective_batch(shards, batch_size)
        self.loaders = [
            BatchLoader(shard, batch_size, rng=rng)
            for shard, rng in zip(shards, rngs)
        ]
        self.batch_size = self.loaders[0].batch_size
        self.n_workers = len(shards)
        # One concatenated design matrix so every round is a single gather.
        self._X = np.concatenate([shard.X for shard in shards], axis=0)
        if dtype is not None:
            self._X = self._X.astype(dtype, copy=False)
        self._y = np.concatenate([shard.y for shard in shards], axis=0)
        self._offsets = np.cumsum([0] + [len(shard) for shard in shards])[:-1]

    def next_batches(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(m, B, ...)`` inputs and ``(m, B, ...)`` targets for all workers."""
        rows = np.concatenate(
            [
                loader.next_indices() + offset
                for loader, offset in zip(self.loaders, self._offsets)
            ]
        )
        m, batch = self.n_workers, self.batch_size
        X = self._X[rows].reshape(m, batch, *self._X.shape[1:])
        y = self._y[rows].reshape(m, batch, *self._y.shape[1:])
        return X, y

    def __iter__(self):
        return self

    def __next__(self) -> tuple[np.ndarray, np.ndarray]:
        return self.next_batches()

    @property
    def epochs_completed(self) -> int:
        """Epochs completed by worker 0's stream (all shards stay in lockstep
        when they have equal sizes; they may drift by one otherwise)."""
        return self.loaders[0].epochs_completed
