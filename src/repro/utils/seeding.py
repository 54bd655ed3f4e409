"""Random-state handling utilities.

Every stochastic component in the library (delay distributions, data
generators, mini-batch samplers, optimizers with noise injection) accepts
either an integer seed, a :class:`numpy.random.Generator`, or ``None``.
``check_random_state`` normalizes the three into a ``Generator`` so that
experiments are reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["check_random_state", "SeedSequence"]


def check_random_state(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize ``seed`` to a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int, or numpy Generator, got {type(seed)!r}")


@dataclass
class SeedSequence:
    """Deterministically spawn independent child seeds from a root seed.

    Used to give every worker in a simulated cluster its own independent
    stream while keeping the whole experiment reproducible from one root.

    Examples
    --------
    >>> seq = SeedSequence(123)
    >>> a = seq.spawn()
    >>> b = seq.spawn()
    >>> a != b
    True
    """

    root: int
    _counter: int = field(default=0, init=False)

    def spawn(self) -> int:
        """Return the next child seed."""
        self._counter += 1
        # SplitMix64-style mixing keeps children statistically independent.
        z = (self.root + 0x9E3779B97F4A7C15 * self._counter) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return int(z ^ (z >> 31)) & 0x7FFFFFFF

    def generator(self) -> np.random.Generator:
        """Spawn a child seed and wrap it in a fresh ``Generator``."""
        return np.random.default_rng(self.spawn())
