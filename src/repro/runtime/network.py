"""Communication-delay scaling with the number of workers.

The paper models the all-node broadcast delay as ``D = D0 * s(m)`` (eq. 5),
where ``D0`` is the cost of a single inter-node transfer and ``s(m)`` captures
how the collective scales with ``m`` workers.  The choice of ``s`` depends on
the implementation: a naive parameter server is linear in ``m``, a reduction
tree scales as ``2 log2(m)`` (the example given in the paper, citing
FireCaffe), and a bandwidth-optimal ring all-reduce is ``2 (m-1)/m`` — nearly
constant.

``NetworkModel`` bundles ``D0`` and a registered scaling name into the one
object both the runtime model (``E[D]``) and the simulator (``D``) read.
There is no jitter: every round's delay is exactly ``D0 * s(m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.api.registries import NETWORK_SCALINGS

__all__ = [
    "constant_scaling",
    "parameter_server_scaling",
    "reduction_tree_scaling",
    "ring_allreduce_scaling",
    "NetworkModel",
]


@NETWORK_SCALINGS.register("constant")
def constant_scaling(m: int) -> float:
    """``s(m) = 1``: broadcast cost independent of cluster size."""
    _validate_m(m)
    return 1.0


@NETWORK_SCALINGS.register("parameter_server")
def parameter_server_scaling(m: int) -> float:
    """``s(m) = m``: every worker pushes/pulls through one central server link."""
    _validate_m(m)
    return float(m)


@NETWORK_SCALINGS.register("reduction_tree")
def reduction_tree_scaling(m: int) -> float:
    """``s(m) = 2 log2(m)`` (with s(1)=1): the FireCaffe-style reduction tree
    the paper cites as the parameter-server example."""
    _validate_m(m)
    if m == 1:
        return 1.0
    return 2.0 * math.log2(m)


@NETWORK_SCALINGS.register("ring_allreduce")
def ring_allreduce_scaling(m: int) -> float:
    """``s(m) = 2 (m-1)/m``: bandwidth-optimal ring all-reduce."""
    _validate_m(m)
    if m == 1:
        return 1.0
    return 2.0 * (m - 1) / m


def _validate_m(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"number of workers m must be a positive integer, got {m!r}")


@dataclass
class NetworkModel:
    """Communication-delay model ``D = D0 * s(m)`` (eq. 5).

    Parameters
    ----------
    base_delay:
        ``D0``, the per-transfer delay in seconds.  Proportional to model
        size / bandwidth in a real deployment.
    scaling:
        The name of a registered scaling ``s(m)`` (``NETWORK_SCALINGS``).
    """

    base_delay: float
    scaling: str

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be non-negative, got {self.base_delay}")
        self._scaling_fn = NETWORK_SCALINGS.get(self.scaling)

    def mean_delay(self, m: int) -> float:
        """Expected all-node broadcast delay ``E[D]`` for ``m`` workers."""
        return self.base_delay * self._scaling_fn(m)

    def sample_delay(self, m: int) -> float:
        """The broadcast delay of one communication round among ``m`` workers (= ``E[D]``)."""
        return self.mean_delay(m)
