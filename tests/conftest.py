"""Shared fixtures + the backend-equivalence matrix for the test suite.

Beyond the small workload fixtures, this module is the single home of the
loop↔bank↔sharded **equivalence matrix**: every ``MODELS`` registry entry
(plus batch-norm/dropout variants and the data-free quadratic objective)
crossed with every non-reference execution backend.  ``equivalence_cases()``
and ``EQUIVALENCE_BACKENDS`` parametrize ``tests/test_equivalence_matrix.py``;
``build_equivalence_cluster`` and ``trajectory_fingerprint`` are the shared
drivers, so new models or backends are covered by adding one case or one
name here instead of copying assertions across test files.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import multiprocessing
import os
import pkgutil
import signal
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

from repro.data.synthetic import make_gaussian_blobs
from repro.distributed import BackendHandle, ShmStatePlane, SimulatedCluster
from repro.experiments import harness, parallel
from repro.models.mlp import MLP
from repro.nn.layers import Linear, Module, Sequential, Sigmoid, Tanh
from repro.nn.losses import bank_cross_entropy, cross_entropy
from repro.runtime.distributions import ConstantDelay, ExponentialDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator
from repro.utils.seeding import SeedSequence, check_random_state


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_dataset():
    """Small, well-separated 3-class dataset (fast and learnable)."""
    return make_gaussian_blobs(
        n_samples=180, n_features=8, n_classes=3, class_sep=2.5, noise_std=0.6, rng=0
    )


@pytest.fixture
def tiny_model_fn():
    """Factory building a small MLP with a fixed seed (identical replicas)."""

    def factory():
        return MLP(n_features=8, n_classes=3, hidden_sizes=(12,), rng=42)

    return factory


@pytest.fixture
def constant_runtime():
    """Deterministic runtime simulator: Y = 1, D = 2, m = 4."""
    return RuntimeSimulator(
        compute=ConstantDelay(1.0),
        network=NetworkModel(base_delay=2.0, scaling="constant"),
        n_workers=4,
        rng=0,
    )


@pytest.fixture
def stochastic_runtime():
    """Exponential compute times (straggler regime): Y ~ Exp(1), D = 1, m = 4."""
    return RuntimeSimulator(
        compute=ExponentialDelay(1.0),
        network=NetworkModel(base_delay=1.0, scaling="constant"),
        n_workers=4,
        rng=1,
    )


# -- process-layout plumbing shared by the pool tests -------------------------


class LeakDetector:
    """What a pool must not leave behind: ``/dev/shm/psm_*`` segments and children.

    Both are counted relative to construction time, so leftovers of an
    earlier (failed) test are not billed to this one.
    """

    def __init__(self):
        self._segments = self._shm_segments()
        self._children = set(multiprocessing.active_children())

    @staticmethod
    def _shm_segments() -> set:
        try:
            return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
        except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
            return set()

    def segments(self) -> set:
        """Python-allocated shared-memory segments created since and still alive."""
        return self._shm_segments() - self._segments

    def children(self, grace: float = 3.0) -> set:
        """Child processes started since and still alive after ``grace`` seconds."""
        deadline = time.monotonic() + grace
        while True:
            alive = set(multiprocessing.active_children()) - self._children
            if not alive or time.monotonic() > deadline:
                return alive
            time.sleep(0.02)

    def assert_clean(self) -> None:
        assert not self.segments(), f"leaked /dev/shm segments: {sorted(self.segments())}"
        assert not self.children(), "child processes survived"


@pytest.fixture
def leaks():
    """A :class:`LeakDetector` armed before the test and asserted clean after it."""
    detector = LeakDetector()
    yield detector
    detector.assert_clean()


class Placement:
    """Force a helper on, and make it take the last item of a scheduler's list.

    The helper delay is 0 and a lineup sees two usable cores, so the helper
    forked before the parent's first item claims the last item at once.
    Before its next ``run_method`` the parent waits (:meth:`await_claim`,
    60 s at most) until the helper has claimed the last item or exited; with
    ``kill`` it then SIGKILLs the helper.  The helper holds that item's
    result until the wait is over, so it can neither outrun the parent nor
    finish before the kill.  It expects lists of three items or more: with
    two, the last item is the parent's second.  ``helpers`` has one entry per
    fork (claims ``dir``, ``procs``, the ``threads`` alive at the fork);
    ``parent_ran`` lists the method labels the parent ran.  Only the
    parent's pid records or waits: a forked helper inherits these patches
    and runs straight through them.
    """

    def __init__(self, monkeypatch, kill: bool = False):
        self.helpers: list = []
        self.parent_ran: list = []
        self.helper_claimed = False
        self.kill = kill
        pid = os.getpid()
        fork_helpers, run_method = parallel._fork_helpers, harness.run_method

        def recorded_fork_helpers(n_helpers, args):
            run, n_items, claims, *rest = args
            threads = threading.active_count()
            procs = fork_helpers(n_helpers, (functools.partial(_held, run, claims), n_items, claims, *rest))
            self.helpers.append(SimpleNamespace(
                dir=claims, last=str(n_items - 1), procs=procs, threads=threads, ran_before=len(self.parent_ran),
            ))
            return procs

        def parent_run_method(config, method, *args, **kwargs):
            if os.getpid() == pid:
                if self.helpers and len(self.parent_ran) == self.helpers[-1].ran_before + 1:
                    self.await_claim()
                self.parent_ran.append(method.label)
            return run_method(config, method, *args, **kwargs)

        monkeypatch.setattr(parallel, "_HELPER_DELAY_S", 0.0)
        monkeypatch.setattr(parallel, "_fork_helpers", recorded_fork_helpers)
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        monkeypatch.setattr(harness, "run_method", parent_run_method)

    def await_claim(self) -> None:
        helpers = self.helpers[-1]
        claimed = os.path.join(helpers.dir, helpers.last)
        deadline = time.monotonic() + 60.0
        while (
            not os.path.exists(claimed)
            and any(proc.is_alive() for proc in helpers.procs)
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        self.helper_claimed = os.path.exists(claimed)
        if self.kill:
            for proc in helpers.procs:
                os.kill(proc.pid, signal.SIGKILL)
        open(os.path.join(helpers.dir, "awaited"), "w").close()


def _held(run, claims: str, index: int):
    """``run(index)`` on a helper, returned once the parent's :meth:`Placement.await_claim` is over (60 s at most)."""
    result = run(index)
    deadline = time.monotonic() + 60.0
    while not os.path.exists(os.path.join(claims, "awaited")) and time.monotonic() < deadline:
        time.sleep(0.005)
    return result


def blas_threads() -> int:
    """This process's BLAS pool size, read back from NumPy's bundled OpenBLAS."""
    (lib,) = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    get_num_threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
    get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
    return get_num_threads()


@contextmanager
def pipe_plane():
    """Sharded pools built or rebuilt inside run on the pipe fallback.

    Shared-memory allocation fails as a full ``/dev/shm`` would (ENOSPC), so
    the rows ride in the replies — the one way to pin the pipe data plane.
    """

    def full(**kwargs):
        raise OSError(28, "No space left on device")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShmStatePlane, "create", full)
        yield


def seeded_backend_kwargs(n_workers: int = 4) -> dict:
    """Backend construction arguments, identically seeded on every call."""
    return dict(
        model_fn=_registry_model_fn("mlp"),
        shards=[
            make_gaussian_blobs(
                n_samples=30, n_features=EQUIVALENCE_FEATURES, n_classes=_EQ_CLASSES, rng=s
            )
            for s in range(n_workers)
        ],
        batch_size=8, lr=0.05, momentum=0.9, rngs=list(range(100, 100 + n_workers)),
    )


class _ClusterOwningItsHandle(SimulatedCluster):
    """``close()`` also releases the :class:`BackendHandle` built for this cluster."""

    handle: BackendHandle

    def close(self) -> None:
        super().close()
        self.handle.close()


def cluster_on(
    backend,
    *,
    n_shards: int = 2,
    auto_shard_threshold: "int | None" = None,
    **cluster_kwargs,
) -> SimulatedCluster:
    """A :class:`SimulatedCluster` on a process layout picked per call.

    The cluster takes its layout whole, as a :class:`BackendHandle`, and
    whoever builds a handle closes it.  The test helpers that pick a layout
    per case build the handle here and get a cluster whose ``close()``
    releases it too, so ``cluster.close()`` (or ``with``) still tears the
    pool down.  A caller's own handle passes through and stays theirs.
    """
    if isinstance(backend, BackendHandle):
        return SimulatedCluster(backend=backend, **cluster_kwargs)
    handle = BackendHandle(
        backend, n_shards=n_shards, auto_shard_threshold=auto_shard_threshold
    )
    try:
        cluster = _ClusterOwningItsHandle(backend=handle, **cluster_kwargs)
    except BaseException:
        handle.close()
        raise
    cluster.handle = handle
    return cluster


# -- backend-equivalence matrix ---------------------------------------------
#
# The contract pinned here is the one every fast backend is built on: with
# the same seeds, its per-step trajectory — per-worker losses, stacked
# parameter states, synchronized averages, eval losses (which see batch-norm
# buffers), and the positions of every RNG stream — must be *byte-identical*
# to the loop reference implementation.  Exact equality, no tolerances.

#: Backends checked against the "loop" reference.  "sharded" and
#: "sharded-shm" are the same backend on its two data planes — the matrix
#: pins byte-identity for the Pipe protocol AND the shared-memory plane.
EQUIVALENCE_BACKENDS = ("vectorized", "sharded", "sharded-shm")

#: pseudo-backend name -> (real backend registry name, the data plane it
#: must report; "pipe" is forced with :func:`pipe_plane`).
BACKEND_TRANSPORTS = {
    "vectorized": ("vectorized", "auto"),
    "sharded": ("sharded", "pipe"),
    "sharded-shm": ("sharded", "shm"),
}

@functools.cache
def repro_modules() -> tuple:
    """Every module of the ``repro`` package, imported (``__main__`` entry points skipped)."""
    import repro

    return (repro,) + tuple(
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    )


def bank_layer_classes() -> frozenset:
    """Every ``Module`` subclass in ``repro`` with a ``bank_forward`` of its own.

    Read from the live classes, so a layer joins the set the moment it
    defines ``bank_forward``; ``test_matrix_instantiates_every_bank_layer``
    then fails until ``equivalence_cases()`` below gives it a workload.
    """
    return frozenset(
        obj
        for module in repro_modules()
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Module) and obj is not Module
        and obj.__module__ == module.__name__ and "bank_forward" in vars(obj)
    )


#: n_features used for data cases; must view as a square image (3 × 2 × 2)
#: so the CNN registry entries accept it alongside the dense models.
EQUIVALENCE_FEATURES = 12
_EQ_CLASSES = 4


@dataclass(frozen=True)
class EquivalenceCase:
    """One workload of the matrix: a deterministic model factory + data kind."""

    id: str
    model_fn: Callable
    #: "data" cases shard a dataset across workers; "data_free" cases run a
    #: stochastic objective with ``dataset=None`` (only the quadratic
    #: objective supports this — dataset models need shards by definition).
    kind: str = "data"
    #: Local-optimizer momentum; one case pins the plain-SGD (0.0) update
    #: path, the rest exercise the momentum buffers.
    momentum: float = 0.9


def _registry_model_fn(name: str) -> Callable:
    """A deterministic factory for one ``MODELS`` registry entry."""
    from repro.api.registries import MODELS
    from repro.api.registry import filter_kwargs

    builder = MODELS.get(name)
    kwargs = filter_kwargs(
        builder,
        dict(
            n_features=EQUIVALENCE_FEATURES,
            n_classes=_EQ_CLASSES,
            hidden_sizes=(8,),
            rng=11,
        ),
    )
    return lambda: builder(**kwargs)


class ActivationZoo(Module):
    """Tiny classifier routing through Tanh *and* Sigmoid.

    No registry model uses Sigmoid (and only the MLP ``tanh`` variant uses
    Tanh), so this workload exists purely to keep every activation's
    ``bank_forward`` pinned by the matrix — see ``bank_layer_classes``.
    """

    def __init__(self, n_features: int, n_classes: int, rng=None):
        super().__init__()
        gen = check_random_state(rng)
        seeds = SeedSequence(int(gen.integers(0, 2**31 - 1)))
        self.net = Sequential(
            Linear(n_features, 10, rng=seeds.generator()),
            Tanh(),
            Linear(10, 10, rng=seeds.generator()),
            Sigmoid(),
            Linear(10, n_classes, rng=seeds.generator()),
        )

    def forward(self, x):
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.net(x)

    def loss(self, x, y):
        return cross_entropy(self(x), y)

    def bank_forward(self, x, params, prefix: str = ""):
        x = self._as_bank_input(x)
        return self.net.bank_forward(x, params, f"{prefix}net.")

    def bank_loss(self, x, y, params):
        return bank_cross_entropy(self.bank_forward(x, params), y)


def _quadratic_model_fn() -> Callable:
    from repro.models.quadratic import NoisyQuadraticProblem, QuadraticObjective

    objective = QuadraticObjective.random(dim=6, rng=0, noise_std=0.1)
    return lambda: NoisyQuadraticProblem(objective, x0=np.ones(6) * 3.0, rng=0)


def equivalence_cases() -> list[EquivalenceCase]:
    """All matrix workloads: every registry model, layer variants, data-free."""
    from repro.models.registry import available_models

    cases = [
        EquivalenceCase(id=name, model_fn=_registry_model_fn(name))
        for name in sorted(available_models())
    ]
    cases.append(
        EquivalenceCase(
            id="mlp+batch_norm+dropout",
            model_fn=lambda: MLP(
                EQUIVALENCE_FEATURES, _EQ_CLASSES, hidden_sizes=(8,),
                batch_norm=True, dropout=0.3, rng=2,
            ),
        )
    )
    cases.append(
        EquivalenceCase(
            id="mlp+plain_sgd",
            model_fn=_registry_model_fn("mlp"),
            momentum=0.0,
        )
    )
    cases.append(
        EquivalenceCase(
            id="activation_zoo",
            model_fn=lambda: ActivationZoo(EQUIVALENCE_FEATURES, _EQ_CLASSES, rng=7),
        )
    )
    cases.append(
        EquivalenceCase(id="noisy_quadratic", model_fn=_quadratic_model_fn(), kind="data_free")
    )
    return cases


def build_equivalence_cluster(
    case: EquivalenceCase, backend: str, n_workers: int = 4, **cluster_kwargs
):
    """A small seeded cluster for one matrix workload on one backend.

    Sharded clusters run on 2 processes (close them after use); all other
    knobs are identical across backends by construction.  ``backend`` may be
    a pseudo-backend from :data:`BACKEND_TRANSPORTS` (e.g. "sharded-shm"),
    which resolves to the real backend name on a pinned data plane.
    Extra ``cluster_kwargs`` (``collective=Gossip("ring")``, ...) pass
    through to :class:`SimulatedCluster` so the method-family tests reuse
    the same seeded workloads.
    """
    backend, transport = BACKEND_TRANSPORTS.get(backend, (backend, "auto"))

    dataset = (
        None
        if case.kind == "data_free"
        else make_gaussian_blobs(
            n_samples=160,
            n_features=EQUIVALENCE_FEATURES,
            n_classes=_EQ_CLASSES,
            class_sep=2.0,
            rng=3,
        )
    )
    runtime = RuntimeSimulator(
        ConstantDelay(1.0),
        NetworkModel(2.0, "constant"),
        n_workers=n_workers,
        rng=0,
    )
    with pipe_plane() if transport == "pipe" else nullcontext():
        return cluster_on(
            backend,
            n_shards=2,
            model_fn=case.model_fn,
            dataset=dataset,
            runtime=runtime,
            n_workers=n_workers,
            batch_size=8,
            lr=0.05,
            momentum=case.momentum,
            weight_decay=1e-4,
            seed=17,
            **cluster_kwargs,
        )


def _eval_loss_metric(model, X, y):
    was_training = model.training
    model.eval()
    try:
        return float(model.loss(X, y).item())
    finally:
        model.train(was_training)


def trajectory_fingerprint(cluster, rounds: int = 2, tau: int = 3) -> dict:
    """Everything that must match byte-for-byte across backends, per round.

    Collects per-worker period losses, the pre-averaging stacked ``(m, P)``
    states, the synchronized averages, an eval-mode loss of the synchronized
    model (which exercises per-worker batch-norm buffers on data workloads),
    and the final positions of every per-worker RNG stream.
    """
    fingerprint: dict = {"losses": [], "states": [], "synced": [], "eval_losses": []}
    probe = make_gaussian_blobs(
        n_samples=40, n_features=EQUIVALENCE_FEATURES, n_classes=_EQ_CLASSES, rng=9
    )
    data_free = cluster.backend.shard_sizes() is None
    for _ in range(rounds):
        fingerprint["losses"].append(cluster.backend.local_period(tau).tolist())
        fingerprint["states"].append(cluster.backend.get_stacked_states())
        fingerprint["synced"].append(cluster.average_models())
        if not data_free:
            fingerprint["eval_losses"].append(
                cluster.evaluate_synchronized(probe.X, probe.y, _eval_loss_metric)
            )
    fingerprint["rng"] = cluster.backend.rng_fingerprint()
    return fingerprint


def assert_fingerprints_identical(reference: dict, candidate: dict, label: str) -> None:
    """Byte-exact comparison of two :func:`trajectory_fingerprint` results."""
    assert candidate["losses"] == reference["losses"], f"{label}: period losses diverged"
    for round_index, (ref, got) in enumerate(zip(reference["states"], candidate["states"])):
        np.testing.assert_array_equal(
            got, ref, err_msg=f"{label}: stacked states diverged at round {round_index}"
        )
    for round_index, (ref, got) in enumerate(zip(reference["synced"], candidate["synced"])):
        np.testing.assert_array_equal(
            got, ref, err_msg=f"{label}: synchronized params diverged at round {round_index}"
        )
    assert candidate["eval_losses"] == reference["eval_losses"], (
        f"{label}: eval losses diverged (buffer state?)"
    )
    assert candidate["rng"] == reference["rng"], f"{label}: RNG stream positions diverged"
