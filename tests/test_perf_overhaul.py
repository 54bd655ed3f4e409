"""Hot-path overhaul acceptance: kernel plan cache, float32 banks, pool reuse.

Three contracts from the perf PR, each checked at the byte level:

1. The cached im2col/col2im index plans are a pure memoization — a cache
   hit produces exactly the bytes a cold build does, across interleaved
   geometries and strides sharing one process-wide cache.
2. ``bank_dtype="float32"`` is opt-in reduced precision: the bank really
   stores float32, both bank backends agree byte-for-byte with each other,
   and the trajectory tracks the float64 reference within tolerance —
   while the float64 default stays byte-identical to the loop.
3. A :class:`BackendHandle` that carries one sharded pool across runs
   (the method-lineup/serial-sweep path) yields trajectories
   byte-identical to fresh-pool runs, and a pool can never be rebuilt
   into a different process count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_gaussian_blobs
from repro.distributed import BackendHandle
from repro.nn.layers import (
    _conv_plan,
    clear_kernel_plan_cache,
    kernel_plan_cache_stats,
)
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator

from tests.conftest import EQUIVALENCE_FEATURES, _registry_model_fn, cluster_on

F, C = EQUIVALENCE_FEATURES, 4

#: No test here may leave a /dev/shm segment or a child process behind.
pytestmark = pytest.mark.usefixtures("leaks")

#: Mixed conv geometries: (input shape, kernel, stride) spanning odd sizes,
#: stride > 1, and single-channel inputs — all sharing one plan cache.
GEOMETRIES = [
    ((2, 3, 8, 8), 3, 1),
    ((1, 2, 9, 9), 2, 2),
    ((3, 1, 7, 5), 3, 2),
    ((4, 4, 6, 6), 2, 1),
]


def _im2col(x, kh, kw, stride, pad=0):
    """NCHW input -> ``(n·oh·ow, c·kh·kw)`` columns through the cached plan."""
    n, c, h, w = x.shape
    plan = _conv_plan(c, h, w, kh, kw, stride, pad)
    cols = plan.im2col(x.reshape(n, c * h * w))
    return cols.reshape(-1, c * kh * kw), plan.out_h, plan.out_w


def _col2im(cols, x_shape, kh, kw, stride, pad=0):
    """Column gradients -> NCHW input gradients through the cached plan
    (which reads them beside a ``+0.0`` sentinel column)."""
    n, c, h, w = x_shape
    plan = _conv_plan(c, h, w, kh, kw, stride, pad)
    rows = cols.reshape(n, plan.out_h * plan.out_w, c * kh * kw)
    dcols = np.concatenate([rows, np.zeros_like(rows[:, :, :1])], axis=2)
    return plan.col2im(dcols.reshape(n, -1)).reshape(x_shape)


def _cluster(backend, model_fn, n_workers, **kwargs):
    ds = make_gaussian_blobs(
        n_samples=40 * n_workers, n_features=F, n_classes=C, class_sep=2.0, rng=3
    )
    runtime = RuntimeSimulator(
        ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=n_workers, rng=0
    )
    return cluster_on(
        backend,
        n_shards=2,
        model_fn=model_fn,
        dataset=ds,
        runtime=runtime,
        n_workers=n_workers,
        batch_size=8,
        lr=0.05,
        momentum=0.9,
        weight_decay=1e-4,
        seed=17,
        **kwargs,
    )


class TestKernelPlanCache:
    """Cache hits must reproduce cold-build bytes exactly."""

    def test_im2col_cache_hit_matches_cold_bytes_across_geometries(self):
        rng = np.random.default_rng(0)
        inputs = [rng.normal(size=shape) for shape, _, _ in GEOMETRIES]

        clear_kernel_plan_cache()
        cold = [
            _im2col(x, k, k, s) for x, (_, k, s) in zip(inputs, GEOMETRIES)
        ]
        stats = kernel_plan_cache_stats()
        assert stats["conv_plans"] == len(GEOMETRIES)
        assert stats["misses"] == len(GEOMETRIES) and stats["hits"] == 0

        # Interleaved warm passes: every geometry again, reversed order, so
        # each lookup hits a cache shared with three other live plans.
        for x, (shape, k, s), (cols, oh, ow) in zip(
            reversed(inputs), reversed(GEOMETRIES), reversed(cold)
        ):
            warm_cols, warm_oh, warm_ow = _im2col(x, k, k, s)
            assert (warm_oh, warm_ow) == (oh, ow)
            np.testing.assert_array_equal(warm_cols, cols)
        stats = kernel_plan_cache_stats()
        assert stats["hits"] == len(GEOMETRIES)
        assert stats["conv_plans"] == len(GEOMETRIES)  # no duplicate entries

    def test_col2im_cache_hit_matches_cold_bytes(self):
        rng = np.random.default_rng(1)
        for shape, k, s in GEOMETRIES:
            x = rng.normal(size=shape)
            clear_kernel_plan_cache()
            cols, _, _ = _im2col(x, k, k, s)
            g = rng.normal(size=cols.shape)
            cold = _col2im(g, shape, k, k, s)  # plan cached by the im2col above
            clear_kernel_plan_cache()
            rebuilt = _col2im(g, shape, k, k, s)  # cold plan, scatter path rebuilt
            np.testing.assert_array_equal(rebuilt, cold)
            np.testing.assert_array_equal(_col2im(g, shape, k, k, s), cold)

    def test_stride_variants_of_one_shape_get_distinct_plans(self):
        clear_kernel_plan_cache()
        x = np.random.default_rng(2).normal(size=(2, 3, 9, 9))
        cols_s1, oh1, _ = _im2col(x, 3, 3, 1)
        cols_s2, oh2, _ = _im2col(x, 3, 3, 2)
        assert kernel_plan_cache_stats()["conv_plans"] == 2
        assert oh1 == 7 and oh2 == 4
        assert cols_s1.shape != cols_s2.shape


class TestFloat32Banks:
    """Opt-in reduced precision: real float32 storage, parity in tolerance."""

    def test_vectorized_float32_tracks_float64_reference(self):
        model_fn = _registry_model_fn("mlp")
        ref = _cluster("loop", model_fn, 4)
        f32 = _cluster("vectorized", model_fn, 4, bank_dtype="float32")
        for _ in range(3):
            ref.run_round(5)
            f32.run_round(5)
        (chunk,) = f32.backend.banks
        stored = next(iter(chunk.bank.params.values())).data
        assert stored.dtype == np.float32
        out = f32.synchronized_parameters
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref.synchronized_parameters, atol=1e-4)
        assert not np.array_equal(
            out.astype(np.float64), ref.synchronized_parameters
        ), "float32 run unexpectedly byte-identical — dtype knob not applied?"

    def test_sharded_float32_matches_vectorized_float32_exactly(self):
        model_fn = _registry_model_fn("mlp")
        vec = _cluster("vectorized", model_fn, 4, bank_dtype="float32")
        sh = _cluster("sharded", model_fn, 4, bank_dtype="float32")
        try:
            for _ in range(2):
                vec.run_round(4)
                sh.run_round(4)
            np.testing.assert_array_equal(
                vec.synchronized_parameters, sh.synchronized_parameters
            )
        finally:
            sh.close()

    def test_invalid_bank_dtype_rejected_by_config(self):
        from repro.experiments.configs import make_config

        with pytest.raises(ValueError, match="bank_dtype"):
            make_config("smoke", bank_dtype="float16").validate()


class TestBackendHandleReuse:
    """One pool across runs must not change a single byte."""

    def _run(self, backend, m=4, rounds=2):
        cluster = _cluster(backend, _registry_model_fn("mlp"), m)
        try:
            losses = [cluster.run_round(3) for _ in range(rounds)]
            params = cluster.synchronized_parameters
        finally:
            cluster.close()
        return losses, params

    def test_reused_pool_matches_fresh_pools_bytes(self):
        fresh_a = self._run("sharded")
        fresh_b = self._run("sharded", m=6)
        with BackendHandle("sharded", n_shards=2) as handle:
            reused_a = self._run(handle)
            pool = handle._pool
            assert pool is not None and not pool._closed, (
                "cluster.close() must not close a handle-owned pool"
            )
            # Worker count changes; the 2-process pool is rebuilt in place.
            reused_b = self._run(handle, m=6)
            assert handle._pool is pool, "pool respawned instead of reused"
        assert pool._closed, "handle exit must release the pool"

        for (fresh, reused) in ((fresh_a, reused_a), (fresh_b, reused_b)):
            assert fresh[0] == reused[0]
            np.testing.assert_array_equal(fresh[1], reused[1])

    def test_rebuild_refuses_shard_count_change(self):
        cluster = _cluster("sharded", _registry_model_fn("mlp"), 4)
        try:
            backend = cluster.backend
            ds = make_gaussian_blobs(n_samples=32, n_features=F, n_classes=C, rng=5)
            with pytest.raises(ValueError, match="cannot rebuild"):
                backend.rebuild(
                    _registry_model_fn("mlp"), [ds] * 4, n_shards=4
                )
        finally:
            cluster.close()

    def test_handle_spawns_fresh_pool_when_shard_count_differs(self):
        # m=4 over n_shards=2 needs a 2-process pool; m=1 clamps to a single
        # shard, so the handle must retire the old pool and spawn a new one
        # (pools cannot grow or shrink processes).
        with BackendHandle("sharded", n_shards=2) as handle:
            self._run(handle)
            first = handle._pool
            assert first is not None and first.pool_size == 2
            self._run(handle, m=1, rounds=1)
            assert handle._pool is not first, "mismatched pool must be retired"
            assert first._closed
            assert handle._pool.pool_size == 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
