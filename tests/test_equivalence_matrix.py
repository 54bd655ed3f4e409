"""The consolidated loop↔bank↔sharded equivalence matrix.

One parametrized surface replaces the seeded-equivalence assertions that
previously lived scattered across ``test_backends.py`` and
``test_bank_full_coverage.py``: every ``MODELS`` registry entry (plus
batch-norm/dropout variants and the data-free quadratic objective) × every
non-reference backend, byte-compared against the loop reference
implementation — losses, stacked states, synchronized averages, eval losses,
and RNG stream positions.  The matrix itself (cases, cluster builder,
fingerprint) lives in ``tests/conftest.py``; adding a model or a backend
there extends this file automatically.
"""

from __future__ import annotations

import pytest

from repro.nn.layers import Linear
from tests.conftest import (
    BACKEND_TRANSPORTS,
    EQUIVALENCE_BACKENDS,
    EquivalenceCase,
    assert_fingerprints_identical,
    bank_layer_classes,
    build_equivalence_cluster,
    equivalence_cases,
    trajectory_fingerprint,
)

CASES = equivalence_cases()


def test_matrix_instantiates_every_bank_layer():
    """Every class in ``repro`` defining ``bank_forward`` runs in some matrix case.

    Walks the modules each case builds and collects the bank layers along
    each module's MRO; a layer that gains ``bank_forward`` without a
    workload in ``equivalence_cases()``, or one the cases stop reaching,
    is missing from that set.
    """
    bank_layers = bank_layer_classes()
    assert Linear in bank_layers  # the discovery itself works

    def walk(module):
        yield module
        for child in module._modules.values():
            yield from walk(child)

    instantiated = {
        klass
        for case in CASES
        for module in walk(case.model_fn())
        for klass in type(module).__mro__
        if klass in bank_layers
    }
    assert instantiated == bank_layers


@pytest.fixture(scope="module")
def loop_fingerprints():
    """Loop-reference fingerprints, computed once per workload."""
    cache: dict[str, dict] = {}

    def get(case: EquivalenceCase) -> dict:
        if case.id not in cache:
            cluster = build_equivalence_cluster(case, "loop")
            try:
                cache[case.id] = trajectory_fingerprint(cluster)
            finally:
                cluster.close()
        return cache[case.id]

    return get


@pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_backend_matches_loop_reference(case, backend, loop_fingerprints):
    cluster = build_equivalence_cluster(case, backend)
    real_backend, transport = BACKEND_TRANSPORTS.get(backend, (backend, "auto"))
    try:
        assert cluster.backend_name == real_backend
        if transport == "threads":
            assert (len(cluster.backend.banks), cluster.backend._threads) == (2, 2)
        elif transport != "auto":
            assert cluster.backend.transport == transport
        fingerprint = trajectory_fingerprint(cluster)
    finally:
        cluster.close()
    assert_fingerprints_identical(
        loop_fingerprints(case), fingerprint, f"{case.id} on {backend}"
    )


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_auto_resolves_to_a_bank_backend(case):
    """Every matrix workload runs auto → vectorized (the PR 4 contract)."""
    cluster = build_equivalence_cluster(case, "auto")
    try:
        assert cluster.backend_name == "vectorized", case.id
    finally:
        cluster.close()
