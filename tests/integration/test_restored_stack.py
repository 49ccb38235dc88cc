"""Snapshots across the whole stack: a restored backend answers identically.

Every registered scenario is run once; then every trust backend its peers
can read from — each peer's own beta and decay backends and the
community's shared complaint store — is snapshot and restored into a
freshly built backend of the same kind.  The restored backend must know the same
subjects and give bit-identical scores and trust decisions, because the
snapshot carries the evidence columns, the interned id table and the
scoring configuration in their canonical dtypes.  The sharded store is
pinned the same way under every router, restored into a store of another
shard count and router.
"""

import numpy as np
import pytest

from repro.simulation.peer import TrustMethod
from repro.trust import ROUTER_NAMES, ShardedBackend, create_backend
from repro.workloads import build_registered_scenario, scenario_names

#: Rounds each run lasts; trust is read at its end.
ROUNDS = 6


def _run(
    name, size=10, rounds=ROUNDS, seed=3, backend="beta", rebalance="off", **params
):
    scenario = build_registered_scenario(
        name,
        size=size,
        rounds=rounds,
        seed=seed,
        backend=backend,
        rebalance=rebalance,
        **params,
    )
    simulation = scenario.simulation()
    simulation.run()
    return scenario, simulation


def _assert_restores_identically(kind, backend, now):
    restored = create_backend(kind)
    restored.restore(backend.snapshot())
    assert restored.known_subjects() == backend.known_subjects()
    assert restored.scores_snapshot(now=now) == backend.scores_snapshot(now=now)
    queries = list(backend.known_subjects()) + ["stranger"]
    np.testing.assert_array_equal(
        restored.scores_for(queries, now=now), backend.scores_for(queries, now=now)
    )
    np.testing.assert_array_equal(
        restored.trust_decisions(queries, now=now),
        backend.trust_decisions(queries, now=now),
    )


@pytest.mark.parametrize("name", scenario_names())
def test_every_backend_of_a_finished_run_restores_identically(name):
    scenario, simulation = _run(name)
    now = float(ROUNDS)
    for peer in simulation.peers:
        for method in (TrustMethod.BETA, TrustMethod.DECAY):
            _assert_restores_identically(method, peer.backend_for(method), now)
    _assert_restores_identically("complaint", scenario.complaint_store, now)


@pytest.mark.parametrize("router", ROUTER_NAMES)
def test_sharded_store_restores_under_another_layout(router):
    scenario, _ = _run(
        "p2p-file-trading", backend="complaint", shards=4, shard_router=router
    )
    store = scenario.complaint_store
    assert store.num_shards == 4
    target = ShardedBackend(2, router="hash" if router != "hash" else "ring")
    target.restore(store.snapshot())
    subjects = sorted(store.known_subjects())
    assert subjects and sorted(target.known_subjects()) == subjects
    for subject in subjects:
        assert target.counts(subject) == store.counts(subject)
    queries = subjects + ["stranger"]
    np.testing.assert_array_equal(
        target.scores_for(queries), store.scores_for(queries)
    )
    np.testing.assert_array_equal(
        target.trust_decisions(queries), store.trust_decisions(queries)
    )
