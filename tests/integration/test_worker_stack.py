"""Worker distribution across the whole stack: scenarios, CLI knob, recovery.

Two acceptance bars.  First, ``--workers N`` is *invisible* end to end:
a scenario whose shared complaint store lives in worker processes produces
identical trust scores, decisions and economic outcomes to the in-process
run.  Second, the kill-and-recover drill: a worker SIGKILLed mid-run is
respawned from its last checkpoint manifest, the parent's journal
backfills the gap over gossip-style digests, ``effective_delivery_ratio``
returns to 1.0, and final scores and complaint counts are bit-identical
to a never-killed same-seed run.
"""

import os
import signal

import numpy as np

from repro.trust import TrustObservation, create_backend
from repro.workloads import build_scenario

PEERS = [f"peer-{index:03d}" for index in range(60)]


def _batches(seed, ticks=6, per_tick=150):
    rng = np.random.default_rng(seed)
    return [
        [
            TrustObservation(
                observer_id=str(rng.choice(PEERS)),
                subject_id=str(rng.choice(PEERS)),
                honest=bool(rng.integers(2)),
                timestamp=float(tick),
                files_complaint=(
                    bool(rng.integers(2)) if rng.integers(3) == 0 else None
                ),
            )
            for _ in range(per_tick)
        ]
        for tick in range(ticks)
    ]


class TestKillAndRecover:
    def test_sigkill_mid_run_heals_to_identical_state(self):
        batches = _batches(11)
        reference = create_backend("complaint", shards=3)
        for batch in batches:
            reference.update_many(batch)

        with create_backend(
            "complaint", shards=3, workers=True, recovery=True
        ) as backend:
            for batch in batches[:3]:
                backend.update_many(batch)
            backend.flush()
            backend.checkpoint()
            victim = backend.shards[2]
            os.kill(victim.runner.pid, signal.SIGKILL)
            victim.runner.join(10)
            # Writes routed to the dead worker accumulate in the journal.
            for batch in batches[3:]:
                backend.update_many(batch)
            assert backend.effective_delivery_ratio < 1.0
            healed = backend.heal_workers()
            assert healed == [2]
            backend.flush()
            assert backend.effective_delivery_ratio == 1.0
            assert np.array_equal(
                backend.scores_for(PEERS), reference.scores_for(PEERS)
            )
            assert backend.all_complaints() == reference.all_complaints()
            for peer in PEERS[:12]:
                assert backend.counts(peer) == reference.counts(peer)

    def test_second_kill_after_a_post_heal_checkpoint_heals_again(self):
        # Checkpoint -> kill -> heal, twice.  The second checkpoint must
        # record what each worker really holds by then: the healed worker
        # (replayed backfill included) and a worker checkpointed before,
        # or the second heal replays from a stale baseline.
        batches = _batches(14, ticks=8)
        reference = create_backend("complaint", shards=3)
        for batch in batches:
            reference.update_many(batch)
        with create_backend(
            "complaint", shards=3, workers=True, recovery=True
        ) as backend:
            # Batches [start, kill) land before the checkpoint, [kill, stop)
            # while the victims are down.
            for start, kill, stop, victims in (
                (0, 2, 4, [1]),
                (4, 5, 7, [1, 2]),
            ):
                for batch in batches[start:kill]:
                    backend.update_many(batch)
                backend.flush()
                backend.checkpoint()
                for index in victims:
                    victim = backend.shards[index]
                    os.kill(victim.runner.pid, signal.SIGKILL)
                    victim.runner.join(10)
                for batch in batches[kill:stop]:
                    backend.update_many(batch)
                assert backend.effective_delivery_ratio < 1.0
                assert backend.heal_workers() == victims
                backend.flush()
                assert backend.effective_delivery_ratio == 1.0
            for batch in batches[7:]:
                backend.update_many(batch)
            backend.flush()
            assert np.array_equal(
                backend.scores_for(PEERS), reference.scores_for(PEERS)
            )
            assert backend.all_complaints() == reference.all_complaints()
            for peer in PEERS[:12]:
                assert backend.counts(peer) == reference.counts(peer)

    def test_kill_before_any_checkpoint_recovers_from_journal_alone(self):
        batches = _batches(12)
        reference = create_backend("complaint", shards=2)
        for batch in batches:
            reference.update_many(batch)
        with create_backend(
            "complaint", shards=2, workers=True, recovery=True
        ) as backend:
            for batch in batches[:2]:
                backend.update_many(batch)
            backend.flush()
            victim = backend.shards[0]
            os.kill(victim.runner.pid, signal.SIGKILL)
            victim.runner.join(10)
            for batch in batches[2:]:
                backend.update_many(batch)
            backend.heal_workers()
            backend.flush()
            assert backend.effective_delivery_ratio == 1.0
            assert np.array_equal(
                backend.scores_for(PEERS), reference.scores_for(PEERS)
            )

    def test_heal_without_casualties_is_a_no_op(self):
        with create_backend(
            "complaint", shards=2, workers="loopback", recovery=True
        ) as backend:
            backend.update_many(_batches(13, ticks=1)[0])
            assert backend.heal_workers() == []
            assert backend.effective_delivery_ratio == 1.0


def _run_scenario(name, workers, backend="complaint", size=10, rounds=6):
    scenario = build_scenario(
        name, size=size, rounds=rounds, seed=7, backend=backend,
        shards=2, workers=workers,
    )
    simulation = scenario.simulation()
    result = simulation.run()
    trust = {
        peer.peer_id: peer.reputation.trust_snapshot(method=backend)
        for peer in simulation.peers
    }
    store = scenario.complaint_store
    complaints = store.all_complaints()
    if hasattr(store, "close"):
        store.close()
    return result, trust, complaints


class TestScenarioEquivalence:
    def test_worker_store_invisible_to_scenario_outcomes(self):
        baseline_result, baseline_trust, baseline_complaints = _run_scenario(
            "p2p-file-trading", workers=0
        )
        worker_result, worker_trust, worker_complaints = _run_scenario(
            "p2p-file-trading", workers=2
        )
        assert (
            baseline_result.accounts.completed
            == worker_result.accounts.completed
        )
        assert (
            baseline_result.accounts.defections
            == worker_result.accounts.defections
        )
        assert baseline_result.total_welfare == worker_result.total_welfare
        assert baseline_trust == worker_trust
        assert baseline_complaints == worker_complaints

    def test_worker_store_under_rebalance_matches(self):
        """flash-crowd defaults to rebalance=auto: splits become handoffs."""
        baseline_result, baseline_trust, _ = _run_scenario(
            "flash-crowd", workers=0, backend="beta"
        )
        worker_result, worker_trust, _ = _run_scenario(
            "flash-crowd", workers=2, backend="beta"
        )
        assert baseline_result.total_welfare == worker_result.total_welfare
        assert baseline_trust == worker_trust
