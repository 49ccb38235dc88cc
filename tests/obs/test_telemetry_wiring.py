"""Telemetry wiring invariants: zero-cost `off`, and views == attributes.

Two regression surfaces:

* Enabling telemetry must be *invisible* to the simulation — byte-identical
  outcomes for every registry scenario, because the registry only ever
  observes (no RNG draws, no ordering changes).
* Registry views re-home existing ad-hoc counters without migrating them:
  the snapshot must agree exactly with the legacy attribute API.
"""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.trust import Complaint, ShardedBackend
from repro.workloads.registry import build_registered_scenario, scenario_names


def _fingerprint(name, telemetry, **params):
    scenario = build_registered_scenario(name, telemetry=telemetry, **params)
    result = scenario.simulation().run()
    trust = {
        peer.peer_id: sorted(peer.backend_for("beta").scores_snapshot().items())
        for peer in scenario.peers
    }
    complaints = sorted(
        (c.complainant_id, c.accused_id, float(c.timestamp))
        for c in scenario.complaint_store.all_complaints()
    )
    return (
        result.accounts.attempted,
        result.accounts.completion_rate,
        result.accounts.total_welfare,
        trust,
        complaints,
    )


class TestTelemetryOffIsBitIdentical:
    @pytest.mark.parametrize("name", scenario_names())
    def test_summary_registry_never_perturbs_a_run(self, name):
        params = {"size": 8, "rounds": 3, "seed": 7}
        baseline = _fingerprint(name, None, **params)
        instrumented = _fingerprint(name, MetricsRegistry(), **params)
        assert baseline == instrumented

    def test_async_gossip_run_is_identical_too(self):
        params = {
            "size": 10,
            "rounds": 3,
            "seed": 8,
            "evidence_mode": "async",
            "evidence_loss": 0.05,
            "evidence_repair": "gossip",
        }
        baseline = _fingerprint("partition-heal", None, **params)
        instrumented = _fingerprint(
            "partition-heal", MetricsRegistry(), **params
        )
        assert baseline == instrumented


class TestViewsEqualLegacyAttributes:
    def test_network_counters_view_matches_attributes(self):
        registry = MetricsRegistry()
        scenario = build_registered_scenario(
            "ebay",
            size=8,
            rounds=3,
            seed=1,
            evidence_mode="async",
            evidence_loss=0.05,
            telemetry=registry,
        )
        simulation = scenario.simulation()
        simulation.run()
        counters = simulation.evidence_plane.counters
        metrics = registry.snapshot()["metrics"]
        for attribute in (
            "sent",
            "delivered",
            "dropped",
            "entries_emitted",
            "entries_applied",
            "entries_expired",
            "duplicates_suppressed",
            "repair_messages",
        ):
            assert metrics["evidence." + attribute] == getattr(
                counters, attribute
            )

    def test_sharded_view_matches_rebalance_attributes(self):
        registry = MetricsRegistry()
        scenario = build_registered_scenario(
            "flash-crowd",
            size=12,
            rounds=4,
            seed=2,
            shards=2,
            rebalance="auto",
            rebalance_threshold=1.2,
            telemetry=registry,
        )
        scenario.simulation().run()
        store = scenario.complaint_store
        metrics = registry.snapshot()["metrics"]
        timings = registry.snapshot()["timings"]
        assert metrics["sharded.shards"] == store.num_shards
        assert metrics["sharded.rebalance_splits"] == len(
            store.rebalance_events
        )
        assert metrics["sharded.rebalance_rows_moved"] == sum(
            event.rows_moved for event in store.rebalance_events
        )
        assert timings["sharded.split_pause_seconds"] == (
            store.rebalance_seconds
        )
        for index, routed in enumerate(store.shard_update_counts):
            key = "sharded.shard_updates.{:04d}".format(index)
            assert metrics[key] == routed

    def test_audit_trail_view_matches_ledger(self):
        from repro.obs import EvidenceAuditTrail

        registry = MetricsRegistry()
        scenario = build_registered_scenario(
            "ebay",
            size=8,
            rounds=3,
            seed=4,
            evidence_mode="async",
            telemetry=registry,
        )
        simulation = scenario.simulation()
        trail = EvidenceAuditTrail()
        simulation.evidence_plane.attach_audit(trail)
        registry.add_view("audit", trail.metrics_view)
        simulation.run()
        simulation.evidence_plane.drain(max_ticks=200)
        counters = simulation.evidence_plane.counters
        metrics = registry.snapshot()["metrics"]
        assert metrics["audit.entries_emitted"] == counters.entries_emitted
        assert metrics["audit.entries_applied"] == counters.entries_applied
        assert metrics["audit.entries_expired"] == counters.entries_expired


class TestListingsLayer:
    """The round's listings have a span and a work counter of their own."""

    def test_snapshot_counts_every_sampled_row_under_one_span_per_round(self):
        registry = MetricsRegistry()
        scenario = build_registered_scenario(
            "flash-crowd", size=12, rounds=4, seed=3, telemetry=registry
        )
        simulation = scenario.simulation()
        sampled = []
        original = simulation._build_listings

        def counting_build(round_index):
            sampled.append(
                sum(peer.supplies_goods for peer in simulation.peers)
            )
            return original(round_index)

        simulation._build_listings = counting_build
        simulation.run()
        snapshot = registry.snapshot()
        assert snapshot["metrics"]["listings.bundles"] == sum(sampled) > 0
        assert snapshot["timings"]["listings.sample"]["count"] == 4

    def test_run_summary_shows_the_counter_and_the_span(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "run", "--scenario", "flash-crowd", "--size", "12",
                "--rounds", "3", "--seed", "3", "--telemetry", "summary",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "listings.bundles" in output
        assert "listings.sample" in output


class TestMatchingLayer:
    """The round's match scoring and selection have a span each, and the
    score read counts its cells and those filled from evidence."""

    def test_snapshot_counts_every_score_cell_under_one_span_each_per_round(self):
        import repro.simulation.community as community_module

        registry = MetricsRegistry()
        scenario = build_registered_scenario(
            "flash-crowd", size=12, rounds=4, seed=3, telemetry=registry
        )
        simulation = scenario.simulation()
        cells = []
        known = []
        original = community_module.trust_rows

        def counting_read(observers, names, *args, **kwargs):
            table = simulation.beta_table
            gids = table.columns(names).column_of
            known.append(
                sum(
                    subject in gids
                    for peer in observers
                    for subject in table._known.get(peer._gid, ([], []))[0]
                )
            )
            cells.append(len(observers) * len(names))
            return original(observers, names, *args, **kwargs)

        community_module.trust_rows = counting_read
        try:
            simulation.run()
        finally:
            community_module.trust_rows = original
        snapshot = registry.snapshot()
        assert snapshot["metrics"]["match.score_cells"] == sum(cells) > 0
        assert snapshot["metrics"]["match.known_cells"] == sum(known) > 0
        assert snapshot["timings"]["match.score"]["count"] == 4
        assert snapshot["timings"]["match.select"]["count"] == 4

    def test_run_summary_shows_the_counters_and_the_spans(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "run", "--scenario", "flash-crowd", "--size", "12",
                "--rounds", "3", "--seed", "3", "--telemetry", "summary",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in ("match.score_cells", "match.known_cells", "match.score", "match.select"):
            assert name in output


class TestExecutionLayer:
    """``exchange.steps`` counts the steps the round's exchanges executed
    and ``exchange.draws`` the execution stream's draws."""

    def test_counters_equal_the_wrapped_executor_work(self, monkeypatch):
        from repro.marketplace import protocol

        seen = {"steps": 0, "draws": 0}
        original = protocol.execute_many

        class CountingStream:
            def __init__(self, rng):
                self._rng = rng

            def random(self):
                seen["draws"] += 1
                return self._rng.random()

        def counting_execute(sequences, suppliers, consumers, rng, *args, **kwargs):
            results = original(
                sequences, suppliers, consumers, CountingStream(rng), *args, **kwargs
            )
            seen["steps"] += sum(
                len(sequence) if result.completed else result.defection_step + 1
                for sequence, result in zip(sequences, results)
            )
            return results

        monkeypatch.setattr(protocol, "execute_many", counting_execute)
        registry = MetricsRegistry()
        build_registered_scenario(
            "sybil-coalition", size=30, rounds=4, seed=5, telemetry=registry
        ).simulation().run()
        metrics = registry.snapshot()["metrics"]
        assert metrics["exchange.steps"] == seen["steps"] > 0
        assert metrics["exchange.draws"] == seen["draws"] > 0

    def test_run_summary_shows_both_counters(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "run", "--scenario", "flash-crowd", "--size", "12",
                "--rounds", "3", "--seed", "3", "--telemetry", "summary",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "exchange.steps" in output
        assert "exchange.draws" in output


class TestRunSummaryPrintsEveryMetric:
    def test_no_metric_is_cut_from_the_summary(self, capsys):
        from repro.cli import main

        registry = MetricsRegistry()
        build_registered_scenario(
            "flash-crowd", size=20, rounds=3, seed=0, telemetry=registry
        ).simulation().run()
        names = list(registry.snapshot()["metrics"])
        assert "sharded.write_batches" in names and len(names) > 12
        exit_code = main(
            [
                "run", "--scenario", "flash-crowd", "--size", "20",
                "--rounds", "3", "--seed", "0", "--telemetry", "summary",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        printed = {line.split()[0] for line in output.splitlines() if line.strip()}
        assert set(names) <= printed
        assert "more metrics" not in output


class TestWitnessCounters:
    """``evidence.witness_requests`` counts the rows asked (a witness is
    never asked about its own requester) and ``evidence.witness_reports``
    the reports that reached a requester's inbox."""

    def _run(self, monkeypatch, **params):
        from repro.simulation.evidence import EvidencePlane
        from repro.simulation.peer import CommunityPeer, WitnessQuestions

        seen = {"rows": 0, "reports": 0}
        request = EvidencePlane.request_witness_reports
        receive = CommunityPeer.receive_witness_reports

        def counting_request(self, rows):
            # The round asks its questions as one block of party columns.
            assert isinstance(rows, WitnessQuestions)
            seen["rows"] += int(np.count_nonzero(rows.requesters != rows.witnesses))
            return request(self, rows)

        def counting_receive(self, witness_id, reports, *rest):
            seen["reports"] += len(reports)
            return receive(self, witness_id, reports, *rest)

        monkeypatch.setattr(EvidencePlane, "request_witness_reports", counting_request)
        monkeypatch.setattr(CommunityPeer, "receive_witness_reports", counting_receive)
        registry = MetricsRegistry()
        scenario = build_registered_scenario(
            "sybil-coalition", size=30, rounds=4, seed=5, telemetry=registry,
            **params,
        )
        simulation = scenario.simulation()
        simulation.run()
        simulation.evidence_plane.drain()
        return registry.snapshot()["metrics"], seen

    @pytest.mark.parametrize("evidence_mode", ["sync", "async"])
    def test_counts_equal_the_rows_asked_and_reports_delivered(
        self, monkeypatch, evidence_mode
    ):
        params = {"evidence_mode": evidence_mode}
        if evidence_mode == "async":
            params.update(evidence_latency=0.5, evidence_loss=0.1)
        metrics, seen = self._run(monkeypatch, **params)
        assert metrics["evidence.witness_requests"] == seen["rows"] > 0
        assert metrics["evidence.witness_reports"] == seen["reports"] > 0
        assert seen["reports"] <= seen["rows"]

    def test_same_seed_runs_agree(self, monkeypatch):
        first, _ = self._run(monkeypatch)
        second, _ = self._run(monkeypatch)
        assert first["evidence.witness_requests"] == second["evidence.witness_requests"]
        assert first["evidence.witness_reports"] == second["evidence.witness_reports"]
        assert first == second


class TestComplaintWriteCounters:
    """``backend.complaint.update_batches`` tallies complaint writes where
    they are filed: one per shard written, one per sync round on a plain
    store.  A shard split and a re-sharded restore move complaints between
    shards, which is no write."""

    BURST = [
        Complaint(f"peer-{index:02d}", f"peer-{(index * 7 + 3) % 40:02d}", float(index))
        for index in range(60)
    ]

    @staticmethod
    def _writes(registry):
        metrics = registry.snapshot()["metrics"]
        histogram = metrics.get("backend.complaint.update_batch_size", {"count": 0})
        return metrics.get("backend.complaint.update_batches", 0), histogram["count"]

    def test_a_split_tallies_no_write(self):
        registry = MetricsRegistry()
        store = ShardedBackend(2, router="range")
        store.bind_telemetry(registry)
        store.record_complaints(self.BURST)
        written = self._writes(registry)
        homes = {
            store.shard_index_of(agent)
            for complaint in self.BURST
            for agent in (complaint.accused_id, complaint.complainant_id)
        }
        assert written == (len(homes), len(homes))
        updates = sum(store.shard_update_counts)
        store.split_shard(0)
        assert store.num_shards == 3
        assert self._writes(registry) == written
        assert sum(store.shard_update_counts) == updates

    def test_a_resharded_restore_tallies_no_write(self):
        source = ShardedBackend(2, router="range")
        source.record_complaints(self.BURST)
        registry = MetricsRegistry()
        target = ShardedBackend(3, router="ring")
        target.bind_telemetry(registry)
        target.restore(source.snapshot())
        assert self._writes(registry) == (0, 0)
        assert target.shard_update_counts == (0, 0, 0)
        peers = sorted({c.accused_id for c in self.BURST})
        assert target.scores_for(peers).tolist() == source.scores_for(peers).tolist()

    def test_a_sync_round_is_one_write_of_a_plain_store(self):
        registry = MetricsRegistry()
        scenario = build_registered_scenario(
            "sybil-coalition", size=30, rounds=4, seed=5, rebalance="off",
            telemetry=registry,
        )
        store = scenario.complaint_store
        assert not isinstance(store, ShardedBackend)
        scenario.simulation().run()
        batches, sizes = self._writes(registry)
        assert 0 < batches == sizes <= 4
        histogram = registry.snapshot()["metrics"]["backend.complaint.update_batch_size"]
        assert histogram["total"] == len(store.all_complaints())
