"""Complexity guard of match scoring (deterministic, no timing).

A sync round reads its consumers' trust in the listed suppliers with one
round-level read: no per-consumer ``CommunityPeer.trust_in_many`` call, and
one ``CommunityBetaTable.rows`` gather per beta table (a simulation keeps
one).  The cells that gather fills from first-hand evidence are bounded by
what the consumers know, not by consumers × listings: each cell needs a
known subject, and a peer takes part in at most two exchanges a round (once
as supplier, once as consumer), so it learns at most two subjects a round.
The guard reads the program's own ``match.*`` counters at 24 and 48 peers.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.simulation.community import CommunitySimulation
from repro.simulation.peer import CommunityPeer
from repro.trust import CommunityBetaTable
from repro.workloads.registry import build_registered_scenario

ROUNDS = 5


def _rounds(monkeypatch, scenario_name, size):
    """Per round: consumers, listings, calls made and counters moved while
    the round built its matches, and the consumers' known subjects."""
    registry = MetricsRegistry()
    simulation = build_registered_scenario(
        scenario_name, size=size, rounds=ROUNDS, seed=1, telemetry=registry
    ).simulation()
    assert simulation.config.evidence_mode == "sync"
    assert simulation.config.matching == "trust"
    calls = {"trust_in_many": 0, "rows": 0}
    listings = []  # columns of each rows call in the current round
    rounds = []
    original_trust_in_many = CommunityPeer.trust_in_many
    original_rows = CommunityBetaTable.rows
    original_build = CommunitySimulation._build_matches

    def counting_trust_in_many(self, *args, **kwargs):
        calls["trust_in_many"] += 1
        return original_trust_in_many(self, *args, **kwargs)

    def counting_rows(self, observers, columns):
        calls["rows"] += 1
        listings.append(len(columns))
        return original_rows(self, observers, columns)

    def build(self, round_index):
        metrics = registry.snapshot()["metrics"]
        before = (
            dict(calls),
            metrics.get("match.score_cells", 0),
            metrics.get("match.known_cells", 0),
        )
        listings.clear()
        matches = original_build(self, round_index)
        metrics = registry.snapshot()["metrics"]
        table = self.beta_table
        consumers = [peer for peer in self.peers if peer.consumes_goods]
        rounds.append(
            {
                "consumers": len(consumers),
                "listings": list(listings),
                "trust_in_many": calls["trust_in_many"] - before[0]["trust_in_many"],
                "rows": calls["rows"] - before[0]["rows"],
                "score_cells": metrics["match.score_cells"] - before[1],
                "known_cells": metrics["match.known_cells"] - before[2],
                "known_subjects": sum(
                    len(table._known.get(peer._gid, ((), ()))[0]) for peer in consumers
                ),
            }
        )
        return matches

    monkeypatch.setattr(CommunityPeer, "trust_in_many", counting_trust_in_many)
    monkeypatch.setattr(CommunityBetaTable, "rows", counting_rows)
    monkeypatch.setattr(CommunitySimulation, "_build_matches", build)
    result = simulation.run()
    assert result.accounts.attempted > 0
    return rounds


@pytest.mark.parametrize("scenario_name", ["flash-crowd", "sybil-coalition"])
def test_each_round_scores_with_one_gather_bounded_by_known_subjects(
    monkeypatch, scenario_name
):
    for size in (24, 48):
        rounds = _rounds(monkeypatch, scenario_name, size)
        monkeypatch.undo()
        assert len(rounds) == ROUNDS
        for index, stats in enumerate(rounds):
            assert stats["trust_in_many"] == 0
            assert stats["rows"] == 1
            (listing_count,) = stats["listings"]
            assert stats["score_cells"] == stats["consumers"] * listing_count
            assert stats["known_cells"] <= stats["known_subjects"]
            assert stats["known_subjects"] <= 2 * index * stats["consumers"]
        # Rounds after the first read some cells from evidence.
        assert sum(stats["known_cells"] for stats in rounds[1:]) > 0
