"""Complexity guard of trust-weighted matching (deterministic, no timing).

Each round the consumers' trust in the listed suppliers is read as one score
matrix: exactly one round-level ``trust_rows`` read, its observers the
round's consumers in order and its names every listing, and no per-consumer
``trust_in_many`` call.  Selection works on that matrix and never compares
``Listing`` objects (the old loop paid one dataclass ``__eq__`` per scan step
of ``list.remove``).

Rows scored and match weights are declared *quadratic*: their total is
Σ over rounds of consumers × listings, so it grows with the square of the
community size.  The guard pins them to exactly that sum, so any extra
per-pair work on top shows up as a count mismatch.
"""

from collections import Counter

import repro.simulation.community as community_module
from repro.marketplace.listing import Listing
from repro.simulation.peer import CommunityPeer
from repro.workloads.registry import build_registered_scenario


def test_one_score_row_per_consumer_and_no_listing_comparisons(monkeypatch):
    counts = Counter()
    scored = []  # (peer id, number of suppliers asked) since the last round
    rounds = []  # (consumer ids, listing count, score rows, weights) per round
    original_eq = Listing.__eq__
    original_trust_in_many = CommunityPeer.trust_in_many
    original_trust_rows = community_module.trust_rows
    original_matching = community_module.trust_weighted_matching

    def counting_eq(self, other):
        counts["listing_eq"] += 1
        return original_eq(self, other)

    def counting_trust_in_many(self, *args, **kwargs):
        counts["trust_in_many"] += 1
        return original_trust_in_many(self, *args, **kwargs)

    def recording_trust_rows(observers, names, *args, **kwargs):
        counts["trust_rows"] += 1
        scored.extend((peer.peer_id, len(names)) for peer in observers)
        return original_trust_rows(observers, names, *args, **kwargs)

    def recording_matching(consumer_ids, listings, scores, *args, **kwargs):
        rounds.append((list(consumer_ids), len(listings), list(scored), scores.size))
        scored.clear()
        return original_matching(consumer_ids, listings, scores, *args, **kwargs)

    monkeypatch.setattr(Listing, "__eq__", counting_eq)
    monkeypatch.setattr(CommunityPeer, "trust_in_many", counting_trust_in_many)
    monkeypatch.setattr(community_module, "trust_rows", recording_trust_rows)
    monkeypatch.setattr(community_module, "trust_weighted_matching", recording_matching)

    scenario = build_registered_scenario("flash-crowd", size=24, rounds=4, seed=0)
    simulation = scenario.simulation()
    assert simulation.config.evidence_mode == "sync"
    assert simulation.config.matching == "trust"
    result = simulation.run()

    assert result.accounts.attempted > 0
    assert counts["listing_eq"] == 0
    assert counts["trust_in_many"] == 0
    assert len(rounds) == counts["trust_rows"] == 4
    # The crowd arrives: later rounds match more consumers.
    assert len(rounds[-1][0]) > len(rounds[0][0])
    for consumer_ids, listing_count, rows, weights in rounds:
        assert [peer_id for peer_id, _ in rows] == consumer_ids
        assert all(asked == listing_count for _, asked in rows)
        assert weights == len(consumer_ids) * listing_count
    expected = sum(len(ids) * listing_count for ids, listing_count, _, _ in rounds)
    assert sum(asked for _, _, rows, _ in rounds for _, asked in rows) == expected
    assert sum(weights for _, _, _, weights in rounds) == expected
