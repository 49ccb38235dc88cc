"""Complexity guard of peer-name resolution (deterministic, no timing).

Every peer name the community beta table resolves goes through its
``ids`` index.  A round resolves its listed suppliers once (the columns
every consumer's score row reuses) and one name per arriving peer; its
match trusts and its witness answers take gids from the peer objects, so
they resolve no name.  The table applies queued writes before its next
read, so the subject names of a round's observations (two per record) are
resolved when the table is next read: by the round's witness answers when
witnesses are asked, else when the next round first reads.  That is
O(listings + exchanges) a round, where reading each consumer's row by name
cost consumers x listings.  The guard counts the names per round of sync
flash-crowd and sybil-coalition (4 witnesses) runs at N and 2N and pins the
count to at most that sum.
"""

from collections import Counter

import pytest

import repro.simulation.community as community_module
from repro.simulation.evidence import EvidencePlane
from repro.trust.storage import PeerIndex
from repro.workloads.registry import build_registered_scenario


def _count_names(monkeypatch, simulation):
    """Names resolved through the table's index, one bucket per round."""
    ids = simulation.beta_table.ids
    rounds = [0]

    def counting(method, names_of):
        original = vars(PeerIndex)[method]

        def wrapper(self, arg, *rest):
            if self is ids:
                rounds[-1] += names_of(arg)
            return original(self, arg, *rest)

        monkeypatch.setattr(PeerIndex, method, wrapper)

    for method in ("get", "intern"):
        counting(method, lambda name: 1)
    for method in ("intern_many", "lookup_many"):
        counting(method, len)
    original_advance = EvidencePlane.advance

    def advance(self, now):
        # Each round (and the run's end) starts with one advance.
        rounds.append(0)
        return original_advance(self, now)

    monkeypatch.setattr(EvidencePlane, "advance", advance)
    return rounds


@pytest.mark.parametrize(
    "scenario_name, witnesses",
    [("flash-crowd", 0), ("sybil-coalition", 4)],
)
@pytest.mark.parametrize("size", [24, 48])
def test_names_resolved_per_round_are_linear_in_listings_and_exchanges(
    monkeypatch, size, scenario_name, witnesses
):
    scenario = build_registered_scenario(scenario_name, size=size, rounds=4, seed=0)
    simulation = scenario.simulation()
    assert simulation.config.evidence_mode == "sync"
    assert simulation.config.witness_count == witnesses
    listings = []
    original_matching = community_module.trust_weighted_matching

    def recording_matching(consumer_ids, round_listings, scores, *args, **kwargs):
        listings.append((len(consumer_ids), len(round_listings)))
        return original_matching(consumer_ids, round_listings, scores, *args, **kwargs)

    monkeypatch.setattr(community_module, "trust_weighted_matching", recording_matching)
    names = _count_names(monkeypatch, simulation)
    result = simulation.run(collect_outcomes=True)

    per_round = names[1:-1]
    assert len(per_round) == len(listings) == 4
    records = Counter(
        outcome.timestamp for outcome in result.outcomes if outcome.record is not None
    )
    quadratic = 0
    for index, ((consumers, listed), resolved) in enumerate(zip(listings, per_round)):
        stats = result.rounds[index]
        arrivals = len(stats.churn.arrived) if stats.churn is not None else 0
        # With witnesses the round's own records settle in the round.
        settled = records[float(index if witnesses else index - 1)]
        bound = listed + arrivals + 2 * settled
        assert 0 < resolved <= bound
        quadratic += consumers * listed
    # The row reads by name the guard replaces would have cost far more.
    assert sum(per_round) < quadratic / 4
