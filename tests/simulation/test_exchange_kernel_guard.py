"""Complexity guard of the exchange kernel (deterministic, no timing).

The round loop plans and executes every exchange from each sequence's cached
temptation profile.  It replays no ``ExchangeState`` at all, and it builds
each scheduled sequence's profile exactly once, although the planner reads
both maximum temptations and the executor reads every step.
"""

from collections import Counter

from repro.core.exchange import ExchangeSequence, ExchangeState
from repro.workloads.registry import build_registered_scenario


def test_round_loop_replays_no_states_and_builds_each_profile_once(monkeypatch):
    applies = Counter()
    builds = Counter()
    # Holds every counted sequence, so no two of them share an id().
    built = []
    original_apply = ExchangeState.apply
    original_profile = ExchangeSequence.profile.fget

    def counting_apply(self, action):
        applies["apply"] += 1
        return original_apply(self, action)

    def counting_profile(self):
        if self._profile is None:
            builds[id(self)] += 1
            built.append(self)
        return original_profile(self)

    monkeypatch.setattr(ExchangeState, "apply", counting_apply)
    monkeypatch.setattr(ExchangeSequence, "profile", property(counting_profile))

    scenario = build_registered_scenario(
        "sybil-coalition", size=20, rounds=4, seed=0
    )
    simulation = scenario.simulation()
    assert simulation.config.evidence_mode == "sync"
    result = simulation.run(collect_outcomes=True)

    scheduled = [outcome for outcome in result.outcomes if outcome.scheduled]
    assert scheduled
    assert applies["apply"] == 0
    assert all(builds[id(outcome.sequence)] == 1 for outcome in scheduled)
    assert max(builds.values()) == 1
