"""Complexity guard of the exchange kernel (deterministic, no timing).

The round loop plans each round's schedules in one batch, which validates
them and builds their temptation profiles together as one block of arrays
per plan group, and then executes every exchange from those blocks.  It
replays no ``ExchangeState`` at all, never builds a profile one schedule at
a time, and builds and re-validates no ``ExchangeAction``, although the
decision gates read both maximum temptations and the executor reads every
step.  A scheduled sequence is a row of a batch-built block; its tuple
profile is built from that row on its first read, once.
"""

from collections import Counter

from repro.core.exchange import (
    ExchangeAction,
    ExchangeSequence,
    ExchangeState,
    TemptationProfile,
)
from repro.workloads.registry import build_registered_scenario


def test_round_loop_replays_no_states_and_builds_profiles_lazily_once(monkeypatch):
    calls = Counter()
    original_post_init = ExchangeAction.__post_init__
    original_validate = ExchangeSequence._validate
    batch_built = []
    original_apply = ExchangeState.apply
    original_build = TemptationProfile.build.__func__
    original_build_many = TemptationProfile.build_many.__func__

    def counting_apply(self, action):
        calls["apply"] += 1
        return original_apply(self, action)

    def counting_post_init(self):
        calls["action"] += 1
        original_post_init(self)

    def counting_validate(self):
        calls["validate"] += 1
        original_validate(self)

    def counting_build(cls, *args):
        calls["build"] += 1
        return original_build(cls, *args)

    def recording_build_many(cls, *args):
        block = original_build_many(cls, *args)
        batch_built.append(block)
        return block

    monkeypatch.setattr(ExchangeAction, "__post_init__", counting_post_init)
    monkeypatch.setattr(ExchangeSequence, "_validate", counting_validate)
    monkeypatch.setattr(ExchangeState, "apply", counting_apply)
    monkeypatch.setattr(TemptationProfile, "build", classmethod(counting_build))
    monkeypatch.setattr(
        TemptationProfile, "build_many", classmethod(recording_build_many)
    )

    scenario = build_registered_scenario(
        "sybil-coalition", size=20, rounds=4, seed=0
    )
    simulation = scenario.simulation()
    assert simulation.config.evidence_mode == "sync"
    result = simulation.run(collect_outcomes=True)

    scheduled = [outcome for outcome in result.outcomes if outcome.scheduled]
    assert scheduled
    assert calls["apply"] == 0
    assert calls["build"] == 0
    assert calls["action"] == 0
    assert calls["validate"] == 0
    built_ids = {id(block) for block in batch_built}
    assert len(built_ids) == len(batch_built)
    for outcome in scheduled:
        block, row = outcome.sequence.planned_row
        assert id(block) in built_ids
        profile = outcome.sequence.profile
        assert outcome.sequence.profile is profile
        assert profile == block.profile(row)
    assert calls["build"] == 0
