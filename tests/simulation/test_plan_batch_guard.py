"""Complexity guard of round-batched planning (deterministic, no timing).

A sync round loop plans its candidates in exactly one ``plan_many`` call per
round that has any, and never takes the scalar reference path: no
``DecisionMaker.assess``/``decide`` call and no ``plan_exchange`` call.  The
``exchange.screened_out`` telemetry counter keeps counting the screen's
rejections only, not the decision declines after planning.  The
``exchange.planned``, ``exchange.steps`` and ``exchange.draws`` work
counters equal the schedules ``plan_many`` returned and the steps and
random draws of a reference step-by-step walk.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core import planner, trust_aware
from repro.marketplace import protocol
from repro.core.decision import DecisionMaker
from repro.marketplace.strategy import TrustAwareStrategy
from repro.obs.metrics import MetricsRegistry
from repro.workloads.registry import build_registered_scenario

SCENARIOS = [
    pytest.param("flash-crowd", dict(size=40, rounds=4), id="flash-crowd"),
    pytest.param("sybil-coalition", dict(size=30, rounds=4), id="sybil-coalition"),
]


def _forbid(monkeypatch, calls, owner, name):
    def forbidden(*args, **kwargs):
        calls[name] += 1
        raise AssertionError(f"scalar {name} called on the batched path")

    monkeypatch.setattr(owner, name, forbidden)


def _record_plan_many(monkeypatch):
    """Wrap plan_many; returns the list of (round, screened, planned) per call."""
    batches = []
    original = TrustAwareStrategy.plan_many

    def recording(self, bundles, prices, contexts):
        planned = original(self, bundles, prices, contexts)
        timestamps = {context.timestamp for context in contexts}
        assert len(timestamps) == 1
        batches.append((timestamps.pop(), planned.screened, list(planned)))
        return planned

    monkeypatch.setattr(TrustAwareStrategy, "plan_many", recording)
    return batches


@pytest.mark.parametrize("name, params", SCENARIOS)
def test_one_plan_many_call_per_round_and_no_scalar_planning(monkeypatch, name, params):
    calls = Counter()
    _forbid(monkeypatch, calls, DecisionMaker, "assess")
    _forbid(monkeypatch, calls, DecisionMaker, "decide")
    _forbid(monkeypatch, calls, planner, "plan_exchange")
    _forbid(monkeypatch, calls, planner, "build_sequence")
    _forbid(monkeypatch, calls, trust_aware, "plan_exchange")
    batches = _record_plan_many(monkeypatch)

    scenario = build_registered_scenario(name, seed=0, **params)
    simulation = scenario.simulation()
    assert simulation.config.evidence_mode == "sync"
    result = simulation.run()

    rounds_with_candidates = [
        float(stats.round_index) for stats in result.rounds if stats.accounts.attempted
    ]
    assert rounds_with_candidates
    assert [timestamp for timestamp, _, _ in batches] == rounds_with_candidates
    assert sum(len(planned) for _, _, planned in batches) == result.accounts.attempted
    assert not calls


@pytest.mark.parametrize("name", ["ebay", "teamwork"])
def test_screened_out_counts_screen_rejections_only(monkeypatch, name):
    batches = _record_plan_many(monkeypatch)
    registry = MetricsRegistry()
    scenario = build_registered_scenario(
        name, size=30, rounds=5, seed=0, telemetry=registry
    )
    scenario.simulation().run()

    screened_out = sum(int(np.count_nonzero(~screened)) for _, screened, _ in batches)
    declined = sum(
        sum(sequence is None for sequence in planned) for _, _, planned in batches
    )
    # Both kinds of decline happen in these runs, so a counter of every
    # decline would read more than the screen rejected.
    assert 0 < screened_out < declined
    metrics = registry.snapshot()["metrics"]
    assert metrics["exchange.screened_out"] == screened_out
    assert metrics["exchange.candidates"] == sum(len(p) for _, _, p in batches)


class _CountingRandom(random.Random):
    """A generator that counts its ``random()`` draws."""

    def __init__(self, state):
        super().__init__()
        self.setstate(state)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def _walk(sequence, supplier, consumer, rng, time):
    """A step-by-step walk: (result's stop, steps executed), asking each
    behaviour's ``will_defect`` at every step until one defects."""
    profile = sequence.profile
    for step, supplier_acts in enumerate(sequence.actors):
        behavior, temptation = (
            (supplier, profile.supplier_temptation[step])
            if supplier_acts
            else (consumer, profile.consumer_temptation[step])
        )
        if behavior.will_defect(temptation, 0.0, rng, time):
            return step, step + 1
    return None, len(sequence.actors)


@pytest.mark.parametrize("name", ["ebay", "sybil-coalition"])
def test_planned_steps_and_draws_counters_count_the_work(monkeypatch, name):
    """``exchange.steps`` and ``exchange.draws``, computed from the batch's
    stop columns, equal the steps and draws of a reference walk that
    replays each batch from the same generator state."""
    batches = _record_plan_many(monkeypatch)
    walked = Counter()
    original = protocol.execute_many

    def walking_execute(sequences, suppliers, consumers, rng, time=0.0, **kwargs):
        reference_rng = _CountingRandom(rng.getstate())
        stops = []
        for sequence, supplier, consumer in zip(sequences, suppliers, consumers):
            stop, steps = _walk(sequence, supplier, consumer, reference_rng, time)
            stops.append(stop)
            walked["steps"] += steps
        results = original(sequences, suppliers, consumers, rng, time, **kwargs)
        assert [result.defection_step for result in results] == stops
        assert rng.getstate() == reference_rng.getstate()
        walked["draws"] += reference_rng.draws
        return results

    monkeypatch.setattr(protocol, "execute_many", walking_execute)
    registry = MetricsRegistry()
    scenario = build_registered_scenario(
        name, size=30, rounds=4, seed=0, telemetry=registry
    )
    scenario.simulation().run()

    metrics = registry.snapshot()["metrics"]
    planned = sum(
        sum(sequence is not None for sequence in planned)
        for _, _, planned in batches
    )
    assert planned > 0 and walked["steps"] > planned
    assert metrics["exchange.planned"] == planned
    assert metrics["exchange.steps"] == walked["steps"]
    assert metrics["exchange.draws"] == walked["draws"]
