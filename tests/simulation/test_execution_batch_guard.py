"""Complexity guard of round-batched execution (deterministic, no timing).

A sync round executes and books its scheduled exchanges from the plan's
arrays: one ``execute_many`` call per round that schedules any, no tuple
``TemptationProfile``, no ``will_defect`` call and no ``LedgerEntry``.
The counts hold at two community sizes, so none of them grows per
exchange.
"""

from collections import Counter

import pytest

from repro.core.exchange import TemptationProfile
from repro.marketplace import protocol
from repro.marketplace.accounting import LedgerEntry
from repro.simulation.behaviors import BehaviorModel
from repro.workloads.registry import build_registered_scenario


def _counting(monkeypatch, calls, owner, name, key):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("name", ["flash-crowd", "sybil-coalition"])
@pytest.mark.parametrize("size", [24, 48])
def test_a_round_executes_in_one_batch_without_per_step_objects(
    monkeypatch, name, size
):
    calls = Counter()
    _counting(monkeypatch, calls, TemptationProfile, "__init__", "profiles")
    _counting(monkeypatch, calls, LedgerEntry, "__init__", "entries")
    _counting(monkeypatch, calls, BehaviorModel, "will_defect", "will_defect")
    _counting(monkeypatch, calls, protocol, "execute_many", "execute_many")

    scenario = build_registered_scenario(name, size=size, rounds=4, seed=0)
    simulation = scenario.simulation()
    assert simulation.config.evidence_mode == "sync"
    result = simulation.run()

    rounds_executing = sum(1 for stats in result.rounds if stats.accounts.executed)
    assert rounds_executing == len(result.rounds)
    assert result.accounts.executed > 0
    assert len(result.ledger) == 2 * result.accounts.executed
    assert calls["execute_many"] == rounds_executing
    assert calls["profiles"] == 0
    assert calls["entries"] == 0
    assert calls["will_defect"] == 0
