"""Golden oracle for the scenario table: every row builds and runs as recorded.

Each case builds one scenario through ``build_registered_scenario`` with the
row's own defaults (no backend, rebalance or witness override), runs it,
drains the evidence plane and hashes

* the resolved configuration: trust method, witness count, evidence mode,
  latency and repair, bundle size, matching, defection penalty, churn model,
  the shared store's deployment string, and every peer's id and behaviour;
* the run: per-round accounts, ledger balances, effective delivery and the
  final community size — the shape of perfbench's ``fingerprint``.

The digests were recorded before the scenario definitions moved into one
declared table, so they pin that the move changed no scenario.  Floats are
hashed at 12 significant digits: Python 3.12's compensated ``sum`` may move
a total by its last ulp, which is not a change of scenario.

``dishonest_fraction`` 0.9 drives every ``max(0.0, ...)`` clamp of the
population fractions to zero: three rows then build (their clamped
fractions sum to at most 1) and the rest are rejected, which is pinned
too.  Teamwork also runs at penalties 0 and 3, either side of its 2.0
floor.
"""

import hashlib
import json

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.registry import build_registered_scenario, scenario_names

SIZE = 10
ROUNDS = 4
SEED = 3

#: A case whose clamped fractions still sum past 1: the population rejects it.
REJECTED = "population fractions must sum to at most 1"

GOLDEN = {
    "ebay@0.2@0.0": "bb08432386c8f52a",
    "ebay@0.9@0.0": REJECTED,
    "p2p-file-trading@0.2@0.0": "682ede9ce22ce3e7",
    "p2p-file-trading@0.9@0.0": REJECTED,
    "teamwork@0.2@0.0": "3c19f5d232869bb0",
    "teamwork@0.9@0.0": REJECTED,
    "teamwork@0.2@3.0": "878f18974813030d",
    "teamwork@0.9@3.0": REJECTED,
    "high-churn@0.2@0.0": "17b6252cb683fb92",
    "high-churn@0.9@0.0": REJECTED,
    "collusive-witness@0.2@0.0": "faf5a644e4bb6e0b",
    "collusive-witness@0.9@0.0": "79502c6f94e93d68",
    "mixed-goods@0.2@0.0": "d88b4478f5b54be4",
    "mixed-goods@0.9@0.0": REJECTED,
    "sybil-coalition@0.2@0.0": "667d7738f7248e0c",
    "sybil-coalition@0.9@0.0": "8c43aa87df129ea2",
    "flash-crowd@0.2@0.0": "2611edc93f0f5a06",
    "flash-crowd@0.9@0.0": REJECTED,
    "partition-heal@0.2@0.0": "98dee160fd99ba06",
    "partition-heal@0.9@0.0": REJECTED,
    "fluctuating-behaviour@0.2@0.0": "ca27ae8e219f0f1b",
    "fluctuating-behaviour@0.9@0.0": "719a62740541765d",
}


def _canonical(value):
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _digest(name, dishonest_fraction, defection_penalty):
    scenario = build_registered_scenario(
        name,
        size=SIZE,
        rounds=ROUNDS,
        seed=SEED,
        dishonest_fraction=dishonest_fraction,
        defection_penalty=defection_penalty,
    )
    config = scenario.config
    churn = scenario.churn
    setup = {
        "trust_method": scenario.trust_method,
        "witness_count": config.witness_count,
        "evidence_mode": config.evidence_mode,
        "evidence_latency": config.evidence_latency,
        "evidence_repair": config.evidence_repair,
        "bundle_size": config.bundle_size,
        "matching": config.matching,
        "defection_penalty": config.defection_penalty,
        "churn": None if churn is None else sorted(vars(churn).items()),
        "store": scenario.complaint_store.describe_config(),
        "peers": [
            (peer.peer_id, type(peer.behavior).__name__, type(peer.witness_policy).__name__)
            for peer in scenario.peers
        ],
        "factory": scenario.peer_factory is not None,
    }
    simulation = scenario.simulation()
    result = simulation.run()
    simulation.evidence_plane.drain()
    state = {
        "setup": setup,
        "rounds": [sorted(vars(stats.accounts).items()) for stats in result.rounds],
        "balances": sorted(result.ledger.balances().items()),
        "effective_delivery": result.evidence_effective_delivery_ratio,
        "peers_final": len(simulation.peers),
    }
    payload = json.dumps(_canonical(state), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _cases():
    for key in GOLDEN:
        name, fraction, penalty = key.split("@")
        yield pytest.param(name, float(fraction), float(penalty), id=key)


@pytest.mark.parametrize("name,dishonest_fraction,defection_penalty", _cases())
def test_scenario_matches_recorded_digest(name, dishonest_fraction, defection_penalty):
    expected = GOLDEN[f"{name}@{dishonest_fraction}@{defection_penalty}"]
    if expected == REJECTED:
        with pytest.raises(WorkloadError, match=REJECTED):
            _digest(name, dishonest_fraction, defection_penalty)
    else:
        assert _digest(name, dishonest_fraction, defection_penalty) == expected


def test_golden_table_covers_every_scenario():
    recorded = {key.split("@")[0] for key in GOLDEN}
    assert recorded == set(scenario_names())
