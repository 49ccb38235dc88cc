"""Compact storage across the whole stack: decisions never flip.

``--compact`` trades the float64 evidence layout for chunked float32 arrays,
so *scores* are only guaranteed to a documented tolerance — but the
acceptance bar for the million-peer fast path is that *decisions* (who
trades with whom, who defects, who is declined) are unchanged on every
registered scenario.  This suite runs each catalogue entry twice, compact
and default, and compares the economic outcome and the trust snapshots.
"""

import pytest

from repro.workloads import build_scenario, scenario_names

#: Beta-family scores under the compact layout stay within this absolute
#: distance of the float64 layout (mirrors the storage fast-path tests).
SCORE_TOLERANCE = 1e-5


def _run(name, compact, size=10, rounds=6, seed=3, **params):
    scenario = build_scenario(
        name, size=size, rounds=rounds, seed=seed, compact=compact, **params
    )
    simulation = scenario.simulation()
    result = simulation.run()
    method = "beta" if scenario.trust_method == "combined" else scenario.trust_method
    trust = {
        peer.peer_id: peer.backend_for(method).scores_snapshot()
        for peer in simulation.peers
    }
    return result, trust


@pytest.mark.parametrize("name", scenario_names())
def test_compact_decisions_match_default(name):
    baseline_result, baseline_trust = _run(name, compact=False)
    compact_result, compact_trust = _run(name, compact=True)

    # The decision plane is exact: the same exchanges complete, the same
    # candidates are declined, the same defections happen.
    assert baseline_result.accounts.attempted == compact_result.accounts.attempted
    assert baseline_result.accounts.completed == compact_result.accounts.completed
    assert baseline_result.accounts.declined == compact_result.accounts.declined
    assert baseline_result.accounts.defections == compact_result.accounts.defections
    assert baseline_result.total_welfare == compact_result.total_welfare

    # The score plane is tolerance-level: same peers known, scores within
    # the documented float32 accumulation bound.
    assert set(baseline_trust) == set(compact_trust)
    for peer_id, baseline_scores in baseline_trust.items():
        compact_scores = compact_trust[peer_id]
        assert set(baseline_scores) == set(compact_scores), peer_id
        for subject, score in baseline_scores.items():
            assert abs(score - compact_scores[subject]) <= SCORE_TOLERANCE, (
                peer_id,
                subject,
            )


@pytest.mark.parametrize("backend", ("beta", "complaint", "decay"))
def test_compact_composes_with_sharding(backend):
    """compact + shards together still leave decisions unchanged."""
    baseline_result, _ = _run(
        "p2p-file-trading", compact=False, backend=backend, shards=4
    )
    compact_result, _ = _run(
        "p2p-file-trading", compact=True, backend=backend, shards=4
    )
    assert baseline_result.accounts.completed == compact_result.accounts.completed
    assert baseline_result.accounts.declined == compact_result.accounts.declined
    assert baseline_result.accounts.defections == compact_result.accounts.defections
    assert baseline_result.total_welfare == compact_result.total_welfare
