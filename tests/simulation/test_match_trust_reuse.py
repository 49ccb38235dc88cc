"""A round reads its match trusts in one batched call.

``_prepare_matches`` reads both directions of every match (the supplier's
trust in the consumer and the consumer's in the supplier) with one
``trust_in_pairs`` call.  That is only sound if every batched entry equals
the scalar read it replaces bit for bit, for every trust method, with
witness reports folded in or not, and if no evidence reaches any peer
between the matching and the batched read; both are pinned here, and so is
the scalar read the batch saves.
"""

from collections import Counter

import pytest

import repro.simulation.community as community_module
from repro.simulation.community import CommunitySimulation
from repro.simulation.evidence import EvidencePlane
from repro.simulation.peer import CommunityPeer, TrustMethod
from repro.workloads.registry import build_registered_scenario

# Evidence enters a peer only through these.
EVIDENCE_WRITES = [
    (CommunityPeer, "observe_outcomes"),
    (CommunityPeer, "file_complaint"),
    (CommunityPeer, "receive_witness_reports"),
    (EvidencePlane, "submit_records"),
    (EvidencePlane, "submit_complaint"),
    (EvidencePlane, "submit_block"),
    (EvidencePlane, "request_witness_reports"),
    (EvidencePlane, "advance"),
    (EvidencePlane, "ingest_entry"),
]


@pytest.mark.parametrize("witness_count", [0, 3])
@pytest.mark.parametrize("method", TrustMethod.ALL)
def test_batched_trusts_equal_the_scalar_reads_and_no_evidence_lands_between(
    monkeypatch, method, witness_count
):
    phase = {"matched": False}
    checked = Counter()
    original_build = CommunitySimulation._build_matches
    original_batch = community_module.trust_in_pairs

    def build(self, round_index):
        matches = original_build(self, round_index)
        phase["matched"] = True
        return matches

    def batch(observers, subject_ids, subject_gids, now=None, witnesses=False):
        assert phase["matched"]
        phase["matched"] = False
        assert witnesses == (witness_count > 0)
        trusts = original_batch(observers, subject_ids, subject_gids, now, witnesses)
        for observer, subject_id, trust in zip(observers, subject_ids, trusts):
            if witnesses:
                scalar = observer.trust_in_with_witnesses(subject_id, now=now)
                if method != TrustMethod.COMPLAINT and observer.witness_reports_about(
                    subject_id
                ):
                    checked["folded"] += 1
            else:
                scalar = observer.trust_in(subject_id, now=now)
            assert float(trust).hex() == scalar.hex()
            checked["reads"] += 1
        return trusts

    def guarded(original):
        def write(*args, **kwargs):
            assert not phase["matched"], "evidence written between match and read"
            checked["writes"] += 1
            return original(*args, **kwargs)

        return write

    monkeypatch.setattr(CommunitySimulation, "_build_matches", build)
    monkeypatch.setattr(community_module, "trust_in_pairs", batch)
    for owner, name in EVIDENCE_WRITES:
        monkeypatch.setattr(owner, name, guarded(vars(owner)[name]))

    # Mixed behaviours and malicious complaints, so every backend sees
    # failures and complaints as well as honest outcomes.
    scenario = build_registered_scenario(
        "collusive-witness", backend=method, size=24, rounds=6, seed=3,
        witness_count=witness_count,
    )
    simulation = scenario.simulation()
    assert simulation.config.matching == "trust"
    result = simulation.run()
    assert checked["reads"] == 2 * result.accounts.attempted > 0
    assert checked["writes"] > 0
    if witness_count and method != TrustMethod.COMPLAINT:
        assert checked["folded"] > 0


def test_a_sync_round_makes_no_scalar_trust_read(monkeypatch):
    reads = Counter()
    original_scalar = CommunityPeer.trust_in
    original_batch = community_module.trust_in_pairs

    def counting(self, partner_id, now=None):
        reads["trust_in"] += 1
        return original_scalar(self, partner_id, now=now)

    def batch(observers, *args, **kwargs):
        reads["batches"] += 1
        reads["rows"] += len(observers)
        return original_batch(observers, *args, **kwargs)

    monkeypatch.setattr(CommunityPeer, "trust_in", counting)
    monkeypatch.setattr(community_module, "trust_in_pairs", batch)
    scenario = build_registered_scenario("flash-crowd", size=30, rounds=3, seed=0)
    simulation = scenario.simulation()
    assert simulation.config.witness_count == 0
    result = simulation.run()
    # One batched read per round, both directions of every candidate.
    assert reads["trust_in"] == 0
    assert reads["batches"] == 3
    assert reads["rows"] == 2 * result.accounts.attempted > 0
