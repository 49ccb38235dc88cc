"""The consumer's trust read comes from the round's score matrix.

Under trust matching without witnesses, ``_prepare_match`` takes the
consumer's trust in its supplier from the consumer's row of the matrix the
matching just read, instead of a second scalar ``trust_in`` call.  That is
only sound if the two reads agree bit for bit for every trust method and if
no evidence reaches any peer between the matrix read and the preparation;
both are pinned here, and so is the saved scalar read.
"""

from collections import Counter

import pytest

from repro.simulation.community import CommunitySimulation
from repro.simulation.evidence import EvidencePlane
from repro.simulation.peer import CommunityPeer, TrustMethod
from repro.marketplace.strategy import TrustAwareStrategy
from repro.workloads.registry import build_registered_scenario

# Evidence enters a peer only through these.
EVIDENCE_WRITES = [
    (CommunityPeer, "observe_outcomes"),
    (CommunityPeer, "file_complaint"),
    (CommunityPeer, "receive_witness_reports"),
    (EvidencePlane, "submit_records"),
    (EvidencePlane, "submit_complaint"),
    (EvidencePlane, "request_witness_reports"),
    (EvidencePlane, "advance"),
    (EvidencePlane, "ingest_entry"),
]


@pytest.mark.parametrize("method", TrustMethod.ALL)
def test_matrix_entry_equals_the_scalar_read_and_no_evidence_lands_between(
    monkeypatch, method
):
    phase = {"matched": False}
    checked = Counter()
    original_build = CommunitySimulation._build_matches
    original_prepare = CommunitySimulation._prepare_match
    original_plan_many = TrustAwareStrategy.plan_many

    def build(self, round_index):
        matches = original_build(self, round_index)
        phase["matched"] = True
        return matches

    def prepare(self, consumer_id, listing, consumer_trust, timestamp):
        assert phase["matched"]
        if consumer_trust is not None:
            scalar = self.peer_by_id(consumer_id).trust_in(
                listing.supplier_id, now=timestamp
            )
            assert consumer_trust.hex() == scalar.hex()
            checked["reads"] += 1
        return original_prepare(self, consumer_id, listing, consumer_trust, timestamp)

    def plan_many(self, *args):
        phase["matched"] = False
        return original_plan_many(self, *args)

    def guarded(original):
        def write(*args, **kwargs):
            assert not phase["matched"], "evidence written between match and prepare"
            checked["writes"] += 1
            return original(*args, **kwargs)

        return write

    monkeypatch.setattr(CommunitySimulation, "_build_matches", build)
    monkeypatch.setattr(CommunitySimulation, "_prepare_match", prepare)
    monkeypatch.setattr(TrustAwareStrategy, "plan_many", plan_many)
    for owner, name in EVIDENCE_WRITES:
        monkeypatch.setattr(owner, name, guarded(vars(owner)[name]))

    # Mixed behaviours and malicious complaints, so every backend sees
    # failures and complaints as well as honest outcomes.
    scenario = build_registered_scenario(
        "collusive-witness", backend=method, size=24, rounds=6, seed=3,
        witness_count=0,
    )
    simulation = scenario.simulation()
    assert simulation.config.matching == "trust"
    simulation.run()
    assert checked["reads"] > 0
    assert checked["writes"] > 0


def test_consumer_trust_is_not_read_twice(monkeypatch):
    reads = Counter()
    original = CommunityPeer.trust_in

    def counting(self, partner_id, now=None):
        reads["trust_in"] += 1
        return original(self, partner_id, now=now)

    monkeypatch.setattr(CommunityPeer, "trust_in", counting)
    scenario = build_registered_scenario("flash-crowd", size=30, rounds=3, seed=0)
    simulation = scenario.simulation()
    assert simulation.config.witness_count == 0
    result = simulation.run()
    # One scalar read per candidate: the supplier's trust in the consumer.
    assert reads["trust_in"] == result.accounts.attempted
