"""Reputation management: collecting, storing and spreading behaviour data.

Implements the "reputation management" box of the paper's reference model
(Figure 1): interaction records, the P-Grid-backed complaint store, and
witness reporting.  Each simulated peer
(:class:`~repro.simulation.peer.CommunityPeer`) closes the feedback loop
between interactions and trust estimates itself, over its own trust
backends.
"""

from repro.reputation.records import InteractionRecord
from repro.reputation.reporting import (
    WitnessPool,
    collect_witness_reports,
    indirect_belief,
)
from repro.reputation.store import DistributedReputationStore

__all__ = [
    "InteractionRecord",
    "DistributedReputationStore",
    "WitnessPool",
    "collect_witness_reports",
    "indirect_belief",
]
