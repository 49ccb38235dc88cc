"""Reputation management: collecting, storing and spreading behaviour data.

Implements the "reputation management" box of the paper's reference model
(Figure 1): interaction records and ratings, local and P-Grid-backed stores,
and witness reporting.  Each simulated peer
(:class:`~repro.simulation.peer.CommunityPeer`) closes the feedback loop
between interactions and trust estimates itself, over its own trust
backends.
"""

from repro.reputation.records import InteractionRecord, Rating
from repro.reputation.reporting import (
    WitnessPool,
    collect_witness_reports,
    indirect_belief,
)
from repro.reputation.store import DistributedReputationStore, LocalReputationStore

__all__ = [
    "InteractionRecord",
    "Rating",
    "LocalReputationStore",
    "DistributedReputationStore",
    "WitnessPool",
    "collect_witness_reports",
    "indirect_belief",
]
