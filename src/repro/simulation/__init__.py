"""Simulation of the peer community.

Contains a latency/loss network model with its own delivery queue, the
evidence plane that routes trust evidence over it, behaviour models (ground
truth), peers, churn, and the round-based community orchestration used by
the end-to-end experiments.
"""

from repro.simulation.behaviors import (
    BehaviorModel,
    CoalitionWitness,
    FluctuatingBehavior,
    HonestBehavior,
    OpportunisticBehavior,
    ProbabilisticBehavior,
    RationalDefectorBehavior,
    TruthfulWitness,
    WitnessReportPolicy,
)
from repro.simulation.churn import ChurnEvent, ChurnModel
from repro.simulation.evidence import EVIDENCE_MODES, EvidencePlane
from repro.simulation.community import (
    CommunityConfig,
    CommunityResult,
    CommunitySimulation,
    RoundStats,
)
from repro.simulation.network import (
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    Message,
    NetworkCounters,
    SimulatedNetwork,
)
from repro.simulation.peer import CommunityPeer
from repro.simulation.rng import RandomStreams

__all__ = [
    "RandomStreams",
    "Message",
    "LatencyModel",
    "FixedLatency",
    "ExponentialLatency",
    "NetworkCounters",
    "SimulatedNetwork",
    "EVIDENCE_MODES",
    "EvidencePlane",
    "BehaviorModel",
    "HonestBehavior",
    "RationalDefectorBehavior",
    "OpportunisticBehavior",
    "ProbabilisticBehavior",
    "FluctuatingBehavior",
    "WitnessReportPolicy",
    "TruthfulWitness",
    "CoalitionWitness",
    "CommunityPeer",
    "ChurnModel",
    "ChurnEvent",
    "CommunityConfig",
    "RoundStats",
    "CommunityResult",
    "CommunitySimulation",
]
