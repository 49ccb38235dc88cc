"""Trust learning: predicting partner behaviour from reputation evidence.

Two scalar reference models are provided, matching the two references the
paper points to for its assumed trust computation module:

* :class:`~repro.trust.beta.BetaTrustModel` — the Bayesian (beta-Bernoulli)
  model in the spirit of Mui et al. (HICSS 2002), and
* :class:`~repro.trust.complaint.ComplaintTrustModel` — the complaint-based
  P2P model of Aberer & Despotovic (CIKM 2001).

Production consumers go through the pluggable, vectorized
:class:`~repro.trust.backend.TrustBackend` layer instead (``beta``,
``complaint`` and ``decay`` backends with batched numpy updates); the scalar
models remain as the behavioural reference the backends are tested against.
"""

from repro.trust.backend import (
    BACKEND_NAMES,
    BetaTrustBackend,
    ComplaintTrustBackend,
    DecayTrustBackend,
    ScalarBetaBackendAdapter,
    TrustBackend,
    TrustObservation,
    backend_names,
    create_backend,
    register_backend,
)
from repro.trust.community import CommunityBetaTable, SubjectColumns
from repro.trust.aggregation import (
    WitnessReport,
    combine_beta_evidence,
    combine_beta_evidence_matrix,
    stack_witness_beliefs,
    validate_witness_matrix,
    witness_report_sums,
)
from repro.trust.beta import BetaBelief, BetaTrustModel
from repro.trust.complaint import (
    ComplaintAssessment,
    ComplaintCounts,
    ComplaintStore,
    ComplaintTrustModel,
    LocalComplaintStore,
    aggregate_witness_reports,
)
from repro.trust.decay import DecayModel, ExponentialDecay, NoDecay
from repro.trust.sharding import (
    ROUTER_NAMES,
    HashShardRouter,
    RangeShardRouter,
    RebalanceEvent,
    RebalancePolicy,
    RingShardRouter,
    ShardedBackend,
    ShardRouter,
    ShardSplitError,
    create_router,
)
from repro.trust.evidence import Complaint, InteractionOutcome, Observation
from repro.trust.metrics import (
    ClassificationReport,
    classification_report,
    mean_absolute_error,
)

__all__ = [
    # backend layer
    "TrustBackend",
    "TrustObservation",
    "BetaTrustBackend",
    "ComplaintTrustBackend",
    "DecayTrustBackend",
    "ScalarBetaBackendAdapter",
    "BACKEND_NAMES",
    "register_backend",
    "create_backend",
    "backend_names",
    # community table
    "CommunityBetaTable",
    "SubjectColumns",
    # sharding
    "ShardRouter",
    "HashShardRouter",
    "RangeShardRouter",
    "RingShardRouter",
    "ROUTER_NAMES",
    "create_router",
    "RebalancePolicy",
    "RebalanceEvent",
    "ShardSplitError",
    "ShardedBackend",
    # evidence
    "InteractionOutcome",
    "Observation",
    "Complaint",
    # decay
    "DecayModel",
    "NoDecay",
    "ExponentialDecay",
    # beta model
    "BetaBelief",
    "BetaTrustModel",
    # complaint model
    "ComplaintCounts",
    "ComplaintAssessment",
    "ComplaintStore",
    "LocalComplaintStore",
    "aggregate_witness_reports",
    "ComplaintTrustModel",
    # aggregation
    "WitnessReport",
    "combine_beta_evidence",
    "combine_beta_evidence_matrix",
    "stack_witness_beliefs",
    "witness_report_sums",
    "validate_witness_matrix",
    # metrics
    "mean_absolute_error",
    "ClassificationReport",
    "classification_report",
]
