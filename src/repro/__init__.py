"""Trust-Aware Cooperation — reproduction library.

A Python implementation of the trust-aware safe-exchange mechanism of
Despotovic, Aberer & Hauswirth (ICDCS 2002) together with every substrate the
paper depends on: Sandholm-style safe exchange planning, Bayesian and
complaint-based trust learning, decentralised (P-Grid style) reputation
storage, a round-based peer community simulator, a marketplace layer and
baseline exchange strategies.

Most users only need the re-exports below; the subpackages are:

``repro.core``
    Goods model, safety analysis, safe-exchange planner, trust-aware planner,
    decision making and price negotiation.
``repro.trust``
    Trust learning.  The pluggable layer is
    :mod:`repro.trust.backend` — a :class:`TrustBackend` interface with
    batched numpy updates (``update_many``) and vectorized queries
    (``scores_for``), three registered backends (``beta``, ``complaint``,
    ``decay``) and a factory registry.  The scalar models
    (:mod:`repro.trust.beta`, :mod:`repro.trust.complaint`) remain as the
    behavioural references the backends are property-tested against.
``repro.reputation``
    Reputation management: interaction records, the P-Grid-backed
    complaint store, and witness reporting.
``repro.pgrid``
    Decentralised binary-trie storage substrate for reputation data.
``repro.simulation``
    Community simulator: network, evidence plane, peers, behaviours,
    community.
    Each peer owns its trust backends (beta, complaint, lazy decay) and one
    trust-method dispatch over them; the community loop queues interaction
    outcomes per round and flushes them to each peer's backends in one batch
    per tick.
``repro.marketplace``
    Listings, matching, exchange execution with defection, accounting.
``repro.baselines``
    Non-trust-aware exchange strategies used for comparison.
``repro.workloads``
    Valuation and population generators, plus the scenario table
    (:mod:`repro.workloads.registry`) the CLI's ``list-scenarios`` /
    ``run`` / ``audit`` subcommands are driven by.
``repro.analysis``
    Summary statistics and table/series rendering.

Layering (arrows point at dependencies)::

    cli ─> workloads(registry) ─> simulation(peer) ─> trust.backend
     │           │                    │                    ^
     │           │                    └─> reputation ──────┘
     │           └─> marketplace ─> core
     └─> analysis                 pgrid <── reputation.store

``trust.backend`` is the narrow waist: every consumer above it — above all
the simulated peer, which holds its backends directly — reads and writes
trust through the backend interface, never through the scalar model
internals.
"""

from repro.core import (
    DecisionMaker,
    ExchangeAction,
    ExchangeRequirements,
    ExchangeSequence,
    ExchangeState,
    ExpectedLossBudgetPolicy,
    FractionalGainPolicy,
    Good,
    GoodsBundle,
    PartnerModel,
    PaymentPolicy,
    TrustAwareExchangePlanner,
    TrustAwarePlan,
    plan_exchange,
    plan_trust_aware_exchange,
    verify_sequence,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Good",
    "GoodsBundle",
    "ExchangeAction",
    "ExchangeState",
    "ExchangeSequence",
    "ExchangeRequirements",
    "PaymentPolicy",
    "plan_exchange",
    "verify_sequence",
    "DecisionMaker",
    "FractionalGainPolicy",
    "ExpectedLossBudgetPolicy",
    "PartnerModel",
    "TrustAwarePlan",
    "TrustAwareExchangePlanner",
    "plan_trust_aware_exchange",
]
