"""The scenario table: every runnable workload, declared once, built by one builder.

Each :class:`Scenario` row turns one of the application settings the paper's
introduction motivates (eBay auctions, P2P file trading, teamwork services)
or a stress variant of one into a community: its valuation workload, bundle
size and matching, its population mix, its churn process and its default
witness count, trust backend and shard rebalancing.
:func:`build_registered_scenario` builds any row by name; the exchange
strategy stays a parameter of :meth:`ScenarioSpec.simulation`, so every
scenario runs with the trust-aware approach and with every baseline, against
any trust backend (:data:`repro.simulation.peer.TrustMethod.ALL`).

Two scenarios carry code of their own: ``partition-heal`` cuts the evidence
network into two cliques for the first half of the run (and upgrades a sync
request to async with gossip repair), and ``sybil-coalition`` gives its
defectors the forged-vouching witness policy.

The CLI lists the table (``repro list-scenarios``) and builds rows by name
(``repro run --scenario <name> --backend <name>``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import WorkloadError
from repro.marketplace.strategy import ExchangeStrategy, TrustAwareStrategy
from repro.simulation.behaviors import CoalitionWitness, RationalDefectorBehavior
from repro.simulation.churn import ChurnModel
from repro.simulation.community import CommunityConfig, CommunitySimulation
from repro.simulation.evidence import COMPLAINT_SINK
from repro.simulation.peer import CommunityPeer, TrustMethod
from repro.trust import RebalancePolicy, TrustBackend, create_backend
from repro.workloads.populations import (
    PopulationSpec,
    build_population,
    population_factory,
)
from repro.workloads.valuations import valuation_workload

__all__ = [
    "Scenario",
    "SCENARIOS",
    "ScenarioSpec",
    "scenario_names",
    "build_registered_scenario",
]


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table.

    ``population(dishonest_fraction, rounds)`` returns the row's
    :class:`PopulationSpec` fields other than ``size``,
    ``dishonest_fraction``, ``defection_penalty`` and ``id_prefix``, which
    the builder fills in.  ``churn(size)``, when set, is the row's arrival
    and departure process.  ``witness_count``, ``backend`` and ``rebalance``
    are the defaults a caller's ``None`` resolves to.
    ``min_defection_penalty`` floors the caller's penalty (teamwork's
    ongoing collaborations carry a continuation value of at least 2).
    """

    summary: str
    tags: Tuple[str, ...]
    id_prefix: str
    valuation: str
    bundle_size: int
    matching: str
    population: Callable[[float, int], Mapping[str, float]]
    churn: Optional[Callable[[int], ChurnModel]] = None
    witness_count: int = 0
    backend: str = TrustMethod.BETA
    rebalance: str = "off"
    min_defection_penalty: Optional[float] = None


SCENARIOS: Dict[str, Scenario] = {
    "ebay": Scenario(
        summary="Physical big-ticket auction goods, random partner discovery.",
        tags=("paper", "auction"),
        id_prefix="ebay", valuation="ebay", bundle_size=5, matching="random",
        population=lambda d, rounds: dict(
            honest_fraction=max(0.0, 0.7 - d / 2),
            probabilistic_fraction=max(0.0, 0.3 - d / 2),
            false_complaint_probability=0.3,
        ),
    ),
    "p2p-file-trading": Scenario(
        summary="Digital goods for money in a P2P system, trust-weighted discovery.",
        tags=("paper", "digital"),
        id_prefix="p2p", valuation="digital", bundle_size=8, matching="trust",
        population=lambda d, rounds: dict(
            honest_fraction=0.6,
            probabilistic_fraction=max(0.0, 0.4 - d),
            probabilistic_honesty=0.9,
            false_complaint_probability=0.5,
        ),
    ),
    "teamwork": Scenario(
        summary="Service trades with continuation value (ongoing collaborations).",
        tags=("paper", "services"),
        id_prefix="team", valuation="teamwork", bundle_size=4, matching="trust",
        population=lambda d, rounds: dict(
            honest_fraction=max(0.0, 0.85 - d),
            opportunist_fraction=0.15,
            probabilistic_fraction=0.0,
            opportunist_threshold=8.0,
        ),
        min_defection_penalty=2.0,
    ),
    # Churn turnover keeps growing the interned id space; live shard
    # rebalancing is on by default so the partitions track it (splits are
    # score-invisible, so results are unchanged).
    "high-churn": Scenario(
        summary="Digital goods under constant arrival/departure; stale evidence "
        "stresses decay-weighted trust.",
        tags=("stress", "churn", "decay-backend", "rebalance"),
        id_prefix="churn", valuation="digital", bundle_size=6, matching="trust",
        population=lambda d, rounds: dict(
            honest_fraction=max(0.0, 0.65 - d / 2),
            probabilistic_fraction=max(0.0, 0.35 - d / 2),
            probabilistic_honesty=0.85,
            false_complaint_probability=0.3,
        ),
        churn=lambda size: ChurnModel(
            departure_probability=0.12,
            arrival_rate=max(1.0, size * 0.1),
            min_population=max(4, size // 3),
        ),
        rebalance="auto",
    ),
    # The malicious coalition bad-mouths honest partners after nearly every
    # successful interaction — the witness-pollution threat model of the
    # complaint-based scheme.
    "collusive-witness": Scenario(
        summary="Malicious coalition floods spurious complaints about honest "
        "peers; stresses complaint-based trust.",
        tags=("stress", "collusion", "complaint-backend"),
        id_prefix="collusion", valuation="ebay", bundle_size=5, matching="trust",
        population=lambda d, rounds: dict(
            honest_fraction=max(0.0, 1.0 - d - 0.1),
            probabilistic_fraction=0.1,
            probabilistic_honesty=0.9,
            false_complaint_probability=0.9,
        ),
    ),
    "mixed-goods": Scenario(
        summary="Marketplace mixing physical, digital and service valuations "
        "in every bundle.",
        tags=("stress", "marketplace", "heterogeneous"),
        id_prefix="mixed", valuation="mixed", bundle_size=6, matching="random",
        population=lambda d, rounds: dict(
            honest_fraction=max(0.0, 0.6 - d / 2),
            opportunist_fraction=0.1,
            probabilistic_fraction=max(0.0, 0.3 - d / 2),
            opportunist_threshold=6.0,
            false_complaint_probability=0.2,
        ),
    ),
    # A coalition of fake identities: they defect like rational cheaters,
    # flood complaints, and — the distinguishing attack — answer witness
    # requests with forged vouches for each other and bad-mouthing of
    # everyone else.  Witness polling is on by default so the discounted
    # aggregation path is actually exercised.
    "sybil-coalition": Scenario(
        summary="Fake-identity coalition vouches for itself via forged "
        "witness reports; stresses discounted witness aggregation.",
        tags=("stress", "sybil", "witness-plane", "evidence-plane"),
        id_prefix="sybil", valuation="digital", bundle_size=6, matching="trust",
        population=lambda d, rounds: dict(
            honest_fraction=max(0.0, 0.9 - d),
            probabilistic_fraction=0.1,
            probabilistic_honesty=0.9,
            false_complaint_probability=0.6,
        ),
        witness_count=4,
    ),
    # A stable community is swamped by bursts of unknown newcomers: far more
    # arrivals per round than high-churn, with mild departures, so the
    # population (and with it every backend's interned peer table) keeps
    # growing.  The growing id space is also the rebalancer's home turf:
    # hot shards split live as the crowd arrives.
    "flash-crowd": Scenario(
        summary="Burst arrivals of unknown peers swamp the community; "
        "stresses cold-start trust and live shard rebalancing.",
        tags=("stress", "churn", "cold-start", "sharding", "rebalance"),
        id_prefix="flash", valuation="digital", bundle_size=6, matching="trust",
        population=lambda d, rounds: dict(
            honest_fraction=max(0.0, 0.7 - d / 2),
            probabilistic_fraction=max(0.0, 0.3 - d / 2),
            probabilistic_honesty=0.8,
            false_complaint_probability=0.3,
        ),
        churn=lambda size: ChurnModel(
            departure_probability=0.04,
            arrival_rate=max(2.0, size * 0.35),
            min_population=max(4, size // 2),
        ),
        rebalance="auto",
    ),
    # Two cliques lose every cross-partition message for the first half of
    # the run, then the link heals (see ``_partition_fault``).
    "partition-heal": Scenario(
        summary="Community splits into two cliques with total cross-"
        "partition evidence loss, then heals; anti-entropy repair "
        "backfills the missed complaints and witness traffic.",
        tags=("stress", "partition", "repair", "evidence-plane"),
        id_prefix="heal", valuation="digital", bundle_size=6, matching="trust",
        population=lambda d, rounds: dict(
            honest_fraction=max(0.0, 0.7 - d / 2),
            probabilistic_fraction=max(0.0, 0.3 - d / 2),
            probabilistic_honesty=0.85,
            false_complaint_probability=0.4,
        ),
        witness_count=2,
        backend=TrustMethod.COMPLAINT,
    ),
    # The milking population: a block of peers behaves honestly long enough
    # to build reputation, then defects in a burst halfway through the run.
    # Decay-weighted trust must forget the good old evidence fast enough to
    # catch the turn.  The milking block yields to an extreme dishonest
    # fraction so the fractions never sum past 1.
    "fluctuating-behaviour": Scenario(
        summary="Milking attack: peers build reputation honestly, then "
        "defect in bursts; stresses decay-weighted forgetting against "
        "repaired-but-late evidence.",
        tags=("stress", "milking", "decay-backend"),
        id_prefix="milk", valuation="digital", bundle_size=5, matching="trust",
        population=lambda d, rounds: dict(
            honest_fraction=max(0.0, 0.75 - d),
            probabilistic_fraction=0.0,
            fluctuating_fraction=min(0.25, max(0.0, 1.0 - d)),
            fluctuating_later_honesty=0.05,
            fluctuating_switch_time=rounds * 0.5,
            false_complaint_probability=0.3,
        ),
        backend=TrustMethod.DECAY,
    ),
}


def scenario_names() -> Tuple[str, ...]:
    """Names of every scenario, in table order."""
    return tuple(SCENARIOS)


@dataclass
class ScenarioSpec:
    """Fully resolved scenario: peers plus configuration."""

    name: str
    peers: List[CommunityPeer]
    config: CommunityConfig
    complaint_store: TrustBackend
    trust_method: str = TrustMethod.BETA
    churn: Optional[ChurnModel] = None
    peer_factory: Optional[Callable[[int], CommunityPeer]] = None

    def simulation(self, strategy: Optional[ExchangeStrategy] = None) -> CommunitySimulation:
        """A community simulation of this scenario with the given strategy."""
        chosen = strategy if strategy is not None else TrustAwareStrategy()
        return CommunitySimulation(
            self.peers,
            chosen,
            self.config,
            churn=self.churn,
            peer_factory=self.peer_factory,
        )


def _partition_fault(size: int, rounds: int) -> Callable[[str, str, float], bool]:
    """``partition-heal``'s link fault: even and odd peers cut apart until half-time.

    The marketplace keeps trading across the split (partner discovery is
    not the evidence network), but complaints and witness traffic between
    the cliques are lost until the link heals.
    """
    heal_time = max(1.0, rounds / 2.0)
    cliques = {f"heal-{index:03d}": index % 2 for index in range(size)}
    # The community complaint store lives in clique 0: during the partition
    # clique-1 filings cannot reach it directly and must be repaired across
    # after heal.
    cliques[COMPLAINT_SINK] = 0

    def fault(sender: str, recipient: str, now: float) -> bool:
        side_a = cliques.get(sender)
        side_b = cliques.get(recipient)
        return (
            now < heal_time
            and side_a is not None
            and side_b is not None
            and side_a != side_b
        )

    return fault


def build_registered_scenario(
    name: str,
    size: int = 20,
    rounds: int = 40,
    dishonest_fraction: float = 0.2,
    defection_penalty: float = 0.0,
    seed: int = 0,
    backend: Optional[str] = None,
    evidence_mode: str = "sync",
    evidence_latency: float = 0.0,
    evidence_loss: float = 0.0,
    evidence_repair: str = "off",
    gossip_period: float = 1.0,
    gossip_fanout: int = 2,
    witness_count: Optional[int] = None,
    shards: int = 1,
    shard_router: str = "hash",
    rebalance: Optional[str] = None,
    rebalance_threshold: float = 2.0,
    max_shards: int = 16,
    telemetry: Optional[object] = None,
) -> ScenarioSpec:
    """Build the scenario table's row ``name``.

    ``backend``, ``witness_count`` and ``rebalance`` default (``None``) to
    the row's own setting.  The evidence knobs choose between the
    synchronous flush and asynchronous propagation over the simulated
    network (``evidence_mode``/``evidence_latency``/``evidence_loss``) and
    how lost evidence is repaired (``evidence_repair``/``gossip_period``/
    ``gossip_fanout``).  ``partition-heal`` is
    inherently asynchronous: a sync request is upgraded to async (latency
    1 unless given) and repair ``off`` to gossip, so anti-entropy can
    backfill the evidence the partition cut.

    ``shards``, ``shard_router``, ``rebalance``, ``rebalance_threshold`` and
    ``max_shards`` shape the community's shared complaint store only; each
    peer's own backends are always plain.  ``shards`` partitions the store
    by peer id; ``rebalance="auto"`` lets it split a shard live when the
    shard exceeds ``rebalance_threshold`` times the ideal share or
    outgrows a row capacity scaled to the community size, up to
    ``max_shards`` (a ``hash`` router is upgraded to the splittable
    ``ring``).  Sharding and splits never change a result.  ``telemetry``
    binds a :class:`repro.obs.MetricsRegistry` to the store and the run;
    it is purely observational.
    """
    row = SCENARIOS.get(name)
    if row is None:
        raise WorkloadError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        )
    if rebalance is None:
        rebalance = row.rebalance
    if shards < 1:
        raise WorkloadError(f"shards must be >= 1, got {shards}")
    if rebalance not in ("off", "auto"):
        raise WorkloadError(
            f"rebalance must be 'off' or 'auto', got {rebalance!r}"
        )
    if not 1.0 < rebalance_threshold < math.inf:
        raise WorkloadError(
            f"rebalance_threshold must be finite and > 1, got {rebalance_threshold}"
        )
    if max_shards < 1:
        raise WorkloadError(f"max_shards must be >= 1, got {max_shards}")
    trust_method = backend if backend is not None else row.backend
    if trust_method not in TrustMethod.ALL:
        raise WorkloadError(
            f"unknown trust backend {trust_method!r}; valid names: {TrustMethod.ALL}"
        )
    rebalance_policy: Optional[RebalancePolicy] = None
    if rebalance == "auto":
        if shard_router == "hash":
            # Modulo hashing cannot split without reassigning every key;
            # consistent hashing keeps hash-style assignment and splits
            # cleanly, so an auto-rebalanced run upgrades to it.
            shard_router = "ring"
        rebalance_policy = RebalancePolicy(
            threshold=rebalance_threshold,
            max_shards=max_shards,
            # The capacity bound bootstraps growth (a single shard has no
            # skew to measure) and tracks the community size so flash-crowd
            # arrivals actually trip it.
            split_rows=max(16, 2 * size),
            min_shard_rows=8,
            check_every=1,
        )
    # One vectorized complaint backend shared by the whole community is the
    # community complaint store: every peer writes and reads through it, so
    # counters are updated incrementally with no cache rebuilds.  It is the
    # only backend the sharding and rebalance knobs apply to.
    shared_store = create_backend(
        "complaint",
        metric_mode="balanced",
        shards=shards,
        router=shard_router,
        rebalance=rebalance_policy,
    )
    if telemetry is not None and getattr(telemetry, "enabled", False):
        shared_store.bind_telemetry(telemetry)

    if row.min_defection_penalty is not None:
        defection_penalty = max(defection_penalty, row.min_defection_penalty)
    try:
        spec = PopulationSpec(
            size=size,
            dishonest_fraction=dishonest_fraction,
            defection_penalty=defection_penalty,
            id_prefix=row.id_prefix,
            **row.population(dishonest_fraction, rounds),
        )
    except WorkloadError as error:
        raise WorkloadError(f"scenario {name!r}: {error}") from error
    evidence_fault: Optional[Callable[[str, str, float], bool]] = None
    if name == "partition-heal":
        if evidence_mode == "sync":
            evidence_mode = "async"
            if evidence_latency == 0.0:
                evidence_latency = 1.0
        if evidence_repair == "off":
            evidence_repair = "gossip"
        evidence_fault = _partition_fault(size, rounds)
    config = CommunityConfig(
        rounds=rounds,
        bundle_size=row.bundle_size,
        valuation_model=valuation_workload(row.valuation),
        matching=row.matching,
        defection_penalty=defection_penalty,
        seed=seed,
        evidence_mode=evidence_mode,
        evidence_latency=evidence_latency,
        evidence_loss=evidence_loss,
        evidence_repair=evidence_repair,
        gossip_period=gossip_period,
        gossip_fanout=gossip_fanout,
        evidence_fault=evidence_fault,
        witness_count=witness_count if witness_count is not None else row.witness_count,
        telemetry=telemetry,
    )
    peers = build_population(
        spec, complaint_store=shared_store, seed=seed, trust_method=trust_method
    )
    if name == "sybil-coalition":
        coalition_peers = [
            peer for peer in peers if isinstance(peer.behavior, RationalDefectorBehavior)
        ]
        coalition_ids = frozenset(peer.peer_id for peer in coalition_peers)
        for peer in coalition_peers:
            peer.witness_policy = CoalitionWitness(members=coalition_ids)
    factory = None
    if row.churn is not None:
        factory = population_factory(
            spec, complaint_store=shared_store, seed=seed, trust_method=trust_method
        )
    return ScenarioSpec(
        name=name,
        peers=peers,
        config=config,
        complaint_store=shared_store,
        trust_method=trust_method,
        churn=None if row.churn is None else row.churn(size),
        peer_factory=factory,
    )
