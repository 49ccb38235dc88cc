"""Named end-to-end scenarios: ready-to-run community simulations.

Each scenario corresponds to one of the application settings the paper's
introduction motivates (or a stress variant of one) and wires together a
valuation workload, a population composition, an optional churn process and a
community configuration.  The exchange strategy is left as a parameter so the
same scenario can be run with the trust-aware approach and with every
baseline, and the trust *backend* is a parameter too
(:data:`repro.trust.BACKEND_NAMES` plus ``combined``), so every scenario ×
backend pair is runnable.

The discoverable catalogue over these builders lives in
:mod:`repro.workloads.registry`; the CLI (``repro list-scenarios`` and
``repro run``) goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

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

__all__ = ["ScenarioSpec", "build_scenario", "SCENARIO_NAMES"]

SCENARIO_NAMES = (
    "ebay",
    "p2p-file-trading",
    "teamwork",
    "high-churn",
    "collusive-witness",
    "mixed-goods",
    "sybil-coalition",
    "flash-crowd",
    "partition-heal",
    "fluctuating-behaviour",
)


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


def _resolve_trust_method(backend: Optional[str]) -> str:
    method = backend if backend is not None else TrustMethod.BETA
    if method not in TrustMethod.ALL:
        raise WorkloadError(
            f"unknown trust backend {method!r}; valid names: {TrustMethod.ALL}"
        )
    return method


def build_scenario(
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
    retransmit_timeout: float = 2.0,
    witness_count: Optional[int] = None,
    shards: int = 1,
    shard_router: str = "hash",
    rebalance: str = "off",
    rebalance_threshold: float = 2.0,
    max_shards: int = 16,
    telemetry: Optional[object] = None,
) -> ScenarioSpec:
    """Construct one of the named scenarios.

    ``ebay`` — physical goods with big-ticket items, random discovery;
    ``p2p-file-trading`` — digital goods, cheap to produce, trust-weighted
    discovery; ``teamwork`` — services with weakly correlated valuations and
    a reputation continuation value (ongoing collaborations); ``high-churn``
    — digital goods under constant peer arrival/departure (stale-evidence
    stress, the decay backend's home turf); ``collusive-witness`` — a large
    malicious minority that coordinates spurious complaints against honest
    peers (the complaint backend's threat model); ``mixed-goods`` — a
    marketplace mixing physical, digital and service valuations in one
    bundle; ``sybil-coalition`` — a coalition of fake identities that vouch
    for each other through forged witness reports (the discounted
    witness-aggregation path's threat model).

    ``backend`` selects the trust backend every peer consults (``beta``,
    ``complaint``, ``decay`` or ``combined``; default ``beta``).  The
    evidence-plane knobs (``evidence_mode``/``evidence_latency``/
    ``evidence_loss``) choose between today's synchronous evidence flush and
    asynchronous propagation over the simulated network, and the repair
    knobs (``evidence_repair``/``gossip_period``/``gossip_fanout``/
    ``retransmit_timeout``) select how lost evidence is recovered;
    ``witness_count`` overrides how many witnesses each party polls after an
    exchange (``None`` keeps the scenario's own default — 0 everywhere
    except ``sybil-coalition`` and ``partition-heal``); ``flash-crowd`` — a
    stable community swamped by waves of unknown newcomers (cold-start
    trust and shard-rebalance stress); ``partition-heal`` — the community
    splits into two cliques with total cross-partition evidence loss for
    the first half of the run, then heals (inherently asynchronous: a sync
    request is upgraded to async with gossip repair so anti-entropy can
    backfill the missed evidence); ``fluctuating-behaviour`` — "milking"
    peers build reputation honestly then defect in bursts (the decay
    backend's forgetting against late evidence).

    The deployment knobs ``shards``, ``shard_router``, ``rebalance``,
    ``rebalance_threshold`` and ``max_shards`` shape the
    community's shared complaint store only; each peer's private beta,
    decay and complaint backends are always plain single-arena backends
    (they hold at most one row per community member).  ``shards``
    partitions the store by peer-id range across that many inner
    backends; results are bit-identical to ``shards=1``.
    ``rebalance="auto"`` additionally lets the store *split hot shards
    live* while the community runs (the P-Grid path-split under churn): a
    shard exceeding ``rebalance_threshold`` times the ideal per-shard share — or
    outgrowing an absolute per-shard row capacity scaled to the community
    size, which is how a single-shard run starts splitting at all — is
    snapshotted and its complaint log re-filed onto two successor shards, up
    to ``max_shards``.  Splitting needs a splittable router, so a ``hash``
    request is upgraded to ``ring`` (consistent hashing — same hash-style
    assignment, but a split moves only the hot shard's keys).  Splits are
    score-invisible: results stay bit-identical to an unsharded run
    before, during and after every split.
    ``telemetry`` binds a :class:`repro.obs.MetricsRegistry` to the shared
    complaint store and the community run (``None`` keeps the zero-cost
    null recorder); telemetry is purely observational and never changes a
    result.
    """
    if name not in SCENARIO_NAMES:
        raise WorkloadError(
            f"unknown scenario {name!r}; valid names: {SCENARIO_NAMES}"
        )
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
    trust_method = _resolve_trust_method(backend)
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
    scenario_witness_count = 0
    evidence_fault: Optional[Callable[[str, str, float], bool]] = None
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
    churn: Optional[ChurnModel] = None
    factory: Optional[Callable[[int], CommunityPeer]] = None

    if name == "ebay":
        spec = PopulationSpec(
            size=size,
            honest_fraction=max(0.0, 0.7 - dishonest_fraction / 2),
            dishonest_fraction=dishonest_fraction,
            probabilistic_fraction=max(0.0, 0.3 - dishonest_fraction / 2),
            false_complaint_probability=0.3,
            defection_penalty=defection_penalty,
            id_prefix="ebay",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=5,
            valuation_model=valuation_workload("ebay"),
            matching="random",
            defection_penalty=defection_penalty,
            seed=seed,
        )
    elif name == "p2p-file-trading":
        spec = PopulationSpec(
            size=size,
            honest_fraction=0.6,
            dishonest_fraction=dishonest_fraction,
            probabilistic_fraction=max(0.0, 0.4 - dishonest_fraction),
            probabilistic_honesty=0.9,
            false_complaint_probability=0.5,
            defection_penalty=defection_penalty,
            id_prefix="p2p",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=8,
            valuation_model=valuation_workload("digital"),
            matching="trust",
            defection_penalty=defection_penalty,
            seed=seed,
        )
    elif name == "teamwork":
        spec = PopulationSpec(
            size=size,
            honest_fraction=max(0.0, 0.85 - dishonest_fraction),
            dishonest_fraction=dishonest_fraction,
            opportunist_fraction=0.15,
            probabilistic_fraction=0.0,
            opportunist_threshold=8.0,
            defection_penalty=max(defection_penalty, 2.0),
            id_prefix="team",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=4,
            valuation_model=valuation_workload("teamwork"),
            matching="trust",
            defection_penalty=max(defection_penalty, 2.0),
            seed=seed,
        )
    elif name == "high-churn":
        spec = PopulationSpec(
            size=size,
            honest_fraction=max(0.0, 0.65 - dishonest_fraction / 2),
            dishonest_fraction=dishonest_fraction,
            probabilistic_fraction=max(0.0, 0.35 - dishonest_fraction / 2),
            probabilistic_honesty=0.85,
            false_complaint_probability=0.3,
            defection_penalty=defection_penalty,
            id_prefix="churn",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=6,
            valuation_model=valuation_workload("digital"),
            matching="trust",
            defection_penalty=defection_penalty,
            seed=seed,
        )
        churn = ChurnModel(
            departure_probability=0.12,
            arrival_rate=max(1.0, size * 0.1),
            min_population=max(4, size // 3),
        )
        factory = population_factory(
            spec,
            complaint_store=shared_store,
            seed=seed,
            trust_method=trust_method,
        )
    elif name == "collusive-witness":
        spec = PopulationSpec(
            size=size,
            honest_fraction=max(0.0, 1.0 - dishonest_fraction - 0.1),
            dishonest_fraction=dishonest_fraction,
            probabilistic_fraction=0.1,
            probabilistic_honesty=0.9,
            # The malicious coalition bad-mouths honest partners after nearly
            # every successful interaction — the witness-pollution threat
            # model of the complaint-based scheme.
            false_complaint_probability=0.9,
            defection_penalty=defection_penalty,
            id_prefix="collusion",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=5,
            valuation_model=valuation_workload("ebay"),
            matching="trust",
            defection_penalty=defection_penalty,
            seed=seed,
        )
    elif name == "sybil-coalition":
        # A coalition of fake identities: they defect like rational cheaters,
        # flood complaints, and — the distinguishing attack — answer witness
        # requests with forged vouches for each other and bad-mouthing of
        # everyone else.  Witness polling is on by default so the discounted
        # aggregation path is actually exercised.
        spec = PopulationSpec(
            size=size,
            honest_fraction=max(0.0, 0.9 - dishonest_fraction),
            dishonest_fraction=dishonest_fraction,
            probabilistic_fraction=0.1,
            probabilistic_honesty=0.9,
            false_complaint_probability=0.6,
            defection_penalty=defection_penalty,
            id_prefix="sybil",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=6,
            valuation_model=valuation_workload("digital"),
            matching="trust",
            defection_penalty=defection_penalty,
            seed=seed,
        )
        scenario_witness_count = 4
    elif name == "flash-crowd":
        # A stable community is swamped by bursts of unknown newcomers: far
        # more arrivals per round than the high-churn scenario, with mild
        # departures, so the population (and with it every backend's
        # interned peer table) keeps growing.  Stresses cold-start trust —
        # trust-weighted matching must keep discovering strangers — and, in
        # sharded runs, the routing of a constantly expanding peer-id space.
        spec = PopulationSpec(
            size=size,
            honest_fraction=max(0.0, 0.7 - dishonest_fraction / 2),
            dishonest_fraction=dishonest_fraction,
            probabilistic_fraction=max(0.0, 0.3 - dishonest_fraction / 2),
            probabilistic_honesty=0.8,
            false_complaint_probability=0.3,
            defection_penalty=defection_penalty,
            id_prefix="flash",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=6,
            valuation_model=valuation_workload("digital"),
            matching="trust",
            defection_penalty=defection_penalty,
            seed=seed,
        )
        churn = ChurnModel(
            departure_probability=0.04,
            arrival_rate=max(2.0, size * 0.35),
            min_population=max(4, size // 2),
        )
        factory = population_factory(
            spec,
            complaint_store=shared_store,
            seed=seed,
            trust_method=trust_method,
        )
    elif name == "partition-heal":
        # Two cliques (even/odd peer index) lose every cross-partition
        # message for the first half of the run, then the link heals.  The
        # marketplace keeps trading across the split (partner discovery is
        # not the evidence network), but complaints and witness traffic
        # between the cliques are cut — the paper's "the network can fail
        # arbitrarily" story made runnable.  The scenario is inherently
        # asynchronous: a sync request is upgraded to async with gossip
        # repair so anti-entropy can backfill the missed evidence once the
        # partition heals.
        spec = PopulationSpec(
            size=size,
            honest_fraction=max(0.0, 0.7 - dishonest_fraction / 2),
            dishonest_fraction=dishonest_fraction,
            probabilistic_fraction=max(0.0, 0.3 - dishonest_fraction / 2),
            probabilistic_honesty=0.85,
            false_complaint_probability=0.4,
            defection_penalty=defection_penalty,
            id_prefix="heal",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=6,
            valuation_model=valuation_workload("digital"),
            matching="trust",
            defection_penalty=defection_penalty,
            seed=seed,
        )
        scenario_witness_count = 2
        if evidence_mode == "sync":
            evidence_mode = "async"
            if evidence_latency == 0.0:
                evidence_latency = 1.0
        if evidence_repair == "off":
            evidence_repair = "gossip"
        heal_time = max(1.0, rounds / 2.0)
        cliques = {f"heal-{index:03d}": index % 2 for index in range(size)}
        # The community complaint store lives in clique 0: during the
        # partition clique-1 filings cannot reach it directly and must be
        # repaired across after heal.
        cliques[COMPLAINT_SINK] = 0

        def _partition_fault(
            sender: str,
            recipient: str,
            now: float,
            _cliques=cliques,
            _heal=heal_time,
        ) -> bool:
            side_a = _cliques.get(sender)
            side_b = _cliques.get(recipient)
            return (
                now < _heal
                and side_a is not None
                and side_b is not None
                and side_a != side_b
            )

        evidence_fault = _partition_fault
    elif name == "fluctuating-behaviour":
        # The ROADMAP's milking population: a block of peers behaves
        # honestly long enough to build reputation, then defects in a burst
        # halfway through the run.  Decay-weighted trust must forget the
        # good old evidence fast enough to catch the turn — which gets
        # strictly harder when repaired evidence arrives late.
        spec = PopulationSpec(
            size=size,
            honest_fraction=max(0.0, 0.75 - dishonest_fraction),
            dishonest_fraction=dishonest_fraction,
            probabilistic_fraction=0.0,
            # The milking block yields to an extreme --dishonest request so
            # the fractions can never sum past 1.
            fluctuating_fraction=min(0.25, max(0.0, 1.0 - dishonest_fraction)),
            fluctuating_later_honesty=0.05,
            fluctuating_switch_time=rounds * 0.5,
            false_complaint_probability=0.3,
            defection_penalty=defection_penalty,
            id_prefix="milk",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=5,
            valuation_model=valuation_workload("digital"),
            matching="trust",
            defection_penalty=defection_penalty,
            seed=seed,
        )
    else:  # mixed-goods
        spec = PopulationSpec(
            size=size,
            honest_fraction=max(0.0, 0.6 - dishonest_fraction / 2),
            dishonest_fraction=dishonest_fraction,
            opportunist_fraction=0.1,
            probabilistic_fraction=max(0.0, 0.3 - dishonest_fraction / 2),
            opportunist_threshold=6.0,
            false_complaint_probability=0.2,
            defection_penalty=defection_penalty,
            id_prefix="mixed",
        )
        config = CommunityConfig(
            rounds=rounds,
            bundle_size=6,
            valuation_model=valuation_workload("mixed"),
            matching="random",
            defection_penalty=defection_penalty,
            seed=seed,
        )

    config = replace(
        config,
        evidence_mode=evidence_mode,
        evidence_latency=evidence_latency,
        evidence_loss=evidence_loss,
        evidence_repair=evidence_repair,
        gossip_period=gossip_period,
        gossip_fanout=gossip_fanout,
        retransmit_timeout=retransmit_timeout,
        evidence_fault=evidence_fault,
        witness_count=(
            witness_count if witness_count is not None else scenario_witness_count
        ),
        telemetry=telemetry,
    )
    peers = build_population(
        spec,
        complaint_store=shared_store,
        seed=seed,
        trust_method=trust_method,
    )
    if name == "sybil-coalition":
        coalition_peers = [
            peer
            for peer in peers
            if isinstance(peer.behavior, RationalDefectorBehavior)
        ]
        coalition_ids = frozenset(peer.peer_id for peer in coalition_peers)
        for peer in coalition_peers:
            peer.witness_policy = CoalitionWitness(members=coalition_ids)
    return ScenarioSpec(
        name=name,
        peers=peers,
        config=config,
        complaint_store=shared_store,
        trust_method=trust_method,
        churn=churn,
        peer_factory=factory,
    )
