"""Round-based simulation of a trading community.

This is the end-to-end experiment harness: a population of peers with
heterogeneous behaviours repeatedly lists goods, discovers partners,
negotiates prices, schedules exchanges with a configurable strategy,
executes them (with possible defections), and feeds the outcomes back into
the reputation layer — the full loop of the paper's Figure 1.

The result object carries per-round and aggregate accounts (completion rate,
welfare, defection losses) plus the data needed to evaluate the trust models
against the peers' ground-truth honesty.

Trust evidence follows the batched backend data path: outcomes observed
during a round are queued and flushed in one ``update_many`` batch per peer
at the end of the round (the simulation's tick), instead of one callback per
interaction.  *How* those batches reach the backends is the
:class:`~repro.simulation.evidence.EvidencePlane`'s job: in ``sync`` mode
(the default) they are applied immediately — today's behaviour — while in
``async`` mode they travel as messages through the simulated network with
latency and loss, so trust state lags reality and may permanently miss
evidence.  Witness reports (second-hand evidence) ride the same plane when
``witness_count`` is enabled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.negotiation import split_surplus_price
from repro.core.valuation import MarginValuationModel, ValuationModel
from repro.exceptions import NegotiationError, SimulationError
from repro.marketplace.accounting import CommunityAccounts, Ledger
from repro.marketplace.listing import Listing
from repro.marketplace.matching import random_matching, trust_weighted_matching
from repro.marketplace.protocol import ExchangeOutcome, run_exchange
from repro.marketplace.strategy import ExchangeStrategy, StrategyContext
from repro.obs.metrics import NULL_REGISTRY
from repro.simulation.churn import ChurnEvent, ChurnModel
from repro.simulation.evidence import (
    EVIDENCE_MODES,
    EvidencePlane,
    require_async_knobs,
)
from repro.simulation.network import NetworkCounters
from repro.simulation.repair import REPAIR_POLICIES
from repro.simulation.peer import CommunityPeer
from repro.simulation.rng import RandomStreams
from repro.trust import CommunityBetaTable

__all__ = ["CommunityConfig", "RoundStats", "CommunityResult", "CommunitySimulation"]


@dataclass
class CommunityConfig:
    """Parameters of one community run (everything except peers and strategy)."""

    rounds: int = 50
    bundle_size: int = 4
    valuation_model: Optional[ValuationModel] = None
    supplier_surplus_share: float = 0.5
    matching: str = "random"  # "random" or "trust"
    defection_penalty: float = 0.0
    seed: int = 0
    #: How trust evidence propagates: "sync" applies each round's batches
    #: immediately (legacy behaviour); "async" routes them through the
    #: simulated network with latency/loss (the evidence plane).
    evidence_mode: str = "sync"
    #: Mean one-way evidence delay in rounds (async mode).
    evidence_latency: float = 0.0
    #: Per-message evidence drop probability in [0, 1) (async mode).
    evidence_loss: float = 0.0
    #: Witnesses each party asks about its partner after an exchange
    #: (0 disables witness reporting entirely).
    witness_count: int = 0
    #: Evidence repair policy: "off" (lost evidence stays lost),
    #: "retransmit" (ack + capped exponential backoff) or "gossip"
    #: (periodic anti-entropy digest exchange); async mode only.
    evidence_repair: str = "off"
    #: Ticks between anti-entropy rounds (gossip policy).
    gossip_period: float = 1.0
    #: Random partners each peer exchanges digests with per round (gossip).
    gossip_fanout: int = 2
    #: Initial ack deadline in ticks before an entry is re-sent (retransmit).
    retransmit_timeout: float = 2.0
    #: Optional link-fault predicate ``(sender, recipient, now) -> bool``;
    #: a faulted link drops deterministically (partition scenarios).
    evidence_fault: Optional[Callable[[str, str, float], bool]] = None
    #: Telemetry registry (:class:`repro.obs.MetricsRegistry`) the run
    #: reports into, or ``None`` for the zero-cost null recorder.  Purely
    #: observational: binding a registry never changes a result.
    telemetry: Optional[object] = None

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise SimulationError(f"rounds must be > 0, got {self.rounds}")
        if self.bundle_size <= 0:
            raise SimulationError(f"bundle_size must be > 0, got {self.bundle_size}")
        if not 0.0 <= self.supplier_surplus_share <= 1.0:
            raise SimulationError("supplier_surplus_share must lie in [0, 1]")
        if self.matching not in ("random", "trust"):
            raise SimulationError(
                f"matching must be 'random' or 'trust', got {self.matching!r}"
            )
        if not 0.0 <= self.defection_penalty < math.inf:
            raise SimulationError("defection_penalty must be finite and >= 0")
        if self.evidence_mode not in EVIDENCE_MODES:
            raise SimulationError(
                f"evidence_mode must be one of {EVIDENCE_MODES}, "
                f"got {self.evidence_mode!r}"
            )
        if not 0.0 <= self.evidence_latency < math.inf:
            raise SimulationError("evidence_latency must be finite and >= 0")
        if not 0.0 <= self.evidence_loss < 1.0:
            raise SimulationError("evidence_loss must lie in [0, 1)")
        if self.evidence_repair not in REPAIR_POLICIES:
            raise SimulationError(
                f"evidence_repair must be one of {REPAIR_POLICIES}, "
                f"got {self.evidence_repair!r}"
            )
        require_async_knobs(
            self.evidence_mode,
            delayed=self.evidence_latency > 0 or self.evidence_loss > 0,
            repaired=self.evidence_repair != "off"
            or self.evidence_fault is not None,
        )
        if not 0.0 < self.gossip_period < math.inf:
            raise SimulationError("gossip_period must be finite and > 0")
        if self.gossip_fanout < 1:
            raise SimulationError("gossip_fanout must be >= 1")
        if not 0.0 < self.retransmit_timeout < math.inf:
            raise SimulationError("retransmit_timeout must be finite and > 0")
        if self.witness_count < 0:
            raise SimulationError("witness_count must be >= 0")
        if self.valuation_model is None:
            self.valuation_model = MarginValuationModel(
                cost_low=1.0, cost_high=10.0, margin_low=-0.1, margin_high=0.6
            )


@dataclass(frozen=True)
class RoundStats:
    """Accounts of a single round."""

    round_index: int
    accounts: CommunityAccounts
    churn: Optional[ChurnEvent] = None

    @property
    def completion_rate(self) -> float:
        return self.accounts.completion_rate

    @property
    def welfare(self) -> float:
        return self.accounts.total_welfare


@dataclass
class CommunityResult:
    """Outcome of a full community run."""

    strategy_name: str
    accounts: CommunityAccounts
    rounds: List[RoundStats]
    ledger: Ledger
    true_honesty: Dict[str, float]
    outcomes: List[ExchangeOutcome] = field(default_factory=list)
    #: Evidence-plane traffic counters (``None`` for sync runs).
    evidence_counters: Optional[NetworkCounters] = None

    @property
    def evidence_delivery_ratio(self) -> float:
        """Fraction of evidence messages delivered (1.0 for sync runs)."""
        if self.evidence_counters is None:
            return 1.0
        return self.evidence_counters.delivery_ratio

    @property
    def evidence_effective_delivery_ratio(self) -> float:
        """Post-repair fraction of evidence entries applied (1.0 for sync).

        The counters object is shared with the live plane, so draining the
        plane after the run (``simulation.evidence_plane.drain()``) is
        reflected here.
        """
        if self.evidence_counters is None:
            return 1.0
        return self.evidence_counters.effective_delivery_ratio

    @property
    def completion_rate(self) -> float:
        return self.accounts.completion_rate

    @property
    def total_welfare(self) -> float:
        return self.accounts.total_welfare

    @property
    def victim_losses(self) -> float:
        return self.accounts.victim_losses

    def welfare_series(self) -> List[float]:
        """Per-round realised welfare (for the dynamics figure)."""
        return [round_stats.accounts.total_welfare for round_stats in self.rounds]

    def completion_series(self) -> List[float]:
        """Per-round completion rate."""
        return [round_stats.completion_rate for round_stats in self.rounds]

    def honest_peer_ids(self, honesty_threshold: float = 0.99) -> List[str]:
        """Peers whose ground-truth honesty is at least the threshold."""
        return [
            peer_id
            for peer_id, honesty in self.true_honesty.items()
            if honesty >= honesty_threshold
        ]

    def honest_welfare(self, honesty_threshold: float = 0.99) -> float:
        """Cumulative realised payoff of the honest peers.

        This is the headline comparison metric of the strategy experiments:
        naive strategies realise a lot of raw surplus but hand much of it to
        defectors, which shows up here as losses of the honest population.
        """
        return sum(
            self.ledger.balance(peer_id)
            for peer_id in self.honest_peer_ids(honesty_threshold)
        )

    def honest_losses(self, honesty_threshold: float = 0.99) -> float:
        """Losses honest peers suffered as victims of defection."""
        losses = self.ledger.victim_losses_by_agent()
        return sum(
            losses.get(peer_id, 0.0)
            for peer_id in self.honest_peer_ids(honesty_threshold)
        )


class CommunitySimulation:
    """Runs a strategy over a community of peers for a number of rounds."""

    def __init__(
        self,
        peers: Sequence[CommunityPeer],
        strategy: ExchangeStrategy,
        config: Optional[CommunityConfig] = None,
        churn: Optional[ChurnModel] = None,
        peer_factory: Optional[Callable[[int], CommunityPeer]] = None,
    ):
        if len(peers) < 2:
            raise SimulationError("a community needs at least two peers")
        self._peers: List[CommunityPeer] = list(peers)
        self._strategy = strategy
        self._config = config if config is not None else CommunityConfig()
        self._churn = churn
        self._peer_factory = peer_factory
        if self._churn is not None and self._churn.arrival_rate > 0 and peer_factory is None:
            raise SimulationError(
                "churn with arrivals requires a peer_factory to build new peers"
            )
        self._streams = RandomStreams(self._config.seed)
        #: Peers churned out of the community, retained for end-of-run
        #: introspection (the audit counts the evidence their backends
        #: absorbed before they left).
        self._departed_peers: List[CommunityPeer] = []
        #: ``peer_id -> peer`` for :meth:`peer_by_id`, built on first use
        #: and dropped whenever churn changes the population.
        self._peer_index: Optional[Dict[str, CommunityPeer]] = None
        self._evidence = EvidencePlane(
            mode=self._config.evidence_mode,
            latency=self._config.evidence_latency,
            loss=self._config.evidence_loss,
            rng=self._streams("evidence-network"),
            repair=self._config.evidence_repair,
            gossip_period=self._config.gossip_period,
            gossip_fanout=self._config.gossip_fanout,
            retransmit_timeout=self._config.retransmit_timeout,
            repair_rng=self._streams("evidence-repair"),
            fault=self._config.evidence_fault,
        )
        telemetry = self._config.telemetry
        self._telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._evidence.bind_telemetry(self._telemetry)
        self._beta = CommunityBetaTable()
        for peer in self._peers:
            self._register(peer)

    def _register(self, peer: CommunityPeer) -> None:
        """Join the peer to the community beta table and the evidence plane."""
        peer.join_table(self._beta)
        self._evidence.register_peer(peer)

    # ------------------------------------------------------------------
    @property
    def peers(self) -> List[CommunityPeer]:
        return self._peers

    @property
    def departed_peers(self) -> List[CommunityPeer]:
        """Peers removed by churn during the run (in departure order)."""
        return self._departed_peers

    @property
    def config(self) -> CommunityConfig:
        return self._config

    @property
    def evidence_plane(self) -> EvidencePlane:
        return self._evidence

    @property
    def beta_table(self) -> CommunityBetaTable:
        """Every member's beta evidence, keyed by dense peer gids."""
        return self._beta

    def peer_by_id(self, peer_id: str) -> CommunityPeer:
        try:
            return self._index_peers()[peer_id]
        except KeyError:
            raise SimulationError(f"unknown peer {peer_id!r}") from None

    def _index_peers(self) -> Dict[str, CommunityPeer]:
        if self._peer_index is None:
            self._peer_index = {peer.peer_id: peer for peer in self._peers}
        return self._peer_index

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, collect_outcomes: bool = False) -> CommunityResult:
        """Execute the configured number of rounds and return the result."""
        total_accounts = CommunityAccounts()
        round_stats: List[RoundStats] = []
        ledger = Ledger()
        outcomes: List[ExchangeOutcome] = []

        for round_index in range(self._config.rounds):
            timestamp = float(round_index)
            # Deliver evidence that has matured by this round *before* any
            # decision reads trust state; what is still in flight stays
            # invisible (that is the staleness being modelled).
            self._evidence.advance(timestamp)
            churn_event = self._apply_churn(round_index)
            round_accounts = CommunityAccounts()
            matches = self._build_matches(round_index)
            round_outcomes = self._execute_matches(matches, timestamp)
            for outcome in round_outcomes:
                if outcome.scheduled and outcome.result is not None:
                    round_accounts.record_executed(outcome.result)
                    ledger.record(
                        outcome.result,
                        supplier_id=outcome.supplier_id,
                        consumer_id=outcome.consumer_id,
                        timestamp=timestamp,
                    )
                else:
                    round_accounts.record_declined()
                if collect_outcomes:
                    outcomes.append(outcome)
            self._flush_observations(round_outcomes, timestamp)
            total_accounts = total_accounts.merge(round_accounts)
            round_stats.append(
                RoundStats(
                    round_index=round_index,
                    accounts=round_accounts,
                    churn=churn_event,
                )
            )

        # The simulation horizon is `rounds`: evidence maturing within it is
        # delivered before the result is read; slower messages stay in
        # flight (and count against the delivery ratio).
        self._evidence.advance(float(self._config.rounds))
        true_honesty = {peer.peer_id: peer.true_honesty for peer in self._peers}
        counters = self._evidence.counters
        return CommunityResult(
            strategy_name=self._strategy.describe(),
            accounts=total_accounts,
            rounds=round_stats,
            ledger=ledger,
            true_honesty=true_honesty,
            outcomes=outcomes,
            evidence_counters=counters,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_churn(self, round_index: int) -> Optional[ChurnEvent]:
        if self._churn is None or not self._churn.is_active:
            return None
        factory = self._peer_factory or (lambda _index: None)  # pragma: no cover
        # ``apply`` removes departed peers from ``self._peers``; the index of
        # the population before churn still resolves them until it is dropped.
        self._index_peers()
        event = self._churn.apply(
            self._peers, round_index, self._streams("churn"), factory
        )
        for peer_id in event.departed:
            self._departed_peers.append(self.peer_by_id(peer_id))
            self._evidence.unregister_peer(peer_id)
        self._peer_index = None
        arrived = set(event.arrived)
        for peer in self._peers:
            if peer.peer_id in arrived:
                self._register(peer)
        return event

    def _build_listings(self, round_index: int) -> List[Listing]:
        rng = self._streams("valuations")
        listings: List[Listing] = []
        for peer in self._peers:
            if not peer.supplies_goods:
                continue
            assert self._config.valuation_model is not None
            bundle = self._config.valuation_model.sample_bundle(
                rng, self._config.bundle_size, prefix=f"{peer.peer_id}-r{round_index}"
            )
            if len(bundle) == 0 or not bundle.is_rational_trade:
                continue
            listings.append(
                Listing.create(
                    supplier_id=peer.peer_id,
                    bundle=bundle,
                    created_at=float(round_index),
                )
            )
        return listings

    def _build_matches(
        self, round_index: int
    ) -> List[Tuple[str, Listing, Optional[float]]]:
        """The round's ``(consumer_id, listing, consumer_trust)`` matches.

        Under trust matching ``consumer_trust`` is the consumer's entry in
        the round's score matrix, its trust in the listing's supplier now;
        random matching reads no trust and leaves it ``None``.
        """
        listings = self._build_listings(round_index)
        consumers = [peer for peer in self._peers if peer.consumes_goods]
        consumer_ids = [peer.peer_id for peer in consumers]
        rng = self._streams("matching")
        if self._config.matching != "trust":
            return [
                (consumer_id, listing, None)
                for consumer_id, listing in random_matching(consumer_ids, listings, rng)
            ]
        now = float(round_index)
        # One batched read per consumer fills its score row, asked in
        # listing order so column j is listing j's supplier (each supplier
        # posts at most one listing per round).  The suppliers' names are
        # resolved in the community table once, so a consumer's row costs
        # only the partners it knows.
        supplier_ids = self._beta.columns(
            [listing.supplier_id for listing in listings]
        )
        scores = np.empty((len(consumer_ids), len(listings)))
        for row, consumer in enumerate(consumers):
            scores[row] = consumer.trust_in_many(supplier_ids, now=now)
        matches = trust_weighted_matching(consumer_ids, listings, scores, rng)
        consumer_rows = {
            consumer_id: row for row, consumer_id in enumerate(consumer_ids)
        }
        supplier_columns = {
            supplier_id: column for column, supplier_id in enumerate(supplier_ids)
        }
        trusts = scores[
            [consumer_rows[consumer_id] for consumer_id, _ in matches],
            [supplier_columns[listing.supplier_id] for _, listing in matches],
        ].tolist()
        return [
            (consumer_id, listing, trust)
            for (consumer_id, listing), trust in zip(matches, trusts)
        ]

    def _prepare_match(
        self,
        consumer_id: str,
        listing: Listing,
        consumer_trust: Optional[float],
        timestamp: float,
    ) -> Optional[Tuple[CommunityPeer, CommunityPeer, float, StrategyContext]]:
        """Negotiate the price and assemble the trust context for one match.

        ``consumer_trust`` is the consumer's trust in the supplier when the
        matching already read it this round; nothing writes evidence between
        that read and this one, so it is the value ``trust_in`` returns.
        Witness reads fold in second-hand reports and always read afresh.
        """
        supplier = self.peer_by_id(listing.supplier_id)
        consumer = self.peer_by_id(consumer_id)
        try:
            negotiation = split_surplus_price(
                listing.bundle, supplier_share=self._config.supplier_surplus_share
            )
        except NegotiationError:
            return None
        if self._config.witness_count > 0:
            supplier_trust = supplier.trust_in_with_witnesses(
                consumer_id, now=timestamp
            )
            consumer_trust = consumer.trust_in_with_witnesses(
                listing.supplier_id, now=timestamp
            )
        else:
            supplier_trust = supplier.trust_in(consumer_id, now=timestamp)
            if consumer_trust is None:
                consumer_trust = consumer.trust_in(listing.supplier_id, now=timestamp)
        context = StrategyContext(
            supplier_trust_in_consumer=supplier_trust,
            consumer_trust_in_supplier=consumer_trust,
            supplier_defection_penalty=max(
                self._config.defection_penalty, supplier.defection_penalty
            ),
            consumer_defection_penalty=max(
                self._config.defection_penalty, consumer.defection_penalty
            ),
            timestamp=timestamp,
        )
        return supplier, consumer, negotiation.price, context

    def _execute_matches(
        self, matches: List[Tuple[str, Listing, Optional[float]]], timestamp: float
    ) -> List[ExchangeOutcome]:
        """Prepare, plan and execute one round's matches.

        All candidates' trust contexts are assembled first, then the
        strategy plans the whole round in one
        :meth:`~repro.marketplace.strategy.ExchangeStrategy.plan_many` call
        (screen, schedule and both sides' decisions, batched), and each
        scheduled match is executed with ``run_exchange``, in match order.
        A declined candidate draws nothing from the execution RNG stream,
        so the behaviours' draws stay in the same order.
        """
        telemetry = self._telemetry
        with telemetry.span("exchange.prepare"):
            prepared = [
                (listing, self._prepare_match(consumer_id, listing, trust, timestamp))
                for consumer_id, listing, trust in matches
            ]
            candidates = [
                (listing, plan_inputs)
                for listing, plan_inputs in prepared
                if plan_inputs is not None
            ]
            if not candidates:
                return []
        with telemetry.span("exchange.plan"):
            sequences = self._strategy.plan_many(
                [listing.bundle for listing, _ in candidates],
                [price for _, (_, _, price, _) in candidates],
                [context for _, (_, _, _, context) in candidates],
            )
        if telemetry.enabled:
            kept = int(np.count_nonzero(sequences.screened))
            telemetry.count("exchange.candidates", len(candidates))
            telemetry.count("exchange.screened_out", len(candidates) - kept)
            telemetry.observe("exchange.round_candidates", len(candidates))
        outcomes: List[ExchangeOutcome] = []
        with telemetry.span("exchange.execute"):
            for (listing, (supplier, consumer, price, _)), sequence in zip(
                candidates, sequences
            ):
                if sequence is None:
                    outcomes.append(
                        ExchangeOutcome.unscheduled(
                            supplier.peer_id,
                            consumer.peer_id,
                            listing.bundle,
                            price,
                            timestamp,
                        )
                    )
                    continue
                outcomes.append(
                    run_exchange(
                        supplier_id=supplier.peer_id,
                        consumer_id=consumer.peer_id,
                        sequence=sequence,
                        supplier_behavior=supplier.behavior,
                        consumer_behavior=consumer.behavior,
                        rng=self._streams("execution"),
                        timestamp=timestamp,
                    )
                )
        return outcomes

    def _flush_observations(
        self, round_outcomes: List[ExchangeOutcome], timestamp: float
    ) -> None:
        """Flush the round's queued evidence through the evidence plane.

        In sync mode each participant's records form one ``update_many``
        batch applied immediately (the legacy data path, bit-for-bit).  In
        async mode the batches are split per *counterparty*: each partner
        sends the peer one outcome-receipt message per round, so every
        evidence entry has a real origin the repair subsystem can journal,
        retransmit from and gossip about (a drop costs that counterparty's
        receipts for the round).  The false-complaint pass then replays the
        outcomes in execution order so the complaint RNG stream stays
        deterministic, and finally witness-report requests go out for the
        partners just interacted with.
        """
        if not self._evidence.is_async:
            per_peer: Dict[str, List] = {}
            for outcome in round_outcomes:
                if outcome.record is None:
                    continue
                per_peer.setdefault(outcome.supplier_id, []).append(outcome.record)
                per_peer.setdefault(outcome.consumer_id, []).append(outcome.record)
            for peer_id, records in per_peer.items():
                self._evidence.submit_records(peer_id, records)
        else:
            per_pair: Dict[Tuple[str, str], List] = {}
            for outcome in round_outcomes:
                if outcome.record is None:
                    continue
                per_pair.setdefault(
                    (outcome.consumer_id, outcome.supplier_id), []
                ).append(outcome.record)
                per_pair.setdefault(
                    (outcome.supplier_id, outcome.consumer_id), []
                ).append(outcome.record)
            for (sender_id, recipient_id), records in per_pair.items():
                self._evidence.submit_records(
                    recipient_id, records, sender_id=sender_id
                )
        complaint_rng = self._streams("complaints")
        for outcome in round_outcomes:
            record = outcome.record
            if record is None:
                continue
            supplier = self.peer_by_id(outcome.supplier_id)
            consumer = self.peer_by_id(outcome.consumer_id)
            # Malicious peers may additionally pollute the complaint store
            # after interactions in which the partner did not defect.
            if record.consumer_honest:
                supplier.maybe_file_false_complaint(
                    consumer.peer_id,
                    complaint_rng,
                    timestamp,
                    via=self._evidence.submit_complaint,
                )
            if record.supplier_honest:
                consumer.maybe_file_false_complaint(
                    supplier.peer_id,
                    complaint_rng,
                    timestamp,
                    via=self._evidence.submit_complaint,
                )
        if self._config.witness_count > 0:
            self._request_witness_reports(round_outcomes)

    def _request_witness_reports(
        self, round_outcomes: List[ExchangeOutcome]
    ) -> None:
        """Each party asks sampled witnesses about the partner it just met."""
        witness_rng = self._streams("witnesses")
        peer_ids = [peer.peer_id for peer in self._peers]
        for outcome in round_outcomes:
            if outcome.record is None:
                continue
            for requester_id, subject_id in (
                (outcome.supplier_id, outcome.consumer_id),
                (outcome.consumer_id, outcome.supplier_id),
            ):
                # Over-sample by the two excluded ids and filter, instead of
                # materialising an O(peers) candidate list per party.
                excluded = (requester_id, subject_id)
                count = min(self._config.witness_count, len(peer_ids) - 2)
                if count <= 0:
                    continue
                drawn = witness_rng.sample(peer_ids, min(count + 2, len(peer_ids)))
                witnesses = [
                    peer_id for peer_id in drawn if peer_id not in excluded
                ][:count]
                self._evidence.request_witness_reports(
                    requester_id, witnesses, (subject_id,)
                )
