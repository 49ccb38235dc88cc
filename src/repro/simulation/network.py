"""Simulated message-passing network (latency and loss).

The community experiments are round-based and do not need packet-level
fidelity, but evidence traffic should pay a realistic, accountable
communication cost.  :class:`SimulatedNetwork` samples a delay (and a loss)
for every message and keeps its own clock and delivery queue: a message sent
at ``now`` with delay ``d`` is handed to the recipient's handler at
``now + d``, messages due at the same time arrive in the order they were
sent, and :meth:`SimulatedNetwork.deliver_until` delivers everything due by
a horizon, including what handlers send for delivery by that horizon.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = [
    "Message",
    "LatencyModel",
    "FixedLatency",
    "ExponentialLatency",
    "NetworkCounters",
    "SimulatedNetwork",
]


@dataclass(frozen=True)
class Message:
    """A message in flight between two peers."""

    sender_id: str
    recipient_id: str
    payload: Any
    sent_at: float
    kind: str = "generic"


class LatencyModel(abc.ABC):
    """Samples per-message one-way delays."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """A non-negative delay for one message."""


@dataclass
class FixedLatency(LatencyModel):
    """Every message takes the same time."""

    delay: float = 1.0

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise SimulationError(f"delay must be >= 0, got {self.delay}")

    def sample(self, rng: random.Random) -> float:
        return self.delay


@dataclass
class ExponentialLatency(LatencyModel):
    """Exponentially distributed delays with a fixed minimum."""

    mean: float = 1.0
    minimum: float = 0.1

    def __post_init__(self) -> None:
        if self.mean <= 0 or self.minimum < 0:
            raise SimulationError("mean must be > 0 and minimum >= 0")

    def sample(self, rng: random.Random) -> float:
        return self.minimum + rng.expovariate(1.0 / self.mean)


@dataclass
class NetworkCounters:
    """Traffic counters of a simulated network.

    ``dropped`` (sampled loss or a link fault) and ``undeliverable`` (unknown
    recipient) are tracked separately from ``delivered`` so evidence-loss
    experiments can report honest delivery ratios; messages still scheduled
    but not yet delivered show up as :attr:`in_flight`.

    The repair subsystem (see :mod:`repro.simulation.repair`) adds a second
    ledger in units of *evidence entries* rather than messages: an entry is
    ``emitted`` once, may be carried by many messages (gossip relays,
    forwarded complaints), is ``applied at most once thanks to ``(origin, seq)``
    dedup (``duplicates_suppressed`` counts the suppressed copies), and is
    ``expired`` when its recipient churns out before delivery.  The
    :attr:`effective_delivery_ratio` over entries is the post-repair
    delivery ratio the run summary reports; ``convergence_lags`` records,
    per applied entry, the ticks from emission to final application.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    undeliverable: int = 0
    total_latency: float = 0.0
    #: Duplicate deliveries suppressed by ``(origin, seq)`` dedup.
    duplicates_suppressed: int = 0
    #: Repair-plane messages sent (gossip digests, entry batches and
    #: forwarded complaints); a subset of ``sent``.
    repair_messages: int = 0
    #: Evidence entries emitted / applied / expired (churned recipient).
    entries_emitted: int = 0
    entries_applied: int = 0
    entries_expired: int = 0
    #: Per applied entry: simulation-time from emission to application.
    convergence_lags: List[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        if self.delivered == 0:
            return 0.0
        return self.total_latency / self.delivered

    @property
    def in_flight(self) -> int:
        """Messages sent but neither delivered nor lost (yet)."""
        return self.sent - self.delivered - self.dropped - self.undeliverable

    @property
    def delivery_ratio(self) -> float:
        """Fraction of sent messages actually delivered (1.0 when idle).

        In-flight messages count against the ratio: evidence that has not
        arrived is evidence the recipient does not have.
        """
        if self.sent == 0:
            return 1.0
        return self.delivered / self.sent

    @property
    def loss_ratio(self) -> float:
        """Fraction of sent messages definitively lost (dropped/undeliverable)."""
        if self.sent == 0:
            return 0.0
        return (self.dropped + self.undeliverable) / self.sent

    @property
    def missing_entries(self) -> int:
        """Evidence entries neither applied nor written off as expired."""
        return self.entries_emitted - self.entries_applied - self.entries_expired

    @property
    def effective_delivery_ratio(self) -> float:
        """Fraction of emitted evidence entries eventually applied.

        This is the *post-repair* delivery ratio: a gossip-relayed entry
        that finally lands counts as delivered no matter how many of its
        copies were lost along the way.  1.0 when no entries were emitted
        (idle or sync plane).
        """
        if self.entries_emitted == 0:
            return 1.0
        return self.entries_applied / self.entries_emitted

    def _lag_quantile(self, q: float) -> float:
        if not self.convergence_lags:
            return 0.0
        ordered = sorted(self.convergence_lags)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    @property
    def convergence_lag_p50(self) -> float:
        """Median ticks from evidence emission to final application."""
        return self._lag_quantile(0.5)

    @property
    def convergence_lag_p95(self) -> float:
        """95th-percentile ticks from evidence emission to final application."""
        return self._lag_quantile(0.95)

    def metrics_view(self) -> Dict[str, float]:
        """The counters as a flat dict for a telemetry-registry view.

        This object stays the authoritative state; the registry reads it
        at snapshot time.  Everything here is simulation-time accounting
        (no wall clocks), so it belongs in the deterministic ``metrics``
        section of a snapshot.
        """
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "undeliverable": self.undeliverable,
            "duplicates_suppressed": self.duplicates_suppressed,
            "repair_messages": self.repair_messages,
            "entries_emitted": self.entries_emitted,
            "entries_applied": self.entries_applied,
            "entries_expired": self.entries_expired,
            "missing_entries": self.missing_entries,
            "delivery_ratio": round(self.delivery_ratio, 6),
            "effective_delivery_ratio": round(self.effective_delivery_ratio, 6),
            "mean_latency": round(self.mean_latency, 6),
            "convergence_lag_p50": self.convergence_lag_p50,
            "convergence_lag_p95": self.convergence_lag_p95,
        }


class SimulatedNetwork:
    """Delivers messages between registered handlers with latency and loss.

    The network owns the simulation clock :attr:`now` and one heap of
    ``(deliver_at, sequence, message, delay)`` entries, so deliveries run in
    ``(time, send order)`` order.  Equal times compare exactly (no epsilon).

    ``fault`` is an optional link-fault predicate ``(sender_id,
    recipient_id, now) -> bool``; a faulted link drops the message
    deterministically (counted as ``dropped``, no loss RNG draw), which is
    how partition scenarios cut every path between two cliques for a while.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        fault: Optional[Callable[[str, str, float], bool]] = None,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise SimulationError(
                f"loss_probability must lie in [0, 1), got {loss_probability}"
            )
        self._latency: LatencyModel = latency if latency is not None else FixedLatency()
        self._loss_probability = loss_probability
        self._rng = rng if rng is not None else random.Random(0)
        self._fault = fault
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._queue: List[Tuple[float, int, Message, float]] = []
        self._sequence = itertools.count()
        #: Current simulation time.
        self.now = 0.0
        self.counters = NetworkCounters()

    @property
    def pending(self) -> int:
        """Messages queued for delivery (equals ``counters.in_flight``)."""
        return len(self._queue)

    def queued(self) -> Iterator[Message]:
        """The messages queued for delivery, in no particular order."""
        return (message for _, _, message, _ in self._queue)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, peer_id: str, handler: Callable[[Message], None]) -> None:
        """Register the message handler of a peer."""
        if not peer_id:
            raise SimulationError("peer_id must be non-empty")
        self._handlers[peer_id] = handler

    def unregister(self, peer_id: str) -> None:
        self._handlers.pop(peer_id, None)

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self._handlers

    # ------------------------------------------------------------------
    # Sending and delivery
    # ------------------------------------------------------------------
    def send(
        self, sender_id: str, recipient_id: str, payload: Any, kind: str = "generic"
    ) -> bool:
        """Send a message; returns ``False`` when it is dropped immediately.

        Dropped means either a sampled loss or an unknown recipient; in both
        cases nothing is queued for delivery.
        """
        self.counters.sent += 1
        if recipient_id not in self._handlers:
            self.counters.undeliverable += 1
            return False
        # A faulted link is a deterministic drop: it must not consume a loss
        # sample, so fault-free runs draw exactly the same RNG stream.
        if self._fault is not None and self._fault(sender_id, recipient_id, self.now):
            self.counters.dropped += 1
            return False
        if self._loss_probability > 0 and self._rng.random() < self._loss_probability:
            self.counters.dropped += 1
            return False
        delay = self._latency.sample(self._rng)
        if not delay >= 0:
            raise SimulationError(f"latency must be >= 0, got {delay}")
        message = Message(
            sender_id=sender_id,
            recipient_id=recipient_id,
            payload=payload,
            sent_at=self.now,
            kind=kind,
        )
        heapq.heappush(
            self._queue, (self.now + delay, next(self._sequence), message, delay)
        )
        return True

    def deliver_until(self, horizon: float) -> int:
        """Deliver every message due by ``horizon``, then stop the clock there.

        The horizon is inclusive, and a message that a handler sends for
        delivery by the horizon arrives within the same call.  Returns the
        number of messages taken off the queue (a recipient that left since
        the send counts as ``undeliverable``).
        """
        if not math.isfinite(horizon) or horizon < self.now:
            raise SimulationError(
                f"horizon must be finite and >= now ({self.now}), got {horizon}"
            )
        queue = self._queue
        counters = self.counters
        taken = 0
        while queue and queue[0][0] <= horizon:
            self.now, _, message, delay = heapq.heappop(queue)
            taken += 1
            handler = self._handlers.get(message.recipient_id)
            if handler is None:
                counters.undeliverable += 1
                continue
            counters.delivered += 1
            counters.total_latency += delay
            handler(message)
        self.now = horizon
        return taken
