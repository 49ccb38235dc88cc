"""Sharded complaint store: partition complaint state by peer-id range.

The paper's premise is that reputation data in a P2P community is too large
and too decentralised to live on one node — that is why complaints are
stored in P-Grid in the first place.  This module brings the same idea to
the community's shared complaint store: a :class:`ShardedBackend` splits
the peer-id space across ``N`` inner
:class:`~repro.trust.backend.ComplaintTrustBackend` shards while presenting
the *same* interface as one complaint backend, so every
consumer — the community's peers, witness aggregation, the community
simulation — stays unchanged and shard-agnostic.  Only the complaint kind
is sharded: the community beta table and each peer's decay backend stay
single plain arenas.

Routing
-------
A :class:`ShardRouter` maps a subject-id to its home shard through a stable
32-bit key (``crc32`` of the UTF-8 id, so the assignment is identical
across processes and runs, unlike Python's seeded ``hash``):

``hash``
    ``key % N`` — uniform, order-free assignment.  Stateless, which also
    means a split would reassign (almost) every key: hash routers cannot
    rebalance; use ``ring`` for hash-style assignment that can.
``range``
    ``N`` contiguous key intervals held as an explicit boundary table,
    mirroring how P-Grid partitions its trie key space.  The default
    layout is equal-width intervals; splitting a shard halves its interval
    in place, so only the split shard's keys move.  The table always
    starts at key 0 and covers the whole 32-bit key space — an id minted
    long after construction (a flash-crowd arrival) lands in a real
    interval, never in an out-of-range fallback shard.
``ring``
    Consistent hashing: each shard owns one point on the 32-bit ring and
    the arc that ends at it.  Splitting a shard places the new shard's
    point at the midpoint of the hot shard's widest arc, so — exactly like
    ``range`` — only the split shard's keys move, while the initial
    assignment stays hash-like (arc widths are pseudo-random, not ordered
    intervals).

Live rebalancing
----------------
The P-Grid substrate re-partitions the key space as the population shifts:
a peer *splits its path* when its partition grows hot.  A
:class:`RebalancePolicy` gives :class:`ShardedBackend` the same move: the
backend keeps per-shard load counters (resident rows and routed evidence
units), and when a shard exceeds the policy's skew threshold (or its
absolute row capacity) it is split in place through the very same
``shard-NNNN/*`` snapshot manifest a re-sharding restore uses — snapshot
the hot shard, re-file its complaint log onto two successor shards, and
atomically swap the router's key intervals (``range``) or ring points
(``ring``).  Complaint logs are re-filed complaint-for-complaint, so
results stay bit-identical to an unsharded run before, during and after
every split — the sharding invariant survives churn.

Semantics
---------
* ``update_many`` / ``record_complaints`` scatter a batch by home shard
  (order-preserving within each shard, so results are bit-identical to the
  unsharded backend).  Complaint evidence touches *two* rows — the accused's
  received count and the complainant's filed count — so it is delivered to
  both peers' home shards; each shard counts only its own peer-id range
  (``ComplaintTrustBackend.restrict_rows``), so every home row sees all of
  its evidence and no shard holds half-counted foreign rows.
* ``scores_for`` / ``trust_decisions`` / ``aggregate_witness_reports``
  ask each home shard about its own subjects (the witness-belief matrix
  splits column-wise) and gather the answers back into caller order.  The
  community *median* reference is global state: the wrapper pools every
  shard's home-subject metrics, takes one global median, and hands it to
  every shard's scoring rule — per-shard medians would silently change the
  decision rule.
* ``snapshot`` / ``restore`` produce a per-shard manifest: each shard
  serialises independently under a ``shard-NNNN/`` key prefix, plus the
  router name *and its boundary state* needed to re-shard — a snapshot
  taken after live splits records the uneven layout, so its per-shard logs
  are interpreted correctly on restore.  Restoring into a *different* shard
  count or router layout re-files the de-duplicated complaint log onto the
  new layout without score drift; restoring onto a single shard, or onto
  more shards than there are peers (some shards end up empty), both work.
"""

from __future__ import annotations

import itertools
import math
import time
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import TrustModelError
from repro.trust.aggregation import validate_witness_matrix
from repro.trust.backend import (
    ComplaintTrustBackend,
    TrustBackend,
    TrustObservation,
    complaints_from_snapshot,
    create_backend,
)
from repro.trust.evidence import Complaint

__all__ = [
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
]


class ShardSplitError(TrustModelError):
    """A shard cannot be split (unsplittable router or exhausted key range).

    Raised *before* any router mutation, so catching it is always safe;
    any other error escaping a split indicates a real failure (and the
    backend rolls its router back before re-raising).
    """

_KEY_BITS = 32
_KEY_SPACE = 1 << _KEY_BITS

#: Router strategies selectable by name (CLI ``--shard-router``).
ROUTER_NAMES = ("hash", "range", "ring")


def shard_key(peer_id: str) -> int:
    """Stable 32-bit routing key for a peer id.

    ``crc32`` rather than Python's builtin ``hash``: the builtin is salted
    per process (``PYTHONHASHSEED``), which would scatter the same peer to
    different shards across runs and break snapshot re-sharding; crc32 is
    deterministic everywhere and runs at C speed on the routing hot path.
    """
    return zlib.crc32(peer_id.encode("utf-8"))


class ShardRouter:
    """Maps subject-ids to shard indices; strategies subclass :meth:`shard_of`."""

    #: Registry name of the routing strategy.
    name: str = "router"

    #: Whether :meth:`split` is supported (a prerequisite for rebalancing).
    supports_split: bool = False

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise TrustModelError(f"num_shards must be >= 1, got {num_shards}")
        self._num_shards = num_shards

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def shard_of(self, peer_id: str) -> int:
        """Home shard index of ``peer_id`` in ``[0, num_shards)``."""
        raise NotImplementedError

    def split(self, hot_index: int) -> int:
        """Split shard ``hot_index``'s key range in place.

        Returns the index of the newly created shard (always the next free
        index, ``num_shards`` before the call).  Only the split shard's
        keys move: every other shard's assignment is untouched.  Routers
        without boundary state cannot split.
        """
        raise ShardSplitError(
            f"the {self.name!r} router cannot split shards; "
            "rebalancing needs a 'range' or 'ring' router"
        )

    def state(self) -> Optional[np.ndarray]:
        """Serialisable boundary state (``None`` for stateless routers)."""
        return None

    def same_layout(self, other: "ShardRouter") -> bool:
        """Whether ``other`` assigns every key exactly as this router does."""
        if self.name != other.name or self._num_shards != other.num_shards:
            return False
        mine, theirs = self.state(), other.state()
        if mine is None or theirs is None:
            return mine is None and theirs is None
        return mine.shape == theirs.shape and bool(np.array_equal(mine, theirs))

    def _check_hot_index(self, hot_index: int) -> None:
        if not 0 <= hot_index < self._num_shards:
            raise TrustModelError(
                f"shard index {hot_index} out of range [0, {self._num_shards})"
            )

    def describe(self) -> str:
        return f"{self.name}({self._num_shards})"


class HashShardRouter(ShardRouter):
    """Uniform assignment by routing key modulo the shard count."""

    name = "hash"

    def shard_of(self, peer_id: str) -> int:
        return shard_key(peer_id) % self._num_shards


def _validate_boundary_state(
    state: np.ndarray, num_shards: int, router_name: str
) -> Tuple[List[int], List[int]]:
    """Validate a ``(2, M)`` positions/owners table and return python lists."""
    table = np.asarray(state, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != 2 or table.shape[1] < 1:
        raise TrustModelError(
            f"{router_name} router state must be a (2, M>=1) array, "
            f"got shape {table.shape}"
        )
    positions = [int(value) for value in table[0]]
    owners = [int(value) for value in table[1]]
    if any(not 0 <= position < _KEY_SPACE for position in positions):
        raise TrustModelError(
            f"{router_name} router positions must lie in [0, 2^{_KEY_BITS})"
        )
    if any(low >= high for low, high in zip(positions, positions[1:])):
        raise TrustModelError(
            f"{router_name} router positions must be strictly increasing"
        )
    if set(owners) != set(range(num_shards)):
        raise TrustModelError(
            f"{router_name} router state must assign at least one key range "
            f"to every shard in [0, {num_shards})"
        )
    return positions, owners


class RangeShardRouter(ShardRouter):
    """Contiguous-interval assignment over an explicit boundary table.

    The default layout gives shard ``i`` the equal-width interval
    ``[ceil(i * 2^32 / N), ceil((i + 1) * 2^32 / N))`` — the P-Grid-style
    split of the key space into contiguous ranges.  The table always
    starts at key 0 and (implicitly) ends at ``2^32``, so *every* possible
    routing key falls inside a configured interval: ids first seen after
    construction route deterministically into a real home interval, and
    the assignment is stable across snapshot/restore because the table
    itself is the serialised router state.  A table whose first boundary
    is not 0 would silently send all low keys to whichever shard owns the
    last interval (an over-wide fallback), so it is rejected outright.

    :meth:`split` halves the hot shard's (widest) interval in place; the
    upper half moves to the new shard, nothing else changes.
    """

    name = "range"
    supports_split = True

    def __init__(self, num_shards: int, state: Optional[np.ndarray] = None):
        super().__init__(num_shards)
        if state is None:
            self._starts = [
                ((index << _KEY_BITS) + num_shards - 1) // num_shards
                for index in range(num_shards)
            ]
            self._owners = list(range(num_shards))
        else:
            starts, owners = _validate_boundary_state(state, num_shards, self.name)
            if starts[0] != 0:
                raise TrustModelError(
                    "range router intervals must start at key 0: keys below "
                    f"the first boundary ({starts[0]}) would fall outside "
                    "every configured interval"
                )
            self._starts, self._owners = starts, owners

    def shard_of(self, peer_id: str) -> int:
        return self._owners[bisect_right(self._starts, shard_key(peer_id)) - 1]

    def split(self, hot_index: int) -> int:
        self._check_hot_index(hot_index)
        best: Optional[Tuple[int, int]] = None  # (width, table position)
        for position, owner in enumerate(self._owners):
            if owner != hot_index:
                continue
            end = (
                self._starts[position + 1]
                if position + 1 < len(self._starts)
                else _KEY_SPACE
            )
            width = end - self._starts[position]
            if best is None or width > best[0]:
                best = (width, position)
        if best is None or best[0] < 2:
            raise ShardSplitError(
                f"shard {hot_index} owns no splittable key interval"
            )
        width, position = best
        midpoint = self._starts[position] + width // 2
        new_index = self._num_shards
        self._starts.insert(position + 1, midpoint)
        self._owners.insert(position + 1, new_index)
        self._num_shards += 1
        return new_index

    def state(self) -> np.ndarray:
        return np.array([self._starts, self._owners], dtype=np.int64)

    def describe(self) -> str:
        return f"{self.name}({self._num_shards}, {len(self._starts)} intervals)"


class RingShardRouter(ShardRouter):
    """Consistent hashing: shards own arcs of the 32-bit key ring.

    Each shard starts with one point (``crc32`` of its shard label) and
    owns the arc ending at that point, so the initial assignment is
    hash-like — arc widths are pseudo-random, unrelated to shard order —
    but, unlike the ``hash`` router's modulo, a split moves *only* the
    split shard's keys: the new shard's point lands at the midpoint of the
    hot shard's widest arc and takes the lower half of it.
    """

    name = "ring"
    supports_split = True

    def __init__(self, num_shards: int, state: Optional[np.ndarray] = None):
        super().__init__(num_shards)
        if state is None:
            placed: Dict[int, int] = {}
            for index in range(num_shards):
                position = shard_key(f"shard-{index:04d}")
                while position in placed:  # crc32 collision: probe forward
                    position = (position + 1) % _KEY_SPACE
                placed[position] = index
            ordered = sorted(placed)
            self._points = ordered
            self._owners = [placed[position] for position in ordered]
        else:
            self._points, self._owners = _validate_boundary_state(
                state, num_shards, self.name
            )

    def shard_of(self, peer_id: str) -> int:
        index = bisect_left(self._points, shard_key(peer_id))
        if index == len(self._points):
            index = 0  # wrap: keys past the last point belong to the first
        return self._owners[index]

    def split(self, hot_index: int) -> int:
        self._check_hot_index(hot_index)
        count = len(self._points)
        best: Optional[Tuple[int, int]] = None  # (arc length, predecessor)
        for position, owner in enumerate(self._owners):
            if owner != hot_index:
                continue
            if count == 1:
                predecessor, length = self._points[0], _KEY_SPACE
            else:
                predecessor = self._points[position - 1] if position else self._points[-1]
                length = (self._points[position] - predecessor) % _KEY_SPACE
            if best is None or length > best[0]:
                best = (length, predecessor)
        if best is None or best[0] < 2:
            raise ShardSplitError(f"shard {hot_index} owns no splittable ring arc")
        length, predecessor = best
        midpoint = (predecessor + length // 2) % _KEY_SPACE
        new_index = self._num_shards
        insert_at = bisect_left(self._points, midpoint)
        self._points.insert(insert_at, midpoint)
        self._owners.insert(insert_at, new_index)
        self._num_shards += 1
        return new_index

    def state(self) -> np.ndarray:
        return np.array([self._points, self._owners], dtype=np.int64)

    def describe(self) -> str:
        return f"{self.name}({self._num_shards}, {len(self._points)} points)"


_ROUTER_CLASSES = {
    cls.name: cls for cls in (HashShardRouter, RangeShardRouter, RingShardRouter)
}


def create_router(
    name: str, num_shards: int, state: Optional[np.ndarray] = None
) -> ShardRouter:
    """Instantiate a routing strategy by name (optionally from saved state)."""
    router_class = _ROUTER_CLASSES.get(name)
    if router_class is None:
        raise TrustModelError(
            f"unknown shard router {name!r}; registered: {ROUTER_NAMES}"
        )
    if state is None:
        return router_class(num_shards)
    if not router_class.supports_split:
        raise TrustModelError(f"the {name!r} router carries no boundary state")
    return router_class(num_shards, state=state)


# ----------------------------------------------------------------------
# Rebalancing policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RebalancePolicy:
    """When to split a hot shard (the P-Grid path-split rule, parametrised).

    A shard is split when it holds at least ``min_shard_rows`` rows and
    either exceeds the *skew* bound — more than ``threshold`` times the
    ideal per-shard share ``total_rows / num_shards`` (meaningful only with
    two or more shards) — or the absolute *capacity* bound ``split_rows``.
    The capacity bound defaults on (1024 rows) because it is the only
    trigger a single-shard backend has: without it, ``rebalance`` at
    ``shards=1`` could never grow in place.  Pass ``split_rows=None`` for
    pure skew semantics.  Among shards over the bounds, the one with the
    most resident rows splits first, routed update traffic breaking ties.
    Splits stop at ``max_shards``; loads are checked every ``check_every``
    write batches.
    """

    threshold: float = 2.0
    max_shards: int = 16
    split_rows: Optional[int] = 1024
    min_shard_rows: int = 8
    check_every: int = 1

    def __post_init__(self) -> None:
        if not 1.0 < self.threshold < math.inf:
            raise TrustModelError(
                f"rebalance threshold must be finite and > 1, got {self.threshold}"
            )
        if self.max_shards < 1:
            raise TrustModelError(f"max_shards must be >= 1, got {self.max_shards}")
        if self.split_rows is not None and self.split_rows < 2:
            raise TrustModelError(f"split_rows must be >= 2, got {self.split_rows}")
        if self.min_shard_rows < 2:
            raise TrustModelError(
                f"min_shard_rows must be >= 2, got {self.min_shard_rows}"
            )
        if self.check_every < 1:
            raise TrustModelError(
                f"check_every must be >= 1, got {self.check_every}"
            )

    def should_split(self, rows: int, total_rows: int, num_shards: int) -> bool:
        """Whether a shard holding ``rows`` of ``total_rows`` must split."""
        if num_shards >= self.max_shards or rows < self.min_shard_rows:
            return False
        if self.split_rows is not None and rows > self.split_rows:
            return True
        return num_shards > 1 and rows > self.threshold * (total_rows / num_shards)


@dataclass(frozen=True)
class RebalanceEvent:
    """One completed live split, for introspection and benchmarks."""

    source_shard: int
    new_shard: int
    rows_kept: int
    rows_moved: int
    num_shards_after: int
    seconds: float


class ShardedBackend(TrustBackend):
    """N complaint shards behind one ``TrustBackend`` interface.

    Parameters
    ----------
    num_shards:
        How many partitions to split the peer-id space into initially
        (rebalancing may grow the count up to the policy's ``max_shards``).
    router:
        Routing strategy: a name from :data:`ROUTER_NAMES` or a ready
        :class:`ShardRouter` (whose shard count must match).
    rebalance:
        Optional :class:`RebalancePolicy`.  When set, the backend monitors
        per-shard load after every write batch and splits hot shards in
        place (requires a splittable router, i.e. ``range`` or ``ring``).
    **shard_params:
        Constructor parameters forwarded to every inner
        :class:`~repro.trust.backend.ComplaintTrustBackend`.

    Three mechanisms keep the sharded store bit-identical to one complaint
    backend: the global median reference, two-shard complaint delivery,
    and complaint-log re-filing on splits and re-sharding restores.  The
    wrapper files and lists complaints like one complaint backend, so it
    can serve as a community's shared complaint store exactly like an
    unsharded one.
    """

    name = "sharded"

    #: The one backend kind a sharded store holds (recorded in manifests).
    kind = "complaint"

    def __init__(
        self,
        num_shards: int,
        router: object = "hash",
        rebalance: Optional[RebalancePolicy] = None,
        **shard_params: object,
    ):
        if num_shards < 1:
            raise TrustModelError(f"num_shards must be >= 1, got {num_shards}")
        if "shards" in shard_params:
            raise TrustModelError("nested sharding is not supported")
        self._shard_params: Dict[str, object] = dict(shard_params)
        if isinstance(router, ShardRouter):
            if router.num_shards != num_shards:
                raise TrustModelError(
                    f"router covers {router.num_shards} shards, "
                    f"backend has {num_shards}"
                )
            self._router = router
        else:
            self._router = create_router(str(router), num_shards)
        self._shards: Tuple[ComplaintTrustBackend, ...] = tuple(
            self._create_shard(home) for home in range(num_shards)
        )
        if rebalance is not None:
            if not isinstance(rebalance, RebalancePolicy):
                raise TrustModelError(
                    "rebalance must be a RebalancePolicy or None, "
                    f"got {type(rebalance).__name__}"
                )
            if not self._router.supports_split:
                raise TrustModelError(
                    f"rebalancing requires a splittable router "
                    f"('range' or 'ring'), not {self._router.name!r}"
                )
        self._rebalance = rebalance
        self._rebalance_events: List[RebalanceEvent] = []
        self._split_seconds = 0.0
        self._in_rebalance = False
        #: Evidence units (observations / complaint deliveries) routed to
        #: each shard — the update-traffic half of the load signal.
        self._shard_updates: List[int] = [0] * num_shards
        # Routing is pure but hashing every id on every query adds up;
        # memoise per instance (invalidated whenever the router changes).
        self._route_cache: Dict[str, int] = {}
        # The global median reference is cached per write version.
        self._writes = 0
        self._reference_cache: Tuple[int, float] = (-1, 0.0)

    def _create_shard(self, home: int, **overrides: object) -> ComplaintTrustBackend:
        """A fresh inner shard homing ``home``'s peer-id range.

        The single construction point for inner backends — initial shards,
        split successors and re-sharded shards all come through here, with
        ``shard_params`` merged with ``overrides``.  A complaint is
        delivered to both involved peers' home shards; restricting each
        shard's counters to its own range keeps every shard's agent set and
        metric array exactly the home partition (see
        ``ComplaintTrustBackend.restrict_rows``), so the global median
        pools per-shard arrays at numpy speed.
        """
        params = dict(self._shard_params)
        params.update(overrides)
        shard = create_backend(self.kind, **params)
        shard.restrict_rows(lambda agent: self.shard_index_of(agent) == home)
        if self.telemetry.enabled:
            # Shards minted after bind_telemetry (splits, re-shards) report
            # through the same registry as the initial fleet.
            shard.bind_telemetry(self.telemetry)
        return shard

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def shards(self) -> Tuple[ComplaintTrustBackend, ...]:
        """The inner backends, indexable by shard index."""
        return self._shards

    @property
    def rebalance_policy(self) -> Optional[RebalancePolicy]:
        return self._rebalance

    @property
    def rebalance_events(self) -> Tuple[RebalanceEvent, ...]:
        """Every live split performed so far, in order."""
        return tuple(self._rebalance_events)

    @property
    def rebalance_seconds(self) -> float:
        """Cumulative wall time spent inside live splits (the split pause)."""
        return self._split_seconds

    @property
    def shard_update_counts(self) -> Tuple[int, ...]:
        """Evidence units routed to each shard (split-adjusted)."""
        return tuple(self._shard_updates)

    def shard_row_counts(self) -> np.ndarray:
        """Resident rows per shard (the working-set half of the load signal).

        Uses the backends' O(1) ``row_count`` rather than materialising
        ``known_subjects()`` name tuples — this is polled after every write
        batch when a rebalance policy is active.
        """
        return np.array(
            [shard.row_count() for shard in self._shards], dtype=np.int64
        )

    def describe(self) -> str:
        suffix = ""
        if self._rebalance is not None:
            suffix = f", rebalance@{self._rebalance.threshold:g}"
        return (
            f"sharded({len(self._shards)}x{self.kind}, "
            f"{self._router.name}{suffix})"
        )

    def _config_parts(self) -> List[str]:
        rebalance = "rebalance off"
        if self._rebalance is not None:
            rebalance = "rebalance auto@{:g} (max {})".format(
                self._rebalance.threshold, self._rebalance.max_shards
            )
        return [
            self.kind,
            "{} shards, {} router".format(len(self._shards), self._router.name),
            rebalance,
        ]

    def bind_telemetry(self, registry) -> None:
        """Bind the wrapper and every current shard to ``registry``.

        Registers a view over the existing rebalance / scatter tallies
        (the attributes stay authoritative) so one snapshot reports shard
        count, per-shard routed volumes and split pauses.
        """
        super().bind_telemetry(registry)
        for shard in self._shards:
            shard.bind_telemetry(registry)
        if registry.enabled:
            registry.add_view("sharded", self._telemetry_view)

    def _telemetry_view(self) -> Dict[str, object]:
        view: Dict[str, object] = {
            "shards": len(self._shards),
            "write_batches": self._writes,
            "rebalance_splits": len(self._rebalance_events),
            "rebalance_rows_moved": sum(
                event.rows_moved for event in self._rebalance_events
            ),
            # Routed through the timings section (monotonic clock).
            "split_pause_seconds": self._split_seconds,
        }
        for index, count in enumerate(self._shard_updates):
            view["shard_updates.{:04d}".format(index)] = count
        return view

    def shard_index_of(self, peer_id: str) -> int:
        """Home shard index of ``peer_id`` (memoised routing)."""
        index = self._route_cache.get(peer_id)
        if index is None:
            index = self._router.shard_of(peer_id)
            self._route_cache[peer_id] = index
        return index

    def _home_shard(self, peer_id: str) -> ComplaintTrustBackend:
        return self._shards[self.shard_index_of(peer_id)]

    # ------------------------------------------------------------------
    # Scatter helpers
    # ------------------------------------------------------------------
    def _route_many(self, subject_ids: Sequence[str]) -> np.ndarray:
        """Shard index per subject (memoised, one routing pass)."""
        cache = self._route_cache
        try:
            # Fast path: every id already routed — one C-level pass.
            return np.fromiter(
                map(cache.__getitem__, subject_ids),
                dtype=np.intp,
                count=len(subject_ids),
            )
        except KeyError:
            shard_of = self._router.shard_of
            for subject_id in subject_ids:
                if subject_id not in cache:
                    cache[subject_id] = shard_of(subject_id)
            return np.fromiter(
                map(cache.__getitem__, subject_ids),
                dtype=np.intp,
                count=len(subject_ids),
            )

    def _partition(
        self, subject_ids: Sequence[str]
    ) -> List[Tuple[int, np.ndarray, List[str]]]:
        """Group query positions by home shard (ascending shard index).

        Uses a stable argsort over the routed indices so the grouping runs
        at numpy speed; within a shard the caller's order is preserved,
        keeping per-subject accumulation sequences — and therefore float
        results — identical to the unsharded backend.
        """
        routed = self._route_many(subject_ids)
        order = np.argsort(routed, kind="stable")
        sorted_shards = routed[order]
        boundaries = np.flatnonzero(sorted_shards[1:] != sorted_shards[:-1]) + 1
        id_array = np.asarray(subject_ids, dtype=object)
        groups = []
        for positions in np.split(order, boundaries):
            index = int(routed[positions[0]])
            groups.append((index, positions, id_array[positions].tolist()))
        return groups

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def update_many(self, observations: Sequence[TrustObservation]) -> None:
        if not observations:
            return
        cache = self._route_cache
        cache_get = cache.get
        shard_of = self._router.shard_of
        buckets: List[Optional[List[TrustObservation]]] = [None] * len(self._shards)
        for observation in observations:
            subject_id = observation.subject_id
            home = cache_get(subject_id)
            if home is None:
                home = cache[subject_id] = shard_of(subject_id)
            bucket = buckets[home]
            if bucket is None:
                bucket = buckets[home] = []
            bucket.append(observation)
            if (
                observation.complaint_filed
                and observation.observer_id != observation.subject_id
            ):
                # The complaint also increments the complainant's filed
                # count, whose authoritative row lives in *its* home shard.
                observer_id = observation.observer_id
                filer_home = cache_get(observer_id)
                if filer_home is None:
                    filer_home = cache[observer_id] = shard_of(observer_id)
                if filer_home != home:
                    filer_bucket = buckets[filer_home]
                    if filer_bucket is None:
                        filer_bucket = buckets[filer_home] = []
                    filer_bucket.append(observation)
        self._writes += 1
        telemetry = self.telemetry
        with telemetry.span("sharded.update_many"):
            fanout = 0
            for index, bucket in enumerate(buckets):
                if bucket is not None:
                    fanout += 1
                    self._shard_updates[index] += len(bucket)
                    self._shards[index].update_many(bucket)
            if telemetry.enabled:
                telemetry.observe("sharded.update_fanout", fanout)
        self._maybe_rebalance()

    def record_complaints(
        self,
        complaints: Sequence[Complaint],
        batches: Optional[Sequence[int]] = None,
    ) -> None:
        """Scatter ready-made complaints to the accused's and filer's shards.

        One write: each shard gets its complaints, with their ``batches``
        tags, in one ``record_complaints``, and the split policy is checked
        once.
        """
        self._writes += 1
        for index, positions in self._complaint_buckets(complaints):
            self._shard_updates[index] += len(positions)
            self._shards[index].record_complaints(
                [complaints[position] for position in positions],
                None if batches is None else [batches[position] for position in positions],
            )
        self._maybe_rebalance()

    def _complaint_buckets(
        self, complaints: Sequence[Complaint]
    ) -> List[Tuple[int, List[int]]]:
        """Each shard that gets complaints, in shard order, with their
        positions: a complaint goes to its accused's and its filer's home."""
        buckets: Dict[int, List[int]] = {}
        for position, complaint in enumerate(complaints):
            home = self.shard_index_of(complaint.accused_id)
            buckets.setdefault(home, []).append(position)
            filer_home = self.shard_index_of(complaint.complainant_id)
            if filer_home != home:
                buckets.setdefault(filer_home, []).append(position)
        return sorted(buckets.items())

    # ------------------------------------------------------------------
    # Live rebalancing
    # ------------------------------------------------------------------
    def _maybe_rebalance(self) -> None:
        """Split hot shards until the policy's bounds hold (or max is hit)."""
        policy = self._rebalance
        if policy is None or self._in_rebalance:
            return
        if self._writes % policy.check_every:
            return
        self._in_rebalance = True
        try:
            while len(self._shards) < policy.max_shards:
                rows = self.shard_row_counts()
                total = int(rows.sum())
                # Hottest by resident rows; routed update traffic breaks
                # ties (two equally-sized shards: split the busier one).
                updates = self._shard_updates
                hot = max(
                    range(len(rows)),
                    key=lambda index: (int(rows[index]), updates[index]),
                )
                if not policy.should_split(int(rows[hot]), total, len(self._shards)):
                    break
                before = int(rows[hot])
                try:
                    self.split_shard(hot)
                except ShardSplitError:
                    break  # key range too narrow to split further
                if self._rebalance_events[-1].rows_kept >= before:
                    break  # the split moved nothing; stop rather than spin
        finally:
            self._in_rebalance = False

    def split_shard(self, index: int) -> int:
        """Split shard ``index`` in place; returns the new shard's index.

        The hot shard is snapshotted through the same per-shard manifest
        format :meth:`snapshot` emits, the router's key table gains the new
        shard (only the hot shard's keys move), the snapshot's complaint
        log is re-filed onto the two successors, and the shard table is
        swapped atomically.  Scores are bit-identical before and after.
        """
        if not 0 <= index < len(self._shards):
            raise TrustModelError(
                f"shard index {index} out of range [0, {len(self._shards)})"
            )
        started = time.perf_counter()  # repro: allow(DET001) — split-pause timing, reported via the telemetry timings section only
        state = self._shards[index].snapshot()
        saved_state = self._router.state()
        saved_shards = self._router.num_shards
        new_index = self._router.split(index)
        self._route_cache.clear()
        try:
            kept_shard, moved_shard, kept, moved = self._split_complaints(
                state, index, new_index
            )
        except Exception:
            # Roll the router back so a failed redistribution leaves the
            # backend exactly as it was: the shard table was never touched
            # and routing must not point at a phantom shard.
            self._router = create_router(
                self._router.name, saved_shards, state=saved_state
            )
            self._route_cache.clear()
            raise
        shards = list(self._shards)
        shards[index] = kept_shard
        shards.append(moved_shard)
        self._shards = tuple(shards)
        # Re-apportion the split shard's routed-update tally by surviving
        # rows so the traffic signal stays roughly proportional.
        updates = self._shard_updates[index]
        kept_updates = updates * kept // max(1, kept + moved)
        self._shard_updates[index] = kept_updates
        self._shard_updates.append(updates - kept_updates)
        self._writes += 1
        seconds = time.perf_counter() - started  # repro: allow(DET001) — split-pause timing, reported via the telemetry timings section only
        self._split_seconds += seconds
        self._rebalance_events.append(
            RebalanceEvent(
                source_shard=index,
                new_shard=new_index,
                rows_kept=kept,
                rows_moved=moved,
                num_shards_after=len(self._shards),
                seconds=seconds,
            )
        )
        return new_index

    def _complaint_shard_from_config(
        self, shard_state: Dict[str, np.ndarray], home_index: int
    ) -> ComplaintTrustBackend:
        """A fresh, row-restricted complaint shard with a snapshot's config."""
        tolerance_factor, trust_scale = (
            float(value) for value in shard_state["config"]
        )
        # The snapshot's scoring configuration overrides whatever the shard
        # params carry.
        return self._create_shard(
            home_index,
            tolerance_factor=tolerance_factor,
            trust_scale=trust_scale,
            metric_mode=str(np.asarray(shard_state["metric_mode"]).item()),
        )

    def _split_complaints(
        self, state: Dict[str, np.ndarray], kept_index: int, moved_index: int
    ) -> Tuple[ComplaintTrustBackend, ComplaintTrustBackend, int, int]:
        """Re-file a complaint shard's log onto two successor shards.

        Every complaint in the hot shard's store involves at least one peer
        homed in the old range; it is re-delivered to whichever of the two
        successors now homes each involved peer.  Shards outside the split
        already hold their own copies (the two-shard delivery invariant),
        so nothing is delivered beyond the successors and no count changes.
        """
        successors = (
            self._complaint_shard_from_config(state, kept_index),
            self._complaint_shard_from_config(state, moved_index),
        )
        batches: Tuple[List[Complaint], List[Complaint]] = ([], [])
        for complaint in complaints_from_snapshot(state):
            targets = {
                self.shard_index_of(complaint.accused_id),
                self.shard_index_of(complaint.complainant_id),
            }
            if kept_index in targets:
                batches[0].append(complaint)
            if moved_index in targets:
                batches[1].append(complaint)
        for side in (0, 1):
            successors[side].refile(batches[side])
        return (
            successors[0],
            successors[1],
            successors[0].row_count(),
            successors[1].row_count(),
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _gather_by_home(
        self,
        subject_ids: Sequence[str],
        out: np.ndarray,
        answer: Callable[
            [ComplaintTrustBackend, List[str], np.ndarray, float], np.ndarray
        ],
    ) -> np.ndarray:
        """Ask each home shard about its own subjects; fill ``out`` in caller order.

        ``answer(shard, subjects, positions, reference)`` maps one home
        shard's subjects (at ``positions`` in the caller's sequence) through
        the shard's scoring or decision rule against the global median
        reference.
        """
        if not len(subject_ids):
            return out
        groups = self._partition(subject_ids)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.observe("sharded.query_fanout", len(groups))
        reference = self.reference_metric()
        for index, positions, subjects in groups:
            out[positions] = answer(
                self._shards[index], subjects, positions, reference
            )
        return out

    def scores_for(
        self, subject_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        with self.telemetry.span("sharded.scores_for"):
            return self._gather_by_home(
                subject_ids,
                np.zeros(len(subject_ids)),
                lambda shard, subjects, _, reference: shard.scores_from_metrics(
                    shard.metrics_for(subjects), reference
                ),
            )

    def trust_decisions(
        self,
        subject_ids: Sequence[str],
        threshold: float = 0.5,
        now: Optional[float] = None,
    ) -> np.ndarray:
        """Median-rule decisions (``threshold`` is ignored, as unsharded)."""
        return self._gather_by_home(
            subject_ids,
            np.zeros(len(subject_ids), dtype=bool),
            lambda shard, subjects, _, reference: shard.decisions_from_metrics(
                shard.metrics_for(subjects), reference
            ),
        )

    def aggregate_witness_reports(
        self,
        subject_ids: Sequence[str],
        witness_belief_matrix: np.ndarray,
        discount_vector: np.ndarray,
        now: Optional[float] = None,
    ) -> np.ndarray:
        matrix, discounts = validate_witness_matrix(
            len(subject_ids),
            witness_belief_matrix,
            discount_vector,
            positive=False,
        )
        return self._gather_by_home(
            subject_ids,
            np.zeros(len(subject_ids)),
            lambda shard, subjects, positions, reference: shard.scores_from_metrics(
                shard.witness_metrics_for(
                    subjects, matrix[:, positions, :], discounts
                ),
                reference,
            ),
        )

    def known_subjects(self) -> Tuple[str, ...]:
        # Shards are row-filtered to their home range, so a plain
        # concatenation is the home partition.
        return tuple(
            subject for shard in self._shards for subject in shard.known_subjects()
        )

    def reference_metric(self) -> float:
        """The *global* community median metric.

        Pools every shard's (home-filtered) in-store metric array into one
        median — the same multiset an unsharded backend computes its
        reference over, so the decision rule is unchanged by sharding.
        Cached per write version (one query batch recomputes it at most
        once).
        """
        version, cached = self._reference_cache
        if version == self._writes:
            return cached
        values = np.concatenate(
            [shard.metric_values_in_store() for shard in self._shards]
        )
        reference = float(np.median(values)) if values.size else 0.0
        self._reference_cache = (self._writes, reference)
        return reference

    def counts(self, agent_id: str) -> Tuple[int, int]:
        """``(received, filed)`` complaint counts from the agent's home shard."""
        return self._home_shard(agent_id).counts(agent_id)

    def trustworthy(self, subject_id: str) -> bool:
        return bool(self.trust_decisions((subject_id,))[0])

    # ------------------------------------------------------------------
    # Complaint filing and listing — a sharded store can be a community's
    # shared complaint store, like a single complaint backend.
    # ------------------------------------------------------------------
    # Every shard shares one scoring configuration; shard 0 reports it.
    @property
    def tolerance_factor(self) -> float:
        return self._shards[0].tolerance_factor

    @property
    def metric_mode(self) -> str:
        return self._shards[0].metric_mode

    def file_complaint(self, complaint: Complaint) -> None:
        self.record_complaints((complaint,))

    def all_complaints(self) -> Tuple[Complaint, ...]:
        """The global complaint log, each complaint exactly once.

        Cross-shard complaints are stored in two shards; collecting each
        shard's log filtered to *accused-home* complaints de-duplicates
        without comparing complaint values (identical duplicate filings are
        legitimate evidence and must survive).
        """
        return tuple(
            complaint
            for index, shard in enumerate(self._shards)
            for complaint in shard.all_complaints()
            if self.shard_index_of(complaint.accused_id) == index
        )

    # ------------------------------------------------------------------
    # Persistence: per-shard manifest, re-shardable
    # ------------------------------------------------------------------
    def snapshot_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Stream the per-shard manifest one entry at a time.

        Manifest metadata (router name *and boundary state*, inner kind,
        shard count) streams first, then every shard's own
        ``snapshot_items`` under its ``shard-NNNN/`` key prefix, then the
        prefix manifest.  Shard columns are materialised one at a time, so
        checkpointing a million-row sharded table holds at most one
        evidence column in memory beyond the consumer's own buffering —
        :meth:`snapshot` is simply ``dict`` of this stream.  The router
        state matters once live splits have run: the shards are no longer
        equal-width, and re-filing a snapshot's complaint logs needs the
        exact key table they were written under.
        """
        yield "backend", np.array(self.name)
        yield "kind", np.array(self.kind)
        yield "router", np.array(self._router.name)
        yield "num_shards", np.array([len(self._shards)])
        router_state = self._router.state()
        if router_state is not None:
            yield "router_state", router_state
        prefixes: List[str] = []
        for index, shard in enumerate(self._shards):
            prefix = f"shard-{index:04d}"
            prefixes.append(prefix)
            for key, value in shard.snapshot_items():
                yield f"{prefix}/{key}", value
        yield "manifest", np.array(prefixes, dtype=object)

    def _check_manifest(self, meta: Dict[str, np.ndarray]) -> None:
        """Reject a manifest this backend cannot restore, before any change."""
        self._check_snapshot_backend(meta)
        kind = str(np.asarray(meta.get("kind")).item())
        if kind != self.kind:
            raise TrustModelError(
                f"snapshot holds {kind!r} shards; sharded backends hold only "
                f"the {self.kind!r} store"
            )

    def restore_items(
        self, items: Iterable[Tuple[str, np.ndarray]]
    ) -> None:
        """Restore from a :meth:`snapshot_items` stream, shard by shard.

        When the stream's recorded router layout matches the live one, each
        shard is restored as soon as its ``shard-NNNN/`` group completes —
        the full manifest is never materialised.  A layout mismatch needs
        the whole snapshot to re-file the complaint log, so the stream is
        drained into :meth:`restore`.
        """
        iterator = iter(items)
        meta: Dict[str, np.ndarray] = {}
        first_shard: Optional[Tuple[str, np.ndarray]] = None
        for key, value in iterator:
            if key.startswith("shard-") and "/" in key:
                first_shard = (key, value)
                break
            meta[key] = value
        self._check_manifest(meta)
        old_router = create_router(
            str(np.asarray(meta["router"]).item()),
            int(meta["num_shards"][0]),
            state=meta.get("router_state"),
        )
        entries = (
            itertools.chain([first_shard], iterator)
            if first_shard is not None
            else iterator
        )
        if not old_router.same_layout(self._router):
            # Re-sharding needs every row before anything is placed; drain
            # the stream and take the materialised path.
            state = dict(meta)
            state.update(entries)
            self.restore(state)
            return
        self._route_cache.clear()
        self._writes += 1
        restored = 0
        current_prefix: Optional[str] = None
        shard_state: Dict[str, np.ndarray] = {}

        def flush() -> None:
            nonlocal restored, shard_state
            if current_prefix is None:
                return
            index = int(current_prefix[len("shard-"):])
            if not 0 <= index < len(self._shards):
                raise TrustModelError(
                    f"snapshot prefix {current_prefix!r} out of range for "
                    f"{len(self._shards)} shards"
                )
            self._shards[index].restore(shard_state)
            restored += 1
            shard_state = {}

        for key, value in entries:
            if not (key.startswith("shard-") and "/" in key):
                continue  # trailing manifest entry
            prefix, _, inner = key.partition("/")
            if prefix != current_prefix:
                flush()
                current_prefix = prefix
            shard_state[inner] = value
        flush()
        if restored != len(self._shards):
            raise TrustModelError(
                f"snapshot stream restored {restored} shards, "
                f"backend has {len(self._shards)}"
            )
        self._shard_updates = [0] * len(self._shards)

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        self._check_manifest(state)
        prefixes = [str(prefix) for prefix in state["manifest"]]
        if len(prefixes) != int(state["num_shards"][0]):
            raise TrustModelError(
                f"snapshot manifest lists {len(prefixes)} shards but records "
                f"num_shards={int(state['num_shards'][0])}"
            )
        shard_states: List[Dict[str, np.ndarray]] = []
        for prefix in prefixes:
            marker = prefix + "/"
            shard_states.append(
                {
                    key[len(marker):]: value
                    for key, value in state.items()
                    if key.startswith(marker)
                }
            )
        old_router = create_router(
            str(np.asarray(state["router"]).item()),
            len(shard_states),
            state=state.get("router_state"),
        )
        self._route_cache.clear()
        self._writes += 1
        if old_router.same_layout(self._router):
            for shard, shard_state in zip(self._shards, shard_states):
                shard.restore(shard_state)
            self._shard_updates = [0] * len(self._shards)
            return
        # A restore is not traffic: re-filing the log tallies no load.
        self._restore_resharded(old_router, shard_states)
        self._shard_updates = [0] * len(self._shards)

    def _restore_resharded(
        self, old_router: ShardRouter, shard_states: List[Dict[str, np.ndarray]]
    ) -> None:
        """Re-file a snapshot taken under a different shard layout.

        Handles any layout change: different shard count (more shards than
        peers leaves some shards empty; a single shard absorbs everything),
        different router strategy, or the uneven boundary tables a
        rebalanced run checkpoints.  The global complaint log is
        de-duplicated by keeping each shard's accused-home complaints, then
        re-filed onto fresh shards under the live layout.
        """
        complaints = [
            complaint
            for index, shard_state in enumerate(shard_states)
            for complaint in complaints_from_snapshot(shard_state)
            if old_router.shard_of(complaint.accused_id) == index
        ]
        self._shards = tuple(
            self._complaint_shard_from_config(shard_states[0], index)
            for index in range(len(self._shards))
        )
        for index, positions in self._complaint_buckets(complaints):
            self._shards[index].refile([complaints[position] for position in positions])
