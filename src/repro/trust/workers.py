"""Multi-worker shard distribution: one process per complaint-store shard.

The paper's reputation system is distributed by construction — complaint
data lives on many peers, not in one address space — yet
:class:`~repro.trust.sharding.ShardedBackend` executes every shard inside
the calling process, so the GIL caps the shared complaint store at one
core.  :class:`WorkerShardedBackend` lifts the same sharded layout across
process boundaries: each complaint shard lives in its own
``multiprocessing`` worker and the parent keeps only the router, so writes
fan out over the transport and run concurrently across cores while queries
scatter/gather into caller order.

The deployment reuses the mechanisms the sharded layer already has,
unchanged, as its distribution protocol:

* the sharded layer's read table (``_COMPOSITES``) is the wire protocol
  for queries — the parent sends ``(op, args)`` requests and each worker
  answers them from the same table the in-process backend uses, so the
  only read code the worker layer owns is its ask-then-collect
  ``_scatter_gather``;
* the per-shard ``shard-NNNN/*`` snapshot manifest is the checkpoint and
  handoff format — a worker checkpoints by streaming its manifest through
  the parent, and a :class:`~repro.trust.sharding.RebalancePolicy` split
  becomes a worker handoff (the hot worker snapshots, freshly spawned
  workers restore the successor states, the atomic router-table swap is
  the cutover);
* the ``(origin, seq)`` journal/digest machinery of
  :mod:`repro.simulation.repair` is the crash-recovery wire format — with
  ``recovery=True`` the parent journals every write batch per shard, and a
  killed worker is healed by respawning it from its last checkpoint
  manifest and gossip-backfilling exactly the journal entries the
  checkpoint digest does not cover, until
  :attr:`WorkerShardedBackend.effective_delivery_ratio` returns to 1.0;
* the :class:`~repro.distributed.transport.ShardTransport` interface keeps
  the medium pluggable — ``transport="process"`` uses pipes to real worker
  processes, ``transport="loopback"`` runs the identical protocol against
  in-process threads whose messages still round-trip through pickle (the
  test harness; nothing in the protocol precludes a socket transport).

Score invisibility is non-negotiable and holds by construction: batches are
partitioned by the same router, applied per shard in the same order, and
gathered back into caller order, so a distributed same-seed run is
bit-identical to the in-process sharded run — with the ``compact`` layout
too, since complaint counts are small integers that float32 holds exactly.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
import traceback
import weakref
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.distributed.transport import (
    PipeTransport,
    ShardTransport,
    loopback_pair,
)
from repro.exceptions import TrustModelError
from repro.trust.backend import (
    ComplaintTrustBackend,
    TrustBackend,
    TrustObservation,
)
from repro.trust.evidence import Complaint
from repro.trust.sharding import (
    RebalancePolicy,
    ShardedBackend,
    _dispatch,
    create_router,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.repair import (
        Digest,
        EvidenceEntry,
        EvidenceJournal,
        SequenceTracker,
    )


def _repair():
    """The crash-recovery wire-format module, imported lazily.

    ``repro.simulation`` imports back into the trust package (its peers
    construct trust backends), so pulling :mod:`repro.simulation.repair` in
    at import time would close an import cycle through whichever package
    the process happens to import first.  Recovery machinery is only
    needed at runtime; by then every package involved is fully initialised.
    """
    from repro.simulation import repair

    return repair


__all__ = [
    "WORKER_TRANSPORTS",
    "WorkerCrashError",
    "HomeRowFilter",
    "WorkerShardProxy",
    "WorkerShardedBackend",
]

#: Transport media selectable for a worker deployment.
WORKER_TRANSPORTS = ("process", "loopback")

_EMPTY_DIGEST: Digest = (0, frozenset())


class RemoteWorkerTraceback(Exception):
    """Carrier for a worker-side traceback, chained onto re-raised errors.

    Tracebacks do not survive pickling, so a worker error used to arrive
    at the parent with its stack silently dropped.  The worker now stamps
    the formatted traceback onto the exception before sending, and the
    parent re-raises ``from`` this carrier so the worker-side stack shows
    up in the chained report.
    """

    def __str__(self) -> str:
        return "worker-side traceback:\n" + str(self.args[0])


def _stamp_remote_traceback(exc: BaseException) -> BaseException:
    """Attach the formatted traceback before the exception crosses the wire."""
    try:
        exc._remote_traceback = "".join(  # type: ignore[attr-defined]
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    except (AttributeError, TypeError):  # slots-only or exotic exceptions
        pass
    return exc


def _raise_remote(exc: BaseException) -> "NoReturn":
    """Re-raise a worker-sent exception, chaining its remote traceback."""
    remote = None
    try:
        remote = exc.__dict__.pop("_remote_traceback", None)
    except AttributeError:  # no __dict__ (slots-only exception)
        pass
    if remote is not None:
        raise exc from RemoteWorkerTraceback(remote)
    raise exc


class WorkerCrashError(TrustModelError):
    """A shard's worker is gone (crashed, killed, or its transport broke).

    Without ``recovery=True`` any operation touching the dead shard raises
    this; with recovery enabled, writes keep accumulating in the parent's
    journal and :meth:`WorkerShardedBackend.heal_workers` repairs the
    partition.
    """


class HomeRowFilter:
    """Picklable "is this agent homed in shard N" predicate.

    The in-process sharded backend restricts complaint shards with a
    closure over its live router; a closure cannot cross a pipe, so worker
    shards get this self-contained equivalent built from the router's
    serialisable boundary state.  The frozen layout stays correct across
    later splits because a split only moves keys *off the split shard* —
    every other shard's home range is untouched, and the split shard itself
    is replaced by successors carrying fresh filters for the new layout.
    """

    def __init__(
        self,
        router_name: str,
        num_shards: int,
        state: Optional[np.ndarray],
        home: int,
    ):
        self._router_name = router_name
        self._num_shards = num_shards
        self._state = state
        self._home = home
        self._router = create_router(router_name, num_shards, state=state)
        self._cache: Dict[str, int] = {}

    @property
    def home(self) -> int:
        return self._home

    def __call__(self, agent_id: str) -> bool:
        index = self._cache.get(agent_id)
        if index is None:
            index = self._cache[agent_id] = self._router.shard_of(agent_id)
        return index == self._home

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "router_name": self._router_name,
            "num_shards": self._num_shards,
            "state": self._state,
            "home": self._home,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(**state)  # type: ignore[misc]


# ----------------------------------------------------------------------
# Wire codecs: columnar batches pickle an order of magnitude faster than
# lists of frozen dataclass instances, and the parent's packing cost is
# what serialises the otherwise-parallel write path.
# ----------------------------------------------------------------------
def _pack_observations(
    observations: Sequence[TrustObservation],
) -> Tuple[List[str], List[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    count = len(observations)
    observers = [o.observer_id for o in observations]
    subjects = [o.subject_id for o in observations]
    honest = np.fromiter((o.honest for o in observations), dtype=bool, count=count)
    times = np.fromiter(
        (o.timestamp for o in observations), dtype=np.float64, count=count
    )
    weights = np.fromiter(
        (o.weight for o in observations), dtype=np.float64, count=count
    )
    filed = np.fromiter(
        (
            -1 if o.files_complaint is None else int(o.files_complaint)
            for o in observations
        ),
        dtype=np.int8,  # repro: allow(DTYPE001) — tri-state complaint flag wire encoding; unpacked to bool/None before any evidence math
        count=count,
    )
    return observers, subjects, honest, times, weights, filed


def _unpack_observations(payload: Tuple) -> List[TrustObservation]:
    observers, subjects, honest, times, weights, filed = payload
    return [
        TrustObservation(
            observer_id=observer,
            subject_id=subject,
            honest=is_honest,
            timestamp=timestamp,
            weight=weight,
            files_complaint=None if files < 0 else bool(files),
        )
        for observer, subject, is_honest, timestamp, weight, files in zip(
            observers,
            subjects,
            honest.tolist(),
            times.tolist(),
            weights.tolist(),
            filed.tolist(),
        )
    ]


def _pack_complaints(
    complaints: Sequence[Complaint],
) -> Tuple[List[str], List[str], np.ndarray]:
    return (
        [c.complainant_id for c in complaints],
        [c.accused_id for c in complaints],
        np.fromiter(
            (c.timestamp for c in complaints),
            dtype=np.float64,
            count=len(complaints),
        ),
    )


def _unpack_complaints(payload: Tuple) -> List[Complaint]:
    complainants, accused, timestamps = payload
    return [
        Complaint(
            complainant_id=complainant, accused_id=accused_id, timestamp=timestamp
        )
        for complainant, accused_id, timestamp in zip(
            complainants, accused, timestamps.tolist()
        )
    ]


# ----------------------------------------------------------------------
# Worker side: a message loop hosting one inner backend.
# ----------------------------------------------------------------------
_WRITE_DECODERS = {
    "update_many": _unpack_observations,
    "record_complaints": _unpack_complaints,
}

def _apply_write(
    backend: ComplaintTrustBackend, method: str, payload: Tuple
) -> int:
    decoder = _WRITE_DECODERS.get(method)
    if decoder is None:
        raise TrustModelError(f"unknown worker write op {method!r}")
    batch = decoder(payload)
    getattr(backend, method)(batch)
    return len(batch)


def _worker_main(transport: ShardTransport, params: Dict[str, Any]) -> None:
    """Serve one complaint shard over ``transport`` until told to stop.

    Writes are fire-and-forget: the parent never waits for them, which is
    what lets a scattered batch run on every worker concurrently.  A write
    failure is held and surfaced on the next synchronous call, after which
    the worker keeps serving.  Calls and snapshot streams reply in FIFO
    order — the only ordering the proxy relies on.  Calls are answered
    through the sharded layer's read table (``_dispatch``).
    """
    try:
        backend = ComplaintTrustBackend(**params)
    except Exception as exc:  # constructor errors surface at the parent
        try:
            transport.send(("err", _stamp_remote_traceback(exc)))
        except (BrokenPipeError, OSError):
            pass
        transport.close()
        return
    pending_error: Optional[Exception] = None
    # Worker-local op tallies shipped to the parent on demand via the
    # ``__stats__`` pseudo-call (see WorkerShardedBackend.worker_stats).
    stats: Dict[str, int] = {
        "writes": 0,
        "write_units": 0,
        "calls": 0,
        "snapshots": 0,
    }
    try:
        transport.send(("ready",))
        while True:
            try:
                message = transport.recv()
            except EOFError:
                break
            op = message[0]
            if op == "write":
                if pending_error is None:
                    try:
                        units = _apply_write(backend, message[1], message[2])
                    except Exception as exc:
                        pending_error = _stamp_remote_traceback(exc)
                    else:
                        stats["writes"] += 1
                        stats["write_units"] += units
            elif op == "call":
                if message[1] == "__stats__":
                    # Telemetry probe: must not consume a held write error
                    # (the error belongs to the next *real* call).
                    payload = dict(stats)
                    payload["pending_error"] = 1 if pending_error else 0
                    transport.send(("ok", payload))
                    continue
                if pending_error is not None:
                    error, pending_error = pending_error, None
                    transport.send(("err", error))
                    continue
                stats["calls"] += 1
                try:
                    result = _dispatch(backend, message[1], message[2])
                except Exception as exc:
                    transport.send(("err", _stamp_remote_traceback(exc)))
                else:
                    transport.send(("ok", result))
            elif op == "snap":
                stats["snapshots"] += 1
                try:
                    for key, value in backend.snapshot_items():
                        transport.send(("item", key, value))
                except Exception as exc:
                    transport.send(("err", _stamp_remote_traceback(exc)))
                transport.send(("end",))
            elif op == "stop":
                transport.send(("bye",))
                break
            else:
                transport.send(
                    ("err", TrustModelError(f"unknown worker op {op!r}"))
                )
    except (BrokenPipeError, OSError):
        pass  # parent went away; nothing left to serve
    finally:
        transport.close()


def _worker_entry(connection: Any, params: Dict[str, Any]) -> None:
    """Top-level process target (spawn-safe: importable, picklable args)."""
    _worker_main(PipeTransport(connection), params)


def _stop_proxies(registry: List["WorkerShardProxy"]) -> None:
    for proxy in list(registry):
        proxy.stop()
    registry.clear()


# ----------------------------------------------------------------------
# Parent side: a TrustBackend facade over one remote shard.
# ----------------------------------------------------------------------
class WorkerShardProxy(TrustBackend):
    """The parent-side handle of one shard-hosting worker.

    Stands in for a complaint shard in the sharded wrapper's shard table.
    Writes (``update_many`` / ``record_complaints``) are asynchronous
    sends; every read is an ``(op, args)`` request from the sharded read
    table, issued in two phases — :meth:`ask` then :meth:`result` — so the
    owning backend can scatter a query to every worker before collecting
    any reply.  Snapshot streaming, ``restore`` and ``restrict_rows`` round
    out the surface the sharded layer drives directly.
    """

    name = "worker-shard"

    def __init__(
        self,
        transport: ShardTransport,
        runner: Any,
        label: str,
        spawn_params: Dict[str, Any],
        journaling: bool = False,
    ):
        self._transport = transport
        self.runner = runner
        self.label = label
        self.spawn_params = spawn_params
        self.dead = False
        self.restrict_filter: Optional[HomeRowFilter] = None
        # Telemetry only: perf_counter stamps of outstanding ask()s, FIFO
        # with the reply channel.  Empty whenever telemetry is off.  The
        # per-label metric names are precomputed here so the hot RPC path
        # never builds strings per call (TEL001).
        self._pending: "deque[float]" = deque()
        self._rpc_gauge_metric = "worker.rpc.in_flight_max." + label
        self._rpc_span_metric = "worker.rpc.round_trip." + label
        # Recovery bookkeeping (populated only when journaling is on): the
        # journal holds every write batch ever routed here, ``applied``
        # tracks which of them the live worker has provably received, and
        # the checkpoint pair is the durable baseline a respawn starts from.
        self.journal: Optional["EvidenceJournal"] = (
            _repair().EvidenceJournal() if journaling else None
        )
        self.applied: Optional["SequenceTracker"] = (
            _repair().SequenceTracker() if journaling else None
        )
        self.seq = 0
        self.checkpoint_manifest: Optional[Dict[str, np.ndarray]] = None
        self.checkpoint_digest: Digest = _EMPTY_DIGEST
        reply = self._recv()
        if reply[0] == "err":
            self.stop()
            _raise_remote(reply[1])
        if reply[0] != "ready":
            self.stop()
            raise TrustModelError(
                f"worker {label!r} sent {reply[0]!r} instead of the ready handshake"
            )

    # -- liveness and transport plumbing --------------------------------
    def alive(self) -> bool:
        """Whether the worker looks up (cheap check, no message exchange)."""
        if self.dead:
            return False
        runner = self.runner
        if runner is not None and not runner.is_alive():
            return False
        return True

    def mark_dead(self) -> None:
        """Note the worker's death; roll ``applied`` back to the checkpoint.

        Send success only proves a batch reached the pipe buffer, not the
        worker; once the worker is dead, the checkpoint digest is the only
        thing provably applied, so everything past it goes back into the
        repairable gap.
        """
        if self.dead:
            return
        self.dead = True
        if self.applied is not None:
            self.applied = _repair().SequenceTracker.from_digest(
                self.checkpoint_digest
            )

    def _crash(self, cause: Optional[BaseException]) -> WorkerCrashError:
        self.mark_dead()
        error = WorkerCrashError(f"worker {self.label!r} is down")
        error.__cause__ = cause
        return error

    def _send(self, message: Tuple) -> None:
        if self.dead:
            raise self._crash(None)
        try:
            self._transport.send(message)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise self._crash(exc)

    def _recv(self) -> Tuple:
        if self.dead:
            raise self._crash(None)
        try:
            return self._transport.recv()
        except (EOFError, OSError) as exc:
            raise self._crash(exc)

    # -- two-phase request/reply ----------------------------------------
    def ask(self, method: str, *args: Any) -> None:
        """Send a request without waiting (phase one of a parallel gather)."""
        self._send(("call", method, args))
        telemetry = self.telemetry
        if telemetry.enabled:
            self._pending.append(time.perf_counter())  # repro: allow(DET001) — RPC latency stamp, telemetry timings section only
            telemetry.count("worker.rpc.calls")
            telemetry.gauge_max(self._rpc_gauge_metric, len(self._pending))

    def result(self) -> Any:
        """Collect the reply of the oldest outstanding :meth:`ask`."""
        reply = self._recv()
        if self._pending:
            started = self._pending.popleft()
            self.telemetry.observe_seconds(
                self._rpc_span_metric,
                time.perf_counter() - started,  # repro: allow(DET001) — RPC latency stamp, telemetry timings section only
            )
        tag = reply[0]
        if tag == "ok":
            return reply[1]
        if tag == "err":
            _raise_remote(reply[1])
        raise TrustModelError(f"unexpected worker reply {tag!r}")

    def call(self, method: str, *args: Any) -> Any:
        self.ask(method, *args)
        return self.result()

    # -- writes (fire-and-forget, journaled under recovery) -------------
    def _write(self, method: str, payload: Tuple) -> None:
        seq = None
        if self.journal is not None:
            self.seq += 1
            seq = self.seq
            self.journal.add(
                _repair().EvidenceEntry(
                    origin_id=self.label,
                    seq=seq,
                    recipient_id=self.label,
                    kind=method,
                    payload=payload,
                    emitted_at=0.0,
                )
            )
        if self.dead:
            if self.journal is None:
                raise self._crash(None)
            return  # journaled; heal_workers() will backfill it
        try:
            self._transport.send(("write", method, payload))
        except (BrokenPipeError, EOFError, OSError) as exc:
            if self.journal is None:
                raise self._crash(exc)
            self.mark_dead()
            return
        if self.applied is not None and seq is not None:
            self.applied.add(seq)

    def replay(self, entry: EvidenceEntry) -> None:
        """Re-send one journaled write batch (the gossip-backfill push)."""
        self._send(("write", entry.kind, entry.payload))
        if self.applied is not None:
            self.applied.add(entry.seq)

    def update_many(self, observations: Sequence[TrustObservation]) -> None:
        if not observations:
            return
        self._write("update_many", _pack_observations(observations))

    def record_complaints(self, complaints: Sequence[Complaint]) -> None:
        if not complaints:
            return
        self._write("record_complaints", _pack_complaints(complaints))

    # -- shard configuration -----------------------------------------------
    def restrict_rows(self, row_filter: HomeRowFilter) -> None:
        self.restrict_filter = row_filter
        self.call("restrict_rows", row_filter)

    # -- persistence ------------------------------------------------------
    def snapshot_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Stream the worker's manifest without materialising it here.

        Pending writes are applied first (the stream request rides the same
        FIFO channel), so the manifest is consistent with everything sent
        before it.  Abandoning the generator early drains the remaining
        stream to keep the channel in sync.
        """
        self._send(("snap",))
        finished = False
        try:
            while True:
                reply = self._recv()
                tag = reply[0]
                if tag == "end":
                    finished = True
                    return
                if tag == "err":
                    _raise_remote(reply[1])
                yield reply[1], reply[2]
        finally:
            if not finished and not self.dead:
                # Abandoned stream: drain to the end marker so the FIFO
                # channel stays in sync for the next caller.  Only channel
                # death is survivable here (EXC001) — the proxy is already
                # marked dead by _recv, and any other error must surface.
                try:
                    while self._recv()[0] != "end":
                        pass
                except (WorkerCrashError, EOFError, OSError):
                    pass

    def snapshot(self) -> Dict[str, np.ndarray]:
        return dict(self.snapshot_items())

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        self.call("restore", state)

    # -- shutdown ---------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Tell the worker to exit and release the transport (idempotent)."""
        if not self.dead:
            try:
                self._transport.send(("stop",))
                if self._transport.poll(timeout):
                    self._transport.recv()  # the "bye"
            except (BrokenPipeError, EOFError, OSError):
                pass
        self.dead = True
        try:
            self._transport.close()
        except OSError:
            pass
        runner = self.runner
        if runner is not None:
            runner.join(timeout)
            if runner.is_alive() and hasattr(runner, "terminate"):
                runner.terminate()
                runner.join(timeout)

    def describe(self) -> str:
        return f"worker-shard({self.label})"


# ----------------------------------------------------------------------
# The distributed backend
# ----------------------------------------------------------------------
class WorkerShardedBackend(ShardedBackend):
    """A :class:`ShardedBackend` whose shards live in worker processes.

    Same interface, same routing, same snapshot format and — by
    construction — the same scores as the in-process sharded backend; the
    difference is purely *where* the shards execute.  ``update_many`` /
    ``record_complaints`` partition a batch exactly as the in-process
    wrapper does and hand each bucket to its home worker as an
    asynchronous message, so the per-shard numpy work runs concurrently
    across cores; queries scatter in one pass (every worker computes its
    partition simultaneously) and gather replies back into caller order.

    Parameters beyond :class:`ShardedBackend`'s:

    transport:
        ``"process"`` (real worker processes over pipes) or ``"loopback"``
        (in-process threads over the pickling loopback — the deterministic
        test medium).
    recovery:
        Journal every write batch per shard so a crashed worker can be
        healed: :meth:`checkpoint` stores each worker's manifest and the
        digest of what it provably covers, :meth:`heal_workers` respawns
        dead workers from their manifests and gossip-backfills the journal
        entries the digest misses, and :attr:`effective_delivery_ratio`
        reports the journal coverage of the live fleet (1.0 = fully
        healed).

    Use as a context manager (or call :meth:`close`) to stop the workers
    deterministically; a garbage-collected backend shuts its fleet down
    via a finalizer as a backstop.
    """

    def __init__(
        self,
        num_shards: int,
        router: object = "hash",
        rebalance: Optional[RebalancePolicy] = None,
        transport: str = "process",
        recovery: bool = False,
        **shard_params: object,
    ):
        if transport not in WORKER_TRANSPORTS:
            raise TrustModelError(
                f"worker transport must be one of {WORKER_TRANSPORTS}, "
                f"got {transport!r}"
            )
        self._transport_kind = transport
        self._recovery = bool(recovery)
        self._spawn_counter = itertools.count()
        self._last_worker_stats: Dict[str, Dict[str, int]] = {}
        self._healed_total = 0
        self._proxy_registry: List[WorkerShardProxy] = []
        self._finalizer = weakref.finalize(
            self, _stop_proxies, self._proxy_registry
        )
        if transport == "process":
            methods = multiprocessing.get_all_start_methods()
            self._mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
        else:
            self._mp_context = None
        super().__init__(
            num_shards, router=router, rebalance=rebalance, **shard_params
        )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    @property
    def transport_kind(self) -> str:
        return self._transport_kind

    @property
    def recovery(self) -> bool:
        return self._recovery

    @property
    def _proxies(self) -> Tuple[WorkerShardProxy, ...]:
        """The shard table, typed as the proxies it holds here."""
        return self._shards  # type: ignore[return-value]

    def _create_shard(self, **overrides: object) -> WorkerShardProxy:
        params = dict(self._shard_params)
        params.update(overrides)
        label = f"worker-{next(self._spawn_counter):04d}"
        proxy = self._spawn(label, params)
        if self.telemetry.enabled:
            proxy.bind_telemetry(self.telemetry)
        self._proxy_registry.append(proxy)
        return proxy

    def _spawn(self, label: str, params: Dict[str, object]) -> WorkerShardProxy:
        if self._transport_kind == "loopback":
            parent_end, worker_end = loopback_pair()
            runner: Any = threading.Thread(
                target=_worker_main,
                args=(worker_end, params),
                name=label,
                daemon=True,
            )
            runner.start()
            transport: ShardTransport = parent_end
        else:
            parent_connection, child_connection = self._mp_context.Pipe()
            runner = self._mp_context.Process(
                target=_worker_entry,
                args=(child_connection, params),
                name=label,
                daemon=True,
            )
            runner.start()
            child_connection.close()
            transport = PipeTransport(parent_connection)
        return WorkerShardProxy(
            transport, runner, label, dict(params), journaling=self._recovery
        )

    def _restrict_one(self, shard: ComplaintTrustBackend, home: int) -> None:
        shard.restrict_rows(
            HomeRowFilter(
                self._router.name,
                self._router.num_shards,
                self._router.state(),
                home,
            )
        )

    def _reap(self) -> None:
        """Stop workers whose shards were replaced (split/restore handoffs)."""
        live = {id(shard) for shard in self._shards}
        retired = [
            proxy for proxy in self._proxy_registry if id(proxy) not in live
        ]
        if not retired:
            return
        self._proxy_registry[:] = [
            proxy for proxy in self._proxy_registry if id(proxy) in live
        ]
        for proxy in retired:
            proxy.stop()

    def close(self) -> None:
        """Stop every worker and release the transports (idempotent)."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "WorkerShardedBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def flush(self) -> None:
        """Barrier: every write sent so far has been applied by its worker.

        Also surfaces any held worker-side write error.  Benchmarks (and
        anything timing the write path) must flush before reading the
        clock — the scatter itself returns before the workers finish.
        Under telemetry the barrier doubles as the stats ship-back point:
        each flush refreshes the parent-side cache of worker op tallies.
        """
        self._ask_all("ping")
        if self.telemetry.enabled:
            self._last_worker_stats = self.worker_stats()

    def worker_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-worker op tallies fetched over the transport (live workers).

        Each worker counts writes, write units, synchronous calls, and
        snapshot streams on its side of the pipe; the ``__stats__``
        pseudo-call ships them back without perturbing held write errors.
        Dead workers are skipped (their last shipped tallies survive in
        the telemetry cache refreshed by :meth:`flush`).
        """
        stats: Dict[str, Dict[str, int]] = {}
        for proxy in self._proxies:
            if not proxy.alive():
                continue
            try:
                stats[proxy.label] = dict(proxy.call("__stats__"))
            except (WorkerCrashError, TrustModelError):
                continue
        return stats

    def bind_telemetry(self, registry: Any) -> None:
        super().bind_telemetry(registry)
        if registry.enabled:
            registry.add_view("worker", self._worker_view)

    def _worker_view(self) -> Dict[str, float]:
        """Registry view: fleet shape plus the last shipped worker tallies."""
        view: Dict[str, float] = {
            "workers": len(self._shards),
            "healed_workers": self._healed_total,
        }
        for label, stats in sorted(self._last_worker_stats.items()):
            for key, value in stats.items():
                view[label + "." + key] = value
        if self._recovery:
            view["journal_entries"] = sum(
                len(proxy.journal) for proxy in self._proxies
            )
            view["journal_applied"] = sum(
                len(proxy.applied) for proxy in self._proxies
            )
        return view

    def _config_parts(self) -> List[str]:
        parts = [
            part
            for part in super()._config_parts()
            if part not in ("workers 0", "recovery off")
        ]
        parts.append(
            f"workers {len(self._shards)} ({self._transport_kind})"
        )
        parts.append("recovery " + ("on" if self._recovery else "off"))
        return parts

    # ------------------------------------------------------------------
    # The one read path: ask every worker, then collect
    # ------------------------------------------------------------------
    def _scatter_gather(
        self, requests: Sequence[Tuple[WorkerShardProxy, str, Tuple]]
    ) -> List[Any]:
        """Issue every request before collecting any reply.

        The only read method this class defines: every query the sharded
        layer makes arrives here as ``(shard, op, args)`` requests, and
        each worker answers from the same read table the in-process
        backend runs, so every shard computes its part concurrently.
        Failures are collected, not fast-raised: every successfully asked
        worker still gets its reply consumed, so one crashed or erroring
        shard cannot leave another proxy's channel holding a stale reply.
        """
        error: Optional[BaseException] = None
        asked: List[WorkerShardProxy] = []
        for proxy, method, args in requests:
            if error is not None:
                break
            try:
                proxy.ask(method, *args)
                asked.append(proxy)
            except WorkerCrashError as exc:
                error = exc
        results: List[Any] = []
        for proxy in asked:
            try:
                results.append(proxy.result())
            except BaseException as exc:
                if error is None:
                    error = exc
                results.append(None)
        if error is not None:
            raise error
        return results

    def describe(self) -> str:
        suffix = ""
        if self._rebalance is not None:
            suffix += f", rebalance@{self._rebalance.threshold:g}"
        if self._recovery:
            suffix += ", recovery"
        return (
            f"workers({len(self._shards)}x{self.kind}, "
            f"{self._router.name}, {self._transport_kind}{suffix})"
        )

    # ------------------------------------------------------------------
    # Splits are worker handoffs; restores re-baseline the fleet
    # ------------------------------------------------------------------
    def split_shard(self, index: int) -> int:
        new_index = super().split_shard(index)
        # The hot worker was replaced by two freshly restored successors;
        # retire it.  Under recovery the successors' restored state is
        # their new durable baseline (their journals start empty).
        self._reap()
        if self._recovery:
            for proxy in (self._proxies[index], self._proxies[-1]):
                self._rebaseline(proxy)
        return new_index

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        super().restore(state)
        self._reap()
        self._rebaseline_all()

    def restore_items(
        self, items: Sequence[Tuple[str, np.ndarray]]
    ) -> None:
        super().restore_items(items)
        self._reap()
        self._rebaseline_all()

    def _rebaseline_all(self) -> None:
        if not self._recovery:
            return
        for proxy in self._proxies:
            self._rebaseline(proxy)

    def _rebaseline(self, proxy: WorkerShardProxy) -> None:
        """Reset a worker's recovery baseline to its current state."""
        proxy.journal = _repair().EvidenceJournal()
        proxy.applied = _repair().SequenceTracker()
        proxy.seq = 0
        proxy.checkpoint_manifest = dict(proxy.snapshot_items())
        proxy.checkpoint_digest = _EMPTY_DIGEST

    # ------------------------------------------------------------------
    # Crash recovery: checkpoint, heal, delivery accounting
    # ------------------------------------------------------------------
    def _require_recovery(self) -> None:
        if not self._recovery:
            raise TrustModelError(
                "worker recovery is disabled; construct the backend with "
                "recovery=True"
            )

    def _poll_liveness(self) -> None:
        for proxy in self._proxies:
            if not proxy.alive():
                proxy.mark_dead()

    @property
    def effective_delivery_ratio(self) -> float:
        """Fraction of journaled write batches the live fleet has applied.

        1.0 in steady state; drops when a worker dies (everything past its
        last checkpoint goes back into the repairable gap) and returns to
        1.0 once :meth:`heal_workers` has drained the backfill.
        """
        if not self._recovery:
            return 1.0
        self._poll_liveness()
        total = sum(len(proxy.journal) for proxy in self._proxies)
        if total == 0:
            return 1.0
        applied = sum(len(proxy.applied) for proxy in self._proxies)
        return applied / total

    def checkpoint(self) -> None:
        """Store every worker's manifest as its durable recovery baseline."""
        self._require_recovery()
        for proxy in self._proxies:
            if not proxy.alive():
                raise WorkerCrashError(
                    f"cannot checkpoint: worker {proxy.label!r} is down"
                )
            digest = proxy.applied.digest()
            proxy.checkpoint_manifest = dict(proxy.snapshot_items())
            proxy.checkpoint_digest = digest

    def heal_workers(self) -> List[int]:
        """Respawn every dead worker and gossip-backfill its journal gap.

        Each dead shard's replacement restores the last checkpoint
        manifest, then receives — in ``(origin, seq)`` order — exactly the
        journal entries the checkpoint digest does not cover (the
        anti-entropy exchange of :mod:`repro.simulation.repair`, with the
        parent's journal as the up-to-date peer).  Returns the healed
        shard indices; afterwards :attr:`effective_delivery_ratio` is 1.0
        and scores are bit-identical to a run that never crashed.
        """
        self._require_recovery()
        self._poll_liveness()
        healed: List[int] = []
        shards = list(self._proxies)
        for index, proxy in enumerate(shards):
            if not proxy.dead:
                continue
            shards[index] = self._respawn_from(proxy)
            healed.append(index)
        if healed:
            self._shards = tuple(shards)
            self._writes += 1  # replayed evidence invalidates cached references
            self._healed_total += len(healed)
            self._reap()
        return healed

    def _respawn_from(self, proxy: WorkerShardProxy) -> WorkerShardProxy:
        replacement = self._spawn(proxy.label, dict(proxy.spawn_params))
        if self.telemetry.enabled:
            replacement.bind_telemetry(self.telemetry)
        self._proxy_registry.append(replacement)
        if proxy.restrict_filter is not None:
            replacement.restrict_rows(proxy.restrict_filter)
        if proxy.checkpoint_manifest is not None:
            replacement.restore(proxy.checkpoint_manifest)
        replacement.journal = proxy.journal
        replacement.seq = proxy.seq
        replacement.applied = _repair().SequenceTracker.from_digest(
            proxy.checkpoint_digest
        )
        replacement.checkpoint_manifest = proxy.checkpoint_manifest
        replacement.checkpoint_digest = proxy.checkpoint_digest
        assert proxy.journal is not None
        for entry in proxy.journal.entries_missing_from(
            {proxy.label: proxy.checkpoint_digest}
        ):
            replacement.replay(entry)
        return replacement
