"""The scatter-gather coordinator of the sharded serving tier.

One :class:`ClusterCoordinator` owns the authoritative
:class:`~repro.service.catalog.GraphCatalog` (the single writer of the
tier) and a pool of K worker processes — each a plain ``python -m
repro.cluster.worker`` child on one end of a socket pair, so the process
tree is the front end and its K workers, nothing else.  Each registered
graph is hash-partitioned by subject id (:func:`~repro.store.base.shard_of`)
and shipped to the workers as one image of raw int64 column blobs plus
structurally packed dictionary terms — see :mod:`repro.cluster.shm` for
the image layout, :mod:`repro.cluster.protocol` for the wire format and
:mod:`repro.cluster.worker` for the receiving side.

Query routing
-------------
A query is **shard-safe** when every triple pattern shares one subject
term (one variable, or one constant) and explicit-triple semantics are
requested.  Subject-hash partitioning makes every candidate row group of
such a query live in exactly one shard (schema rows, the only
non-subject-keyed patterns, are broadcast to all shards), so the
coordinator *scatters* it to all K workers — each runs its shard-local
weak/strong guard cascade first, so refuted shards never run the join —
and unions the disjoint partial bindings.  A constant-subject query
short-circuits to the single owning shard.

Everything else — chain joins (an object variable re-used in subject
position crosses shards), multi-subject bodies, and all
``saturated=True`` queries (rdfs3 derives type rows keyed by a data row's
*object*, so shard-local saturation is not a partition of ``G∞``) — is
routed round-robin to one worker's **full replica**.  Either way the
answer ids decode through the coordinator's dictionary, which keeps every
cluster answer bit-identical to the in-process
:meth:`~repro.service.service.QueryService.answer`.

Writes
------
Ingest runs on the coordinator's catalog (summaries, statistics,
persistence — the usual write path) and a per-entry delta listener fans
the freshly inserted rows plus the dictionary tail out to every worker
through a **bounded** per-worker queue: a slow worker eventually blocks
the listener — and therefore the ingesting client — which is the tier's
backpressure.  Read-your-writes holds because a query carries the entry
version its caller observed and workers defer under-versioned queries
until the delta (already in their pipe or queue) lands.

Failure model
-------------
Worker death is detected by pipe EOF (receiver thread) and by the
heartbeat thread's liveness sweep.  A dead worker is respawned and
re-shipped from the live catalog, and the failed request retried — a
crash mid-query costs latency, never an error and never a wrong answer
(deltas dropped while dead are subsumed by the re-shipped snapshot;
re-delivered deltas deduplicate idempotently).  ``close()`` drains the
delta queues, asks each worker to finish its message in hand
(``SIGTERM``-equivalent shutdown message), then waits for the processes.
If the coordinator itself is killed, its workers see EOF, unlink the
segments it can no longer unlink (see :mod:`repro.cluster.shm`) and exit.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import socket
import subprocess
import sys
import threading
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import telemetry
from repro.cluster import protocol, shm
from repro.cluster.worker import TARGET_FULL, TARGET_SHARD
from repro.errors import (
    ClusterError,
    QueryError,
    UnknownGraphError,
    UnknownTermError,
    WorkerCrashedError,
    WorkerTimeoutError,
)
from repro.model.graph import RDFGraph
from repro.model.terms import Term
from repro.queries.bgp import BGPQuery, Variable
from repro.service.catalog import CatalogEntry, GraphCatalog
from repro.service.service import QueryAnswer, ServiceStatistics
from repro.store.base import shard_of
from repro.utils.concurrency import map_on_threads, named_lock
from repro.telemetry import BYTE_BUCKETS, Counter, QueryTrace, Span, maybe_span

__all__ = ["ClusterCoordinator"]


#: Queries and loads get generous timeouts (a load ships whole graphs);
#: heartbeat pings stay short — a busy single-threaded worker not
#: answering a ping is *busy*, not dead, and must not be respawned.
_REQUEST_TIMEOUT = 120.0
_PING_TIMEOUT = 1.0
_SHUTDOWN_TIMEOUT = 10.0

#: The directory holding this ``repro`` package: first on a worker's
#: ``PYTHONPATH``, however the package reached the coordinator's ``sys.path``.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Logged delta rows per graph beyond which the coordinator folds the
#: delta log into a fresh segment generation (shared-memory mode).
SEGMENT_FOLD_ROWS = 65_536


class _SegmentState:
    """One graph's live segment generation plus its replay log.

    ``deltas`` holds every ingest batch since the segment was packed, in
    the exact ``OP_DELTA`` shape minus the graph name — a (re-)ship sends
    the descriptor plus this log instead of repacking, which is what makes
    respawn recovery O(deltas) instead of O(graph).  Guarded by the
    coordinator's segment lock; appends additionally run inside the
    entry's write lock (the delta listener), so the log is always
    consistent with the shipped dictionary marks.
    """

    __slots__ = ("segment_name", "directory", "version", "deltas", "delta_rows")

    def __init__(self, segment_name: str, directory: dict, version: int):
        self.segment_name = segment_name
        self.directory = directory
        self.version = version
        self.deltas: List[tuple] = []
        self.delta_rows = 0


class _PendingReply:
    """One outstanding request: the event its waiter parks on."""

    __slots__ = ("event", "status", "payload")

    def __init__(self):
        self.event = threading.Event()
        self.status: Optional[str] = None
        self.payload = None

    def resolve(self, status: str, payload) -> None:
        self.status = status
        self.payload = payload
        self.event.set()

    def fail(self, message: str) -> None:
        self.resolve("crashed", message)


class _WorkerHandle:
    """Coordinator-side state of one worker slot (stable across respawns)."""

    def __init__(self, index: int, delta_queue_depth: int):
        self.index = index
        self.generation = 0
        self.respawns = 0
        self.process: Optional[subprocess.Popen] = None
        #: This generation's pipe; the receiver thread is its only closer.
        self.connection: Optional[protocol.Connection] = None
        self.alive = False
        #: Serializes conn.send() calls (receiver thread handles recv).
        self.send_lock = named_lock(f"cluster.worker{index}.send_lock")
        #: Outstanding requests by id, resolved by the receiver thread.
        #: guarded by self.pending_lock
        self.pending: Dict[int, _PendingReply] = {}
        self.pending_lock = named_lock(f"cluster.worker{index}.pending_lock")
        #: Excludes delta sends from respawn windows: a delta must never
        #: slip between a respawn's snapshot read and its load message.
        self.ship_lock = named_lock(f"cluster.worker{index}.ship_lock")
        #: Graphs an in-flight (re-)ship has *not yet snapshotted* for this
        #: worker.  While a name is in here, ``_on_entry_delta`` drops the
        #: graph's deltas for this worker instead of blocking on the
        #: bounded queue — the upcoming snapshot (read-locked after any
        #: in-flight write) subsumes them.  That drop is what breaks the
        #: ingest → full queue → broadcaster → ship_lock → entry-lock
        #: deadlock cycle.  Names are removed *inside* the snapshot's read
        #: lock, so a delta is never dropped after its rows missed the
        #: snapshot.
        self.reship_pending: Set[str] = set()
        self.delta_queue: "queue.Queue" = queue.Queue(maxsize=delta_queue_depth)
        self.receiver: Optional[threading.Thread] = None
        self.broadcaster: Optional[threading.Thread] = None
        self.last_ping: Optional[Dict[str, object]] = None
        self.last_ping_at: Optional[float] = None
        #: The worker's reply to its most recent ``OP_LOAD`` (attach mode,
        #: row counts, attach seconds) — surfaced by ``status()``.
        self.last_load: Optional[Dict[str, object]] = None

    def fail_pending(self, message: str) -> None:
        with self.pending_lock:
            pending, self.pending = self.pending, {}
        for slot in pending.values():
            slot.fail(message)

    def retire(self, timeout: float) -> None:
        """End this generation: reap its process, let its receiver close.

        A process still running gets *timeout* seconds to exit on its own,
        as long again after ``SIGTERM``, then ``SIGKILL`` — and is always
        waited for, so no zombie and no unreaped ``Popen`` stays behind.
        Its death is the receiver's EOF; closing ``connection`` from here
        would pull the handle out from under a ``recv()`` in progress.
        """
        process = self.process
        if process is not None:
            try:
                process.wait(timeout)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        self.alive = False
        if self.receiver is not None:
            self.receiver.join(timeout=timeout)


class ClusterCoordinator:
    """K spawned workers behind one writer catalog; scatter-gather reads.

    Parameters
    ----------
    catalog:
        The authoritative catalog (optionally persistent).  The
        coordinator is its single writer; route all ingest through
        :meth:`add_triples` / :meth:`register` / :meth:`drop`.
    workers:
        Shard count K — one process per shard.
    kind / strategy:
        Worker-side guard cascade and join strategy (the same knobs as
        :class:`~repro.service.service.QueryService`).
    delta_queue_depth:
        Bound of each worker's ingest-delta queue; a full queue blocks the
        ingesting caller (backpressure).
    heartbeat_seconds:
        Liveness sweep period; ``0`` disables the sweep (crash detection
        then rests on pipe EOF at request time).
    max_retries:
        Crash-retry budget per request (respawn + retry).
    use_shm:
        Where a worker's graph image comes from.  ``None`` (default) uses
        the shared-memory plane when the platform supports it: each graph
        generation is packed once into one named segment that every worker
        attaches, and respawn recovery re-sends the descriptor plus the
        logged deltas instead of repacking.  ``False`` (``serve
        --no-shm``) sends each worker its image as bytes over the pipe —
        same layout, same worker-side load, K private copies.
    shm_fold_rows:
        Logged delta rows beyond which a graph's log folds into a fresh
        segment generation (bounds both the log and re-attach replay work).
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        workers: int = 2,
        kind: str = "weak+strong",
        strategy: str = "hash",
        delta_queue_depth: int = 64,
        heartbeat_seconds: float = 2.0,
        max_retries: int = 2,
        use_shm: Optional[bool] = None,
        shm_fold_rows: int = SEGMENT_FOLD_ROWS,
        start: bool = True,
    ):
        if workers <= 0:
            raise ValueError("a cluster needs at least one worker")
        self.catalog = catalog
        self.worker_count = workers
        self.kind = kind
        self.strategy = strategy
        self.max_retries = max_retries
        self.heartbeat_seconds = heartbeat_seconds
        self.statistics = ServiceStatistics()
        self.started_at = monotonic()
        self._workers = [_WorkerHandle(i, delta_queue_depth) for i in range(workers)]
        self._request_ids = itertools.count(1)
        self._round_robin = itertools.count()
        #: Per graph: how many dictionary ids have been shipped (the next
        #: delta packs the tail from here).  Guarded by the entry write
        #: lock — listeners run inside it, serialized per graph.
        self._dict_marks: Dict[str, int] = {}
        self._listened: Set[str] = set()
        #: Shared-memory plane: one packed segment + delta log per graph.
        self.use_shm = (
            shm.shm_available() if use_shm is None else bool(use_shm) and shm.shm_available()
        )
        self.shm_fold_rows = shm_fold_rows
        self._registry = shm.SegmentRegistry() if self.use_shm else None
        #: Per-graph shm segment bookkeeping; guarded by self._segment_lock
        self._segment_states: Dict[str, _SegmentState] = {}
        self._segment_lock = named_lock("cluster.segment_lock")
        #: Ship latency accounting, read by the bench / status endpoint
        #: through the :attr:`ship_metrics` property (which keeps the
        #: historical dict shape).  The counts are per-coordinator children
        #: of the process-wide ``cluster.*`` registry families.
        self._metrics_lock = named_lock("cluster.metrics_lock")
        self._ships = Counter("ships", parent=telemetry.counter("cluster.ships"))
        self._reships = Counter("reships", parent=telemetry.counter("cluster.reships"))
        self._ship_seconds_total = Counter("ship_seconds")
        self._reship_seconds_total = Counter("reship_seconds")
        self._last_ship_seconds = 0.0
        self._last_reship_seconds = 0.0
        self._ship_seconds_histogram = telemetry.histogram("cluster.ship.seconds")
        self._ship_bytes = telemetry.histogram("cluster.ship.bytes", BYTE_BUCKETS)
        self._retries_counter = telemetry.counter("cluster.retries")
        self._shards_pruned_counter = telemetry.counter("cluster.shards_pruned")
        self._respawns_counter = telemetry.counter("cluster.respawns")
        #: Backpressure gauge: queued-but-unsent ingest deltas across the
        #: worker pool, sampled at scrape time.
        self._queue_gauge = telemetry.gauge("cluster.delta.queue.depth")
        self._queue_sampler = lambda: sum(
            handle.delta_queue.qsize() for handle in self._workers
        )
        self._queue_gauge.add_callback(self._queue_sampler)
        self._closed = False
        self._stop_event = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the workers and ship every registered graph."""
        for handle in self._workers:
            self._spawn(handle)
            self._start_broadcaster(handle)
        for name in self.catalog.names():
            entry = self.catalog.entry(name)
            self._attach_listener(entry)
            self._ship_graph(entry, self._workers)
        if self.heartbeat_seconds > 0:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="repro-heartbeat", daemon=True
            )
            self._heartbeat_thread.start()

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) the process behind *handle* (ship_lock held
        by the caller for respawns; at start() nothing races)."""
        config = {
            "shard_index": handle.index,
            "shard_count": self.worker_count,
            "kind": self.kind,
            "strategy": self.strategy,
            "telemetry": telemetry.enabled(),
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (_PACKAGE_ROOT, env.get("PYTHONPATH")))
        )
        # A fresh interpreter, never a fork: the coordinator is
        # multi-threaded by design and a forked child would inherit locked
        # locks.  close_fds (the default) keeps every descriptor but the
        # child's own pipe end out of it: a sibling's pipe end or a
        # segment's owner lock held open there would defeat EOF-based crash
        # detection and the orphan test.
        sock, child_sock = socket.socketpair()
        with sock, child_sock:
            process = subprocess.Popen(
                [sys.executable, *subprocess._args_from_interpreter_flags()]
                + ["-m", "repro.cluster.worker", str(child_sock.fileno()), json.dumps(config)],
                pass_fds=[child_sock.fileno()],
                stdin=subprocess.DEVNULL,
                env=env,
            )
            connection = protocol.Connection(sock.detach())
        handle.process = process
        handle.connection = connection
        handle.alive = True
        generation = handle.generation
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(handle, connection, generation),
            name=f"repro-recv-{handle.index}",
            daemon=True,
        )
        handle.receiver = receiver
        receiver.start()

    def _receive_loop(self, handle: _WorkerHandle, connection, generation: int) -> None:
        """Route worker replies to their waiting requesters; EOF = crash.

        This thread is the only closer of *connection*, under the send lock
        so that no sender is mid-write on the descriptor it gives back."""
        try:
            while True:
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    break
                request_id, status, payload = message
                with handle.pending_lock:
                    slot = handle.pending.pop(request_id, None)
                if slot is not None:
                    slot.resolve(status, payload)
        finally:
            with handle.send_lock:
                connection.close()
        if handle.generation == generation:
            handle.alive = False
            handle.fail_pending(f"worker {handle.index} pipe closed")
        # A stale generation's receiver must leave pending alone: the
        # respawn already failed the old generation's requests, and every
        # slot registered since (including the respawn's own re-ship
        # loads) belongs to the new generation's receiver.

    def _start_broadcaster(self, handle: _WorkerHandle) -> None:
        def run():
            while True:
                item = handle.delta_queue.get()
                if item is None:
                    return
                # ship_lock keeps the send out of respawn windows: a delta
                # sent between a respawn's snapshot and its load message
                # would be refused (graph unknown) yet *missing* from the
                # snapshot — the one interleaving that loses rows
                with handle.ship_lock:
                    try:
                        self._request(handle, protocol.OP_DELTA, item, _REQUEST_TIMEOUT)
                    except (WorkerCrashedError, UnknownGraphError):
                        # dead worker, or a drop raced us: the rows are
                        # already in the catalog store, so the respawn
                        # re-ship (or the drop) subsumes this delta
                        pass
                    except ClusterError:
                        # timeout or a worker-side fault: the worker may
                        # have missed the delta for good.  Mark the slot
                        # dead so the heartbeat sweep (or the next
                        # request's retry path) respawns it and re-ships a
                        # snapshot that includes these rows.
                        handle.alive = False

        thread = threading.Thread(
            target=run, name=f"repro-delta-{handle.index}", daemon=True
        )
        handle.broadcaster = thread
        thread.start()

    def close(self, timeout: float = _SHUTDOWN_TIMEOUT) -> None:
        """Drain delta queues, drain and stop the workers, join everything.

        Safe to call twice.  The order is the graceful SIGTERM path:
        pending ingest deltas flush first (workers end consistent), each
        worker finishes the message in hand and acks the shutdown, then
        processes are waited for (terminated, then killed, only if they
        overstay) and their receivers close the pipes.
        """
        if self._closed:
            return
        self._closed = True
        self._queue_gauge.remove_callback(self._queue_sampler)
        self._stop_event.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=timeout)
        for handle in self._workers:
            handle.delta_queue.put(None)
        for handle in self._workers:
            if handle.broadcaster is not None:
                handle.broadcaster.join(timeout=timeout)
        for handle in self._workers:
            if handle.alive:
                try:
                    self._request(handle, protocol.OP_SHUTDOWN, (), timeout)
                except ClusterError:
                    pass
            handle.retire(timeout)
        # workers are gone (their mappings closed); now unlink every named
        # segment — after this, /dev/shm holds nothing of this coordinator
        if self._registry is not None:
            with self._segment_lock:
                self._segment_states.clear()
                self._registry.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _request(
        self, handle: _WorkerHandle, op: str, payload: tuple, timeout: float
    ):
        """One id-matched round trip to *handle*'s worker."""
        if not handle.alive:
            raise WorkerCrashedError(f"worker {handle.index} is down")
        request_id = next(self._request_ids)
        slot = _PendingReply()
        with handle.pending_lock:
            handle.pending[request_id] = slot
        try:
            try:
                with handle.send_lock:
                    handle.connection.send((request_id, op, payload))
            except (OSError, ValueError, BrokenPipeError) as error:
                handle.alive = False
                raise WorkerCrashedError(
                    f"worker {handle.index} send failed: {error}"
                ) from error
            if not slot.event.wait(timeout):
                raise WorkerTimeoutError(
                    f"worker {handle.index} did not answer {op!r} within {timeout}s"
                )
        finally:
            with handle.pending_lock:
                handle.pending.pop(request_id, None)
        if slot.status == "ok":
            return slot.payload
        if slot.status == "crashed":
            raise WorkerCrashedError(str(slot.payload))
        error_kind, message = slot.payload
        if error_kind == "unknown_graph":
            raise UnknownGraphError(message)
        if error_kind == "query":
            raise QueryError(message)
        raise ClusterError(f"worker {handle.index} {error_kind} error: {message}")

    def _call_with_retry(
        self, handle: _WorkerHandle, op: str, payload: tuple, timeout: float
    ) -> Tuple[object, int]:
        """A round trip that survives worker crashes; returns
        ``(reply, retries_spent)``.  Crashes trigger respawn + retry up to
        the budget; timeouts do not (re-running the same wedging request
        would wedge the fresh worker too).

        Crash retries and behind-the-ship waits are budgeted *separately*:
        a slow request can legitimately straddle two worker deaths (two
        crash retries — the whole ``max_retries`` budget) *and* land on a
        respawned worker before its re-ship does (an ``UnknownGraphError``
        that just means "wait").  Charging the wait against the crash
        budget made exactly that interleaving fail spuriously under the
        crash-injection benchmark on slow hosts; each wait is already
        bounded by the in-flight ship (we block on the ship lock), so it
        gets its own equal budget instead.
        """
        retries = 0
        ship_waits = 0
        while True:
            generation = handle.generation
            try:
                return self._request(handle, op, payload, timeout), retries + ship_waits
            except WorkerCrashedError:
                if self._closed or retries >= self.max_retries:
                    raise
                retries += 1
                try:
                    self._ensure_alive(handle, generation)
                except WorkerCrashedError:
                    # the respawned worker died under its own re-ship
                    # (another injected kill).  The handle is marked dead;
                    # loop — the next attempt raises immediately and the
                    # budget check, not this helper, decides when to give
                    # up.  (The heartbeat's _ensure_alive calls swallow
                    # the same way.)
                    continue
            except UnknownGraphError:
                # a respawned worker accepts requests the moment its pipe is
                # up, which can be before the respawn's re-ship has landed.
                # If the coordinator still knows the graph the worker is
                # merely behind: wait out the in-flight (re-)ship and retry.
                name = payload[0] if payload else None
                if (
                    self._closed
                    or ship_waits >= self.max_retries
                    or not isinstance(name, str)
                    or name not in self.catalog.names()
                ):
                    raise
                ship_waits += 1
                with handle.ship_lock:
                    pass

    def _ensure_alive(self, handle: _WorkerHandle, seen_generation: int) -> None:
        """Respawn *handle*'s worker unless someone already did."""
        with handle.ship_lock:
            if handle.generation != seen_generation:
                return  # a concurrent caller respawned; just retry
            process = handle.process
            if handle.alive and process is not None and process.poll() is None:
                return
            # From here until each graph's snapshot is taken, ingest drops
            # that graph's deltas for this worker instead of blocking on
            # its full queue (see _WorkerHandle.reship_pending): the
            # snapshot subsumes them, and the drop keeps this re-ship from
            # deadlocking against a writer stuck on the bounded queue
            # whose broadcaster is parked on our ship_lock.
            handle.reship_pending = set(self.catalog.names())
            if process is not None and process.poll() is None:
                process.terminate()
            handle.retire(timeout=5.0)
            handle.fail_pending(f"worker {handle.index} respawning")
            handle.generation += 1
            handle.respawns += 1
            self._respawns_counter.inc()
            # Respawn must happen under the ship lock: the dead worker's
            # slot may not receive a ship until the replacement is wired
            # up, and deltas are fenced by reship_pending (dropped, not
            # queued), so nothing can block against this spawn.
            self._spawn(handle)  # repro-lint: disable=no-blocking-under-lock
            # re-ship every graph from the live catalog: the snapshot (or,
            # in shm mode, the O(1) segment descriptor plus the delta log)
            # subsumes any delta dropped while the worker was down
            started = perf_counter()
            for name in self.catalog.names():
                try:
                    entry = self.catalog.entry(name)
                except UnknownGraphError:
                    handle.reship_pending.discard(name)  # dropped meanwhile
                    continue
                self._ship_graph(entry, [handle], update_marks=False)
            self._record_ship("reship", perf_counter() - started)

    def _heartbeat_loop(self) -> None:
        while not self._stop_event.wait(self.heartbeat_seconds):
            for handle in self._workers:
                if self._closed:
                    return
                process = handle.process
                if not handle.alive or process is None or process.poll() is not None:
                    try:
                        self._ensure_alive(handle, handle.generation)
                    except Exception:  # noqa: BLE001 - keep sweeping
                        continue
                try:
                    handle.last_ping = self._request(
                        handle, protocol.OP_PING, (), _PING_TIMEOUT
                    )
                    handle.last_ping_at = monotonic()
                except WorkerTimeoutError:
                    # busy, not dead: a single-threaded worker mid-join
                    # answers late; only process death triggers respawn
                    continue
                except ClusterError:
                    continue

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------
    def _attach_listener(self, entry: CatalogEntry) -> None:
        if entry.name in self._listened:
            return
        self._listened.add(entry.name)
        entry._delta_listeners.append(self._on_entry_delta)

    def _on_entry_delta(self, entry: CatalogEntry, rows: List) -> None:
        """Entry write hook: fan the ingest delta out to every worker.

        Runs inside the entry's write lock (serialized per graph), so the
        dictionary mark advances consistently with the shipped tail.  The
        bounded ``put`` is the backpressure point: with a full queue the
        ingesting caller waits for the slowest worker.
        """
        if self._closed:
            return
        name = entry.name
        mark = self._dict_marks.get(name)
        if mark is None:
            return  # not shipped yet: the ship will include these rows
        dictionary = entry.store.dictionary
        packed_terms = protocol.pack_terms(dictionary, mark)
        self._dict_marks[name] = mark + len(packed_terms)
        wire_rows = [
            (kind.value, row[0], row[1], row[2]) for kind, row in rows
        ]
        item = (name, entry.version, (mark, packed_terms), wire_rows)
        if self.use_shm:
            # append to the graph's replay log so a respawn re-attaches the
            # unchanged segment and replays this batch instead of repacking;
            # past the fold threshold the log collapses into a fresh
            # generation (we hold the entry write lock, so the store is
            # stable and the repack is consistent)
            with self._segment_lock:
                state = self._segment_states.get(name)
                if state is not None:
                    state.deltas.append((entry.version, (mark, packed_terms), wire_rows))
                    state.delta_rows += len(wire_rows)
                    if state.delta_rows >= self.shm_fold_rows:
                        segment_name, directory = self._pack_segment(
                            entry, entry.version
                        )
                        state.segment_name = segment_name
                        state.directory = directory
                        state.version = entry.version
                        state.deltas = []
                        state.delta_rows = 0
        for handle in self._workers:
            while not self._closed:
                if name in handle.reship_pending:
                    # An in-flight (re-)ship has yet to snapshot this graph
                    # for this worker; that snapshot — read-locked only
                    # after our write lock releases — subsumes the delta.
                    # Dropping instead of blocking breaks the deadlock
                    # cycle: ingest (entry write lock) → full delta queue →
                    # broadcaster → ship_lock → re-ship waiting on our
                    # entry's read lock.
                    break
                try:
                    handle.delta_queue.put(item, timeout=0.2)
                    break
                except queue.Full:
                    continue  # backpressure; re-check close/re-ship state

    def _snapshot_graph(
        self,
        entry: CatalogEntry,
        handles: Sequence[_WorkerHandle],
        update_marks: bool = True,
    ) -> Optional[tuple]:
        """One shippable snapshot of *entry*, taken under its read lock:
        ``(version, tables_for, deltas)``, or ``None`` if the entry was
        already dropped.  ``tables_for(shard_index)`` is the ``OP_LOAD``
        *tables* field for that worker.

        Shared-memory mode packs the graph image into a named segment
        **once** — a later snapshot of the same graph (a respawn re-ship)
        reuses the live segment descriptor plus the accumulated delta log
        with zero repacking.  Without shared memory the same image pieces
        are laid out per worker (``full`` + its shard) and travel as bytes.
        """
        with entry.rwlock.read_locked():
            # End the delta-drop window while the read lock is held: no
            # writer can run the delta listener until we release it, so
            # every delta dropped during the window is made of rows the
            # pack below will see.  Discarding after release would leave a
            # gap in which a fresh write could drop rows this snapshot
            # does not contain.
            for handle in handles:
                handle.reship_pending.discard(entry.name)
            if entry.closed:
                return None
            version = entry.version
            if self.use_shm:
                with self._segment_lock:
                    state = self._segment_states.get(entry.name)
                    if state is None:
                        segment_name, directory = self._pack_segment(entry, version)
                        state = _SegmentState(segment_name, directory, version)
                        self._segment_states[entry.name] = state
                        if update_marks:
                            self._dict_marks[entry.name] = len(
                                entry.store.dictionary
                            )
                    descriptor = (protocol.TABLES_SHM, state.segment_name, state.directory)
                    return state.version, lambda _index: descriptor, list(state.deltas)
            pieces = self._image_pieces(entry)
            if update_marks:
                self._dict_marks[entry.name] = len(entry.store.dictionary)
        full_tables = pieces.pop("full_tables")
        shard_tables = pieces.pop("shard_tables")

        def pipe_image(index: int) -> tuple:
            blobs, directory = shm.layout_image(
                entry.name,
                version,
                targets=[("full", full_tables), (index, shard_tables[index])],
                **pieces,
            )
            image = b"".join(blobs)
            self._ship_bytes.observe(float(len(image)))
            return protocol.TABLES_INLINE, image, directory

        return version, pipe_image, []

    def _image_pieces(self, entry: CatalogEntry) -> Dict[str, object]:
        """What a graph image is laid out from, whichever source carries it
        (caller holds the entry lock)."""
        store = entry.store
        return {
            "term_chunks": protocol.pack_term_chunks(store.dictionary),
            "shard_tables": protocol.pack_all_shard_tables(store, self.worker_count),
            "full_tables": protocol.pack_full_tables(store),
            "byteorder": protocol.BYTEORDER,
        }

    def _pack_segment(self, entry: CatalogEntry, version: int) -> Tuple[str, dict]:
        """Pack *entry* into a fresh segment generation.

        Caller holds the entry lock (read or write) and the segment lock.
        """
        segment_name, directory = self._registry.pack(
            entry.name, version, **self._image_pieces(entry)
        )
        for info in self._registry.info():
            if info["segment"] == segment_name:
                self._ship_bytes.observe(float(info["bytes"]))
                break
        return segment_name, directory

    def _send_snapshot(self, handle: _WorkerHandle, name: str, snapshot: tuple) -> None:
        """Load *handle*'s slice of a packed snapshot into its worker."""
        version, tables_for, deltas = snapshot
        handle.last_load = self._request(
            handle,
            protocol.OP_LOAD,
            (name, version, tables_for(handle.index), deltas),
            _REQUEST_TIMEOUT,
        )

    def _ship_graph(
        self,
        entry: CatalogEntry,
        handles: Sequence[_WorkerHandle],
        update_marks: bool = True,
    ) -> None:
        """Snapshot *entry* under its read lock and load it into *handles*
        — every one of them, whichever fail; the first failure is raised.

        In shared-memory mode multi-worker ships run in parallel: the
        payload is a descriptor, the per-worker cost is the worker-side
        attach + shard priming, and those are independent processes.
        """
        started = perf_counter()
        snapshot = self._snapshot_graph(entry, handles, update_marks)
        if snapshot is None:
            return
        map_on_threads(
            lambda handle: self._send_snapshot(handle, entry.name, snapshot),
            handles,
            len(handles) if self.use_shm else 1,
            "repro-ship",
        )
        if update_marks:
            # an initial ship (start()); respawn re-ships are timed as one
            # "reship" by _ensure_alive around its whole graph loop
            self._record_ship("ship", perf_counter() - started)

    def _record_ship(self, kind: str, seconds: float) -> None:
        with self._metrics_lock:
            if kind == "reship":
                self._reships.inc()
                self._reship_seconds_total.inc(seconds)
                self._last_reship_seconds = seconds
            else:
                self._ships.inc()
                self._ship_seconds_total.inc(seconds)
                self._last_ship_seconds = seconds
        self._ship_seconds_histogram.observe(seconds)

    @property
    def ship_metrics(self) -> Dict[str, object]:
        """Ship latency accounting in the historical dict shape."""
        with self._metrics_lock:
            return {
                "ships": self._ships.int_value,
                "ship_seconds_total": self._ship_seconds_total.value,
                "last_ship_seconds": self._last_ship_seconds,
                "reships": self._reships.int_value,
                "reship_seconds_total": self._reship_seconds_total.value,
                "last_reship_seconds": self._last_reship_seconds,
            }

    # ------------------------------------------------------------------
    # writes (the coordinator is the tier's single writer)
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        graph: Optional[RDFGraph] = None,
        store=None,
    ) -> CatalogEntry:
        """Register a graph and ship its shards to every worker."""
        entry = self.catalog.register(name, graph=graph, store=store)
        self._attach_listener(entry)
        # One snapshot serves every worker (pack_all_shard_tables already
        # partitions for all K shards — snapshotting per worker would redo
        # that K times over).  Every ship_lock is held across snapshot +
        # sends so no queued delta can reach a worker before its load (the
        # worker would refuse it as unknown and the rows would be lost);
        # the reship_pending marks let a concurrent ingest of the new
        # graph drop its queued delta instead of deadlocking against the
        # snapshot's read lock — the snapshot, taken once that write
        # completes, subsumes it.
        for handle in self._workers:
            handle.reship_pending.add(name)
        for handle in self._workers:
            handle.ship_lock.acquire()
        try:
            self._ship_graph(entry, self._workers)
        except WorkerCrashedError:
            # every other worker was still sent its load; the dead one's
            # respawn re-ship loop picks the graph up
            pass
        finally:
            for handle in reversed(self._workers):
                handle.ship_lock.release()
        return entry

    def add_triples(self, name: str, triples) -> int:
        """Ingest through the catalog; the delta listener broadcasts."""
        return self.catalog.add_triples(name, triples)

    def drop(self, name: str) -> None:
        """Drop a graph everywhere (coordinator first, then the workers)."""
        self.catalog.drop(name)
        self._dict_marks.pop(name, None)
        self._listened.discard(name)
        if self._registry is not None:
            # unlink first: the name disappears immediately; worker
            # mappings stay valid until their drop closes them
            with self._segment_lock:
                self._segment_states.pop(name, None)
                self._registry.unlink(name)
        for handle in self._workers:
            try:
                self._request(handle, protocol.OP_DROP, (name,), _REQUEST_TIMEOUT)
            except (ClusterError, UnknownGraphError):
                pass

    # ------------------------------------------------------------------
    # reads: scatter-gather
    # ------------------------------------------------------------------
    @staticmethod
    def _common_subject(query: BGPQuery):
        """The single subject term shared by every pattern, else ``None``."""
        subjects = {pattern.subject for pattern in query.patterns}
        if len(subjects) == 1:
            return next(iter(subjects))
        return None

    def answer(
        self,
        graph_name: str,
        query: BGPQuery,
        limit: Optional[int] = None,
        saturated: bool = False,
        explain: bool = False,
        trace: Union[bool, QueryTrace] = False,
    ) -> QueryAnswer:
        """Answer *query* across the worker pool; same contract (and same
        answer sets) as :meth:`QueryService.answer`.

        With ``trace=True`` the trace id rides to every contacted worker
        inside the query frame and each worker's guard/evaluate span tree
        is grafted back under this coordinator's ``route``/``scatter``/
        ``gather`` spans — one tree for the whole scatter-gather."""
        if self._closed:
            raise ClusterError("the cluster coordinator is closed")
        query_trace: Optional[QueryTrace] = None
        if trace:
            query_trace = trace if isinstance(trace, QueryTrace) else QueryTrace()
        total_start = perf_counter()
        entry = self.catalog.entry(graph_name)
        with maybe_span(query_trace, "route") as route_span:
            min_version = entry.version
            subject = None if saturated else self._common_subject(query)
            if subject is not None:
                handles, single_shard = self._scatter_targets(entry, subject)
                target = TARGET_SHARD
            else:
                handles = [self._workers[next(self._round_robin) % self.worker_count]]
                single_shard = None
                target = TARGET_FULL
            if route_span is not None:
                route_span.attributes.update(
                    mode="scatter" if target == TARGET_SHARD else "full",
                    workers=[handle.index for handle in handles],
                )
        payload = (
            graph_name,
            min_version,
            query.to_sparql(),
            target,
            limit,
            saturated,
            explain,
            query_trace.trace_id if query_trace is not None else None,
        )
        with maybe_span(query_trace, "scatter") as scatter_span:
            results, retries = self._fan_out(handles, payload)
        if query_trace is not None:
            # graft each worker's finished span tree under the scatter span,
            # wrapped so the tree names the worker that produced it
            for handle, result in zip(handles, results):
                worker_tree = result.get("query_trace")
                if worker_tree:
                    subtree = Span.from_dict(worker_tree)
                    query_trace.graft(
                        Span(
                            f"worker-{handle.index}",
                            seconds=subtree.seconds,
                            children=[subtree],
                        ),
                        under=scatter_span,
                    )
        with maybe_span(query_trace, "gather") as gather_span:
            answer = self._gather(
                query, graph_name, target, handles, results, limit, retries,
                single_shard, entry, explain,
            )
            if gather_span is not None:
                gather_span.attributes["answers"] = len(answer.answers)
        if retries:
            self._retries_counter.inc(retries)
        self._shards_pruned_counter.inc(answer.cluster["shards_pruned"])
        if query_trace is not None:
            query_trace.annotate(graph=graph_name, cluster=True)
            query_trace.finish(perf_counter() - total_start)
            answer.query_trace = query_trace
        self.statistics.record(answer)
        return answer

    def _scatter_targets(
        self, entry: CatalogEntry, subject
    ) -> Tuple[List[_WorkerHandle], Optional[int]]:
        """All workers for a variable subject; the owning shard for a
        constant one (a dictionary miss keeps one worker in the loop so
        the instant-empty answer flows through the uniform path)."""
        if isinstance(subject, Variable):
            return list(self._workers), None
        try:
            subject_id = entry.store.dictionary.encode_existing(subject)
        except UnknownTermError:
            return [self._workers[next(self._round_robin) % self.worker_count]], None
        shard = shard_of(subject_id, self.worker_count)
        return [self._workers[shard]], shard

    def _fan_out(
        self, handles: Sequence[_WorkerHandle], payload: tuple
    ) -> Tuple[List[dict], int]:
        """Run the query round trip on every handle (in parallel for a
        scatter); returns the per-handle payloads and total crash retries."""
        outcomes = map_on_threads(
            lambda handle: self._call_with_retry(
                handle, protocol.OP_QUERY, payload, _REQUEST_TIMEOUT
            ),
            handles,
            len(handles),
            "repro-scatter",
        )
        return [reply for reply, _ in outcomes], sum(spent for _, spent in outcomes)

    def _gather(
        self,
        query: BGPQuery,
        graph_name: str,
        target: str,
        handles: Sequence[_WorkerHandle],
        results: List[dict],
        limit: Optional[int],
        retries: int,
        single_shard: Optional[int],
        entry: CatalogEntry,
        explain: bool,
    ) -> QueryAnswer:
        decode_table = entry.store.dictionary.decode_table
        id_rows: Set[Tuple[int, ...]] = set()
        for result in results:
            id_rows.update(tuple(row) for row in result["answers"])
        if limit is not None and len(id_rows) > limit:
            # the serial contract: *some* size-limit subset of the answers
            id_rows = set(itertools.islice(id_rows, limit))
        answers: Set[Tuple[Term, ...]] = {
            tuple(decode_table[identifier] for identifier in row) for row in id_rows
        }
        pruned = all(result["pruned"] for result in results)
        pruned_by = None
        if pruned:
            pruned_by = next(
                (r["pruned_by"] for r in results if r["pruned_by"] is not None), None
            )
        shards_pruned = sum(1 for result in results if result["pruned"])
        cluster_meta: Dict[str, object] = {
            "mode": "scatter" if target == TARGET_SHARD else "full",
            "workers": [handle.index for handle in handles],
            "shards_pruned": shards_pruned,
            "retries": retries,
        }
        if single_shard is not None:
            cluster_meta["routed_shard"] = single_shard
        if explain:
            cluster_meta["per_worker"] = [
                {
                    "worker": handle.index,
                    "pruned": result["pruned"],
                    "pruned_by": result["pruned_by"],
                    "answers": len(result["answers"]),
                    "guard_seconds": result["guard_seconds"],
                    "evaluation_seconds": result["evaluation_seconds"],
                    "trace": result["trace"],
                }
                for handle, result in zip(handles, results)
            ]
        first = results[0]
        return QueryAnswer(
            query=query,
            graph_name=graph_name,
            kind=first["kind"],
            answers=answers,
            pruned=pruned,
            prunable=first["prunable"],
            guard_seconds=max(result["guard_seconds"] for result in results),
            evaluation_seconds=max(result["evaluation_seconds"] for result in results),
            strategy=first["strategy"],
            guard_order=tuple(first["guard_order"]),
            pruned_by=pruned_by,
            trace=None,
            saturation=first.get("saturation"),
            cluster=cluster_meta,
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """Worker pool health for the HTTP ``/cluster`` endpoint."""
        workers = []
        for handle in self._workers:
            process = handle.process
            workers.append(
                {
                    "index": handle.index,
                    "pid": process.pid if process is not None else None,
                    "alive": bool(
                        handle.alive and process is not None and process.poll() is None
                    ),
                    "generation": handle.generation,
                    "respawns": handle.respawns,
                    "queued_deltas": handle.delta_queue.qsize(),
                    "last_ping": handle.last_ping,
                    "last_heartbeat_age_seconds": (
                        monotonic() - handle.last_ping_at
                        if handle.last_ping_at is not None
                        else None
                    ),
                    "last_load": handle.last_load,
                }
            )
        with self._segment_lock:
            shm_info: Dict[str, object] = {"enabled": self.use_shm}
            if self._registry is not None:
                shm_info["segments"] = self._registry.info()
                shm_info["packs"] = self._registry.packs
                shm_info["logged_delta_rows"] = sum(
                    state.delta_rows for state in self._segment_states.values()
                )
        ship_metrics = self.ship_metrics
        return {
            "workers": workers,
            "worker_count": self.worker_count,
            "kind": self.kind,
            "strategy": self.strategy,
            "graphs": self.catalog.names(),
            "uptime_seconds": monotonic() - self.started_at,
            "service": self.statistics.as_dict(),
            "shm": shm_info,
            "ship_metrics": ship_metrics,
        }

    def worker_metrics(self, timeout: float = 10.0) -> List[Optional[Dict[str, object]]]:
        """One fresh ping reply per worker slot (``None`` for a dead one).

        Unlike the heartbeat's opportunistic ``last_ping``, this blocks for
        an answer — benchmarks read per-worker RSS and column-memory
        accounting from it right after a load or a crash-recovery pass.
        """
        replies: List[Optional[Dict[str, object]]] = []
        for handle in self._workers:
            try:
                replies.append(self._request(handle, protocol.OP_PING, (), timeout))
            except ClusterError:
                replies.append(None)
        return replies
