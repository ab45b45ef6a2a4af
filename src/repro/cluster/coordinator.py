"""The scatter-gather coordinator of the sharded serving tier.

One :class:`ClusterCoordinator` owns the authoritative
:class:`~repro.service.catalog.GraphCatalog` (the single writer of the
tier) and a pool of K worker processes — each a plain ``python -m
repro.cluster.worker`` child on one end of a socket pair, so the process
tree is the front end and its K workers, nothing else.  Each registered
graph is hash-partitioned by subject id (:func:`~repro.store.base.shard_of`)
and packed once into a named segment — one image of raw 4-byte id column
blobs plus structurally packed dictionary terms — that every worker
attaches: see :mod:`repro.cluster.shm` for the image layout,
:mod:`repro.cluster.protocol` for the wire format and
:mod:`repro.cluster.worker` for the receiving side.  Every dictionary id is
assigned here, never on a worker: ``rdf:type``, which a worker's ``G∞``
derives even for a graph without type triples, is minted before the first
pack.

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
persistence — the usual write path) and a per-entry delta listener appends
the freshly inserted rows plus the dictionary tail to the graph's **log**
(:class:`_GraphLog`) — nothing else: it touches no pipe and waits for no
worker.  A worker learns of a write the next time anything is sent to it:
every contact goes through :meth:`ClusterCoordinator._request`, which,
holding the slot's send lock, writes what that worker has not been sent
yet (a load, or one catch-up delta) immediately ahead of the request.  A
socket pair is FIFO and a worker single-threaded, so read-your-writes holds
by *order*.  The log is bounded by the fold (``shm_fold_rows``): past it a
new generation's segment is packed, and a worker that lags a fold attaches
it.

Failure model
-------------
Worker death is detected by pipe EOF (receiver thread) and by the
heartbeat thread's liveness sweep.  A dead worker is respawned with an
empty cursor, so its first contact loads every graph (the unchanged
segment descriptor plus the log), and the failed request is
retried — a crash mid-query costs latency, never an error and never a
wrong answer.  A load or catch-up the worker refuses marks that graph
stale for that slot (loaded afresh on the next contact); it is never a
reason to kill a worker.  A segment that cannot be packed (no room) is a
:class:`~repro.errors.SegmentError`: a registration that hits it is undone.
``close()`` asks each worker to finish its
message in hand (``SIGTERM``-equivalent shutdown message), then waits for
the processes.  If the coordinator itself is killed, its workers see EOF,
unlink the segments it can no longer unlink (see :mod:`repro.cluster.shm`)
and exit.
"""

from __future__ import annotations

import itertools
import json
import os
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
    SegmentError,
    UnknownGraphError,
    UnknownTermError,
    WorkerCrashedError,
    WorkerTimeoutError,
)
from repro.model.graph import RDFGraph
from repro.model.namespaces import RDF_TYPE
from repro.model.terms import Term
from repro.queries.bgp import BGPQuery, Variable
from repro.service.catalog import CatalogEntry, GraphCatalog
from repro.service.service import QueryAnswer, ServiceStatistics
from repro.store.base import shard_of
from repro.utils.concurrency import map_on_threads, named_lock
from repro.telemetry import BYTE_BUCKETS, QueryTrace, Span, maybe_span

__all__ = ["ClusterCoordinator"]

#: The graphs a request is sent behind (:meth:`ClusterCoordinator._request`).
_Sync = Sequence[str]

#: Queries and loads get generous timeouts (a load ships whole graphs);
#: heartbeat pings stay short — a busy single-threaded worker not
#: answering a ping is *busy*, not dead, and must not be respawned.
_REQUEST_TIMEOUT = 120.0
_PING_TIMEOUT = 1.0
_SHUTDOWN_TIMEOUT = 10.0

#: The directory holding this ``repro`` package: first on a worker's
#: ``PYTHONPATH``, however the package reached the coordinator's ``sys.path``.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Logged delta rows per graph beyond which the log folds into a freshly
#: packed segment.
SEGMENT_FOLD_ROWS = 65_536


class _GraphLog:
    """What the workers are told about one graph: its live image generation
    plus every ingest batch since that generation started.

    ``entries`` hold the batches in the shape ``OP_DELTA`` and the *deltas*
    field of ``OP_LOAD`` carry — ``(version, (dict_start, packed_terms),
    rows)`` — so a load sends the generation's segment descriptor plus this
    log instead of repacking: respawn recovery is O(log), not O(graph).
    ``image`` is that descriptor, ``(segment_name, directory)`` packed at
    ``version``.  A worker that had been sent all of ``folded_from``, the
    ``(generation, entries)`` the last fold left behind, is exactly at this
    generation's start.  Generations are unique per coordinator, so a
    cursor never outlives a drop.  Guarded by the coordinator's segment
    lock; appends run inside the entry's write lock too (the listener), so
    the log agrees with ``dict_mark``, the dictionary ids it covers.
    """

    def __init__(self, entry: CatalogEntry, generation: int, image: Tuple[str, dict]):
        self.generation = generation
        self.image = image
        self.version = entry.version
        self.entries: List[tuple] = []
        self.rows = 0
        self.dict_mark = len(entry.store.dictionary)
        self.folded_from: Optional[Tuple[int, int]] = None


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


class _WorkerHandle:
    """Coordinator-side state of one worker slot (stable across respawns)."""

    def __init__(self, index: int):
        self.index = index
        self.generation = 0
        self.respawns = 0
        self.process: Optional[subprocess.Popen] = None
        #: This generation's pipe; the receiver thread is its only closer.
        self.connection: Optional[protocol.Connection] = None
        self.alive = False
        #: The one sender at a time: a request leaves back to back with the
        #: catch-up it is sent behind (receiver thread handles recv).
        self.send_lock = named_lock(f"cluster.worker{index}.send_lock")
        #: Per graph, what this worker has been sent: ``(log generation
        #: loaded, log entries sent)``.  Written under the send lock;
        #: ``status()`` reads it without, so that reporting never waits
        #: behind a stopped worker's pipe.
        self.cursors: Dict[str, Tuple[int, int]] = {}
        #: Outstanding requests by id, resolved by the receiver thread.
        #: guarded by self.pending_lock
        self.pending: Dict[int, _PendingReply] = {}
        self.pending_lock = named_lock(f"cluster.worker{index}.pending_lock")
        #: Makes a slot's respawn happen once however many requests found
        #: the worker dead.  Nothing that takes it holds another lock.
        self.respawn_lock = named_lock(f"cluster.worker{index}.respawn_lock")
        self.receiver: Optional[threading.Thread] = None
        self.last_ping: Optional[Dict[str, object]] = None
        self.last_ping_at: Optional[float] = None
        #: The worker's reply to its most recent ``OP_LOAD`` (attach mode,
        #: row counts, attach seconds) — surfaced by ``status()``.
        self.last_load: Optional[Dict[str, object]] = None

    def fail_pending(self, message: str) -> None:
        with self.pending_lock:
            pending, self.pending = self.pending, {}
        for slot in pending.values():
            slot.resolve("crashed", message)

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
    heartbeat_seconds:
        Liveness sweep period; ``0`` disables the sweep (crash detection
        then rests on pipe EOF at request time).
    max_retries:
        Crash-retry budget per request (respawn + retry).
    shm_fold_rows:
        Logged delta rows beyond which a graph's log folds into a freshly
        packed segment (bounds the log, what a lagging worker is sent, and
        re-attach replay work).
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        workers: int = 2,
        kind: str = "weak+strong",
        strategy: str = "hash",
        heartbeat_seconds: float = 2.0,
        max_retries: int = 2,
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
        self._workers = [_WorkerHandle(i) for i in range(workers)]
        self._request_ids = itertools.count(1)
        self._round_robin = itertools.count()
        self._generations = itertools.count(1)
        self.shm_fold_rows = shm_fold_rows
        #: One packed segment per graph generation.
        self._registry = shm.SegmentRegistry()
        #: The only way a worker learns of a write: one log per shipped
        #: graph; guarded by self._segment_lock
        self._logs: Dict[str, _GraphLog] = {}
        self._segment_lock = named_lock("cluster.segment_lock")
        #: Ship latency accounting of this coordinator, read by the bench /
        #: status endpoint through the :attr:`ship_metrics` property; the
        #: process-wide ``cluster.*`` registry families count beside it.
        self._metrics_lock = named_lock("cluster.metrics_lock")
        self._ship_metrics: Dict[str, float] = {
            "ships": 0, "ship_seconds_total": 0.0, "last_ship_seconds": 0.0,
            "reships": 0, "reship_seconds_total": 0.0, "last_reship_seconds": 0.0,
        }
        self._ship_counters = {
            kind: telemetry.counter(f"cluster.{kind}s") for kind in ("ship", "reship")
        }
        self._ship_seconds_histogram = telemetry.histogram("cluster.ship.seconds")
        self._ship_bytes = telemetry.histogram("cluster.ship.bytes", BYTE_BUCKETS)
        self._retries_counter = telemetry.counter("cluster.retries")
        self._shards_pruned_counter = telemetry.counter("cluster.shards_pruned")
        self._respawns_counter = telemetry.counter("cluster.respawns")
        self._fold_failures = telemetry.counter("cluster.fold.failures")
        #: Log entries not yet sent, summed over the worker pool and sampled
        #: at scrape time (the name dates from the per-worker delta queues).
        self._queue_gauge = telemetry.gauge("cluster.delta.queue.depth")
        self._queue_sampler = lambda: sum(map(self._unsent, self._workers))
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
        """Spawn the workers and ship every registered graph.  A graph that
        cannot be packed raises :class:`~repro.errors.SegmentError` — it
        stays in the catalog, and no worker outlives the failed start."""
        for handle in self._workers:
            self._spawn(handle)
        try:
            for name in self.catalog.names():
                self._ship(self.catalog.entry(name))
        except BaseException:
            self.close()
            raise
        if self.heartbeat_seconds > 0:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="repro-heartbeat", daemon=True
            )
            self._heartbeat_thread.start()

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) the process behind *handle* (respawn_lock
        held by the caller for respawns; at start() nothing races)."""
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
        with handle.send_lock:
            # a new worker has been sent nothing: whoever writes to this
            # pipe first loads what it needs, ahead of its own request
            handle.connection = connection
            handle.cursors = {}
            handle.alive = True
        handle.receiver = threading.Thread(
            target=self._receive_loop,
            args=(handle, connection, handle.generation),
            name=f"repro-recv-{handle.index}",
            daemon=True,
        )
        handle.receiver.start()

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

    def close(self, timeout: float = _SHUTDOWN_TIMEOUT) -> None:
        """Drain and stop the workers, join everything.

        Safe to call twice.  The order is the graceful SIGTERM path: each
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
            try:
                self._request(handle, protocol.OP_SHUTDOWN, (), timeout)
            except ClusterError:  # a slot that is down, too
                pass
            handle.retire(timeout)
        # workers are gone (their mappings closed); now unlink every named
        # segment — after this, /dev/shm holds nothing of this coordinator
        with self._segment_lock:
            self._logs.clear()
            self._registry.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _request(
        self, handle: _WorkerHandle, op: str, payload: tuple, timeout: float, sync: _Sync = ()
    ):
        """One id-matched round trip to *handle*'s worker — every contact
        with a worker is this call, and it is the only writer of its pipe.

        *sync* names the graphs the request depends on.  Holding the slot's
        send lock, whatever the worker has not been sent of each — a load,
        or one catch-up delta (:meth:`_catch_up`) — is written first and the
        request right behind it, so it is answered from a replica that has
        every batch logged before it was sent.

        A worker that refuses a load or a catch-up, or answers "unknown
        graph", has no usable copy (it keeps none after a failure): the
        graph's cursor is dropped and the request re-sent once, behind a
        fresh load — if the graph still has a log.
        """
        for retried in (False, True):
            if not handle.alive:
                raise WorkerCrashedError(f"worker {handle.index} is down")
            sent: List[Tuple[Optional[str], str, int, _PendingReply]] = []
            try:
                with handle.send_lock:
                    outgoing = [(name, self._catch_up(handle, name)) for name in sync]
                    outgoing.append((None, (op, payload)))
                    try:
                        for name, message in outgoing:
                            if message is None:
                                continue  # the worker has all of that graph
                            request_id = next(self._request_ids)
                            slot = _PendingReply()
                            with handle.pending_lock:
                                handle.pending[request_id] = slot
                            sent.append((name, message[0], request_id, slot))
                            handle.connection.send((request_id, *message))
                    except (OSError, ValueError) as error:
                        handle.alive = False
                        raise WorkerCrashedError(
                            f"worker {handle.index} send failed: {error}"
                        ) from error
                reply = sent[-1][3]
                if not reply.event.wait(timeout):
                    raise WorkerTimeoutError(
                        f"worker {handle.index} did not answer {op!r} within {timeout}s"
                    )
            finally:
                with handle.pending_lock:
                    for _name, _op, request_id, _slot in sent:
                        handle.pending.pop(request_id, None)
            if reply.status == "crashed":
                raise WorkerCrashedError(str(reply.payload))
            # replies arrive in the order sent, so each catch-up's is in
            stale = []
            for name, message_op, _request_id, slot in sent[:-1]:
                if slot.status != "ok":
                    stale.append(name)
                elif message_op == protocol.OP_LOAD:
                    handle.last_load = slot.payload
            if reply.status != "ok" and reply.payload[0] == "unknown_graph":
                stale.extend(sync)
            if not stale:
                break
            with handle.send_lock:
                for name in stale:
                    handle.cursors.pop(name, None)
        if reply.status == "ok":
            return reply.payload
        error_kind, message = reply.payload
        if error_kind == "unknown_graph":
            raise UnknownGraphError(message)
        if error_kind == "query":
            raise QueryError(message)
        raise ClusterError(f"worker {handle.index} {error_kind} error: {message}")

    def _catch_up(self, handle: _WorkerHandle, name: str) -> Optional[Tuple[str, tuple]]:
        """The one message that brings *handle*'s worker up to date on graph
        *name* — ``(OP_LOAD, payload)`` when it holds no copy of the live
        generation, ``(OP_DELTA, payload)`` when it is behind on the log —
        or ``None``.  Advances the cursor: the caller (holding the send
        lock) writes the message next.
        """
        with self._segment_lock:
            log = self._logs.get(name)
            if log is None:
                return None  # never shipped, or dropped: nothing to say
            generation, entries_sent = handle.cursors.get(name, (None, 0))
            if (generation, entries_sent) == log.folded_from:
                generation, entries_sent = log.generation, 0
            handle.cursors[name] = (log.generation, len(log.entries))
            if generation == log.generation:
                behind = log.entries[entries_sent:]
                return (protocol.OP_DELTA, (name, behind)) if behind else None
            return protocol.OP_LOAD, (name, log.version, log.image, list(log.entries))

    def _call_with_retry(
        self, handle: _WorkerHandle, op: str, payload: tuple, timeout: float, sync: _Sync = ()
    ) -> Tuple[object, int]:
        """A round trip that survives worker crashes; returns
        ``(reply, retries_spent)``.  Crashes trigger respawn + retry up to
        the budget — the retry loads the fresh worker ahead of itself, like
        any first contact; timeouts do not (re-running the same wedging
        request would wedge the fresh worker too).
        """
        retries = 0
        while True:
            generation = handle.generation
            try:
                return self._request(handle, op, payload, timeout, sync), retries
            except WorkerCrashedError:
                if self._closed or retries >= self.max_retries:
                    raise
                retries += 1
                try:
                    self._ensure_alive(handle, generation)
                except WorkerCrashedError:
                    # the respawned worker died under its own re-ship: the
                    # handle is marked dead, the next attempt raises at once
                    # and the budget check decides when to give up
                    continue

    def _ensure_alive(self, handle: _WorkerHandle, seen_generation: int) -> None:
        """Respawn *handle*'s worker unless someone already did."""
        with handle.respawn_lock:
            if handle.generation != seen_generation:
                return  # a concurrent caller respawned; just retry
            process = handle.process
            if handle.alive and process is not None and process.poll() is None:
                return
            if process is not None and process.poll() is None:
                process.terminate()
            handle.retire(timeout=5.0)
            handle.fail_pending(f"worker {handle.index} respawning")
            handle.generation += 1
            handle.respawns += 1
            self._respawns_counter.inc()
            # The one spawn under a lock: this lock is what makes a dead
            # slot respawn once, no writer ever takes it (the ingest
            # listener only appends to a log), and its holders hold nothing
            # else — so nothing can block against this spawn.
            self._spawn(handle)  # repro-lint: disable=no-blocking-under-lock
            # re-ship: the new worker's first contact loads every graph (the
            # O(1) segment descriptor plus the log, never a repack) —
            # whatever was written while the slot was down is there
            started = perf_counter()
            self._ping(handle, _REQUEST_TIMEOUT)
            self._record_ship("reship", perf_counter() - started)

    def _ping(self, handle: _WorkerHandle, timeout: float, sync: Optional[_Sync] = None) -> dict:
        """A ping sent behind everything the worker has not been sent — of
        the graphs in *sync*, by default of every graph."""
        if sync is None:
            sync = self.catalog.names()
        return self._request(handle, protocol.OP_PING, (), timeout, sync)

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
                    # the ping catches an idle worker up on every log, so it
                    # rarely lags a fold and its next query has little to apply
                    handle.last_ping = self._ping(handle, _PING_TIMEOUT)
                    handle.last_ping_at = monotonic()
                except ClusterError:
                    # a timeout is a busy worker, not a dead one (single-
                    # threaded, mid-join, it answers late): only process
                    # death triggers respawn
                    continue

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------
    def _ship(self, entry: CatalogEntry) -> None:
        """Pack *entry*'s first segment, open its log and load the graph
        into the workers in parallel — every one of them, whichever fail;
        the first failure is raised.  The payload is a descriptor: the
        per-worker cost is the worker-side attach.
        """
        started = perf_counter()
        with entry.rwlock.write_locked():
            # Under the write lock no batch is between its insert and its
            # listener call, so the dictionary mark, the packed generation
            # and the listener all start from the same store state.
            with self._segment_lock:
                if entry.closed or entry.name in self._logs:
                    return
                # a worker's G∞ derives rdf:type rows even for a graph without
                # type triples: its id is assigned here, so no worker mints one
                entry.store.dictionary.encode(RDF_TYPE)
                image = self._pack_segment(entry)
                self._logs[entry.name] = _GraphLog(entry, next(self._generations), image)
            entry._delta_listeners.append(self._on_entry_delta)
        map_on_threads(
            lambda handle: self._ping(handle, _REQUEST_TIMEOUT, [entry.name]),
            self._workers,
            self.worker_count,
            "repro-ship",
        )
        self._record_ship("ship", perf_counter() - started)

    def _on_entry_delta(self, entry: CatalogEntry, rows: List) -> None:
        """Entry write hook: append the ingest batch to the graph's log.

        Runs inside the entry's write lock (serialized per graph), so the
        dictionary mark advances consistently with the logged tail.  It
        touches no pipe and waits for no worker — a slow, stopped or dead
        worker never holds a writer up; what bounds the log is the fold.
        """
        if self._closed:
            return
        with self._segment_lock:
            log = self._logs.get(entry.name)
            if log is None:
                return  # dropped under us
            packed_terms = protocol.pack_terms(entry.store.dictionary, log.dict_mark)
            wire_rows = [(kind.value, row[0], row[1], row[2]) for kind, row in rows]
            log.entries.append((entry.version, (log.dict_mark, packed_terms), wire_rows))
            log.dict_mark += len(packed_terms)
            log.rows += len(wire_rows)
            if log.rows < self.shm_fold_rows:
                return
            # Fold: the log collapses into a new generation.  We hold the
            # entry write lock, so the store is stable and a repack is
            # consistent.  Workers that have been sent the whole log carry
            # on from ``folded_from``; the others take the new image.
            try:
                log.image = self._pack_segment(entry)
            except SegmentError:
                # no room for the segment: the batch is inserted, logged
                # and reaches every worker all the same — keep the old
                # generation and its long log, try again next batch
                self._fold_failures.inc()
                return
            log.folded_from = (log.generation, len(log.entries))
            log.generation = next(self._generations)
            log.version = entry.version
            log.entries = []
            log.rows = 0

    def _pack_segment(self, entry: CatalogEntry) -> Tuple[str, dict]:
        """Pack *entry* as it stands into a fresh segment; the descriptor.

        Caller holds the entry's write lock and the segment lock.
        """
        store = entry.store
        try:
            segment_name, directory, nbytes = self._registry.pack(
                entry.name,
                entry.version,
                protocol.pack_term_chunks(store.dictionary),
                protocol.pack_all_shard_tables(store, self.worker_count),
                protocol.pack_full_tables(store),
                protocol.BYTEORDER,
            )
        except OSError as error:
            raise SegmentError(f"no segment for graph {entry.name!r}: {error}") from error
        self._ship_bytes.observe(float(nbytes))
        return segment_name, directory

    def _record_ship(self, kind: str, seconds: float) -> None:
        with self._metrics_lock:
            self._ship_metrics[f"{kind}s"] += 1
            self._ship_metrics[f"{kind}_seconds_total"] += seconds
            self._ship_metrics[f"last_{kind}_seconds"] = seconds
        self._ship_counters[kind].inc()
        self._ship_seconds_histogram.observe(seconds)

    @property
    def ship_metrics(self) -> Dict[str, object]:
        """Ship latency accounting in the historical dict shape."""
        with self._metrics_lock:
            return dict(self._ship_metrics)

    # ------------------------------------------------------------------
    # writes (the coordinator is the tier's single writer)
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        graph: Optional[RDFGraph] = None,
        store=None,
    ) -> CatalogEntry:
        """Register a graph and ship its shards to every worker — or, when
        its segment cannot be packed, raise :class:`SegmentError` with the
        graph unregistered again."""
        entry = self.catalog.register(name, graph=graph, store=store)
        try:
            self._ship(entry)
        except WorkerCrashedError:
            # every other worker was still sent its load; the dead one's
            # replacement loads the graph on its first contact
            pass
        except SegmentError:
            self.catalog.drop(name)
            raise
        return entry

    def add_triples(self, name: str, triples) -> int:
        """Ingest through the catalog; the delta listener logs the batch."""
        return self.catalog.add_triples(name, triples)

    def drop(self, name: str) -> None:
        """Drop a graph everywhere (coordinator first, then the workers)."""
        self.catalog.drop(name)
        with self._segment_lock:
            self._logs.pop(name, None)
            # unlink first: the name disappears immediately; worker
            # mappings stay valid until their drop closes them
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
            query.to_sparql(),
            target,
            limit,
            saturated,
            explain,
            query_trace.trace_id if query_trace is not None else None,
        )
        with maybe_span(query_trace, "scatter") as scatter_span:
            # in parallel for a scatter, each request behind what its worker
            # has not been sent of the graph
            outcomes = map_on_threads(
                lambda handle: self._call_with_retry(
                    handle, protocol.OP_QUERY, payload, _REQUEST_TIMEOUT, [graph_name]
                ),
                handles,
                len(handles),
                "repro-scatter",
            )
            results = [reply for reply, _ in outcomes]
            retries = sum(spent for _, spent in outcomes)
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
    def _unsent(self, handle: _WorkerHandle) -> int:
        """Log entries *handle*'s worker has not been sent yet."""
        unsent = 0
        with self._segment_lock:
            for name, log in self._logs.items():
                generation, entries_sent = handle.cursors.get(name, (None, 0))
                unsent += len(log.entries) - (entries_sent if generation == log.generation else 0)
        return unsent

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
                    "queued_deltas": self._unsent(handle),
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
            shm_info = {
                "logged_delta_rows": sum(log.rows for log in self._logs.values()),
                "segments": self._registry.info(),
                "packs": self._registry.packs,
            }
        return {
            "workers": workers,
            "worker_count": self.worker_count,
            "kind": self.kind,
            "strategy": self.strategy,
            "graphs": self.catalog.names(),
            "uptime_seconds": monotonic() - self.started_at,
            "service": self.statistics.as_dict(),
            "shm": shm_info,
            "ship_metrics": self.ship_metrics,
        }

    def worker_metrics(self, timeout: float = 10.0) -> List[Optional[Dict[str, object]]]:
        """One fresh ping reply per worker slot (``None`` for a dead one).

        Unlike the heartbeat's opportunistic ``last_ping``, this blocks for
        an answer — benchmarks read per-worker RSS and column-memory
        accounting from it right after a load or a crash-recovery pass.
        Like the heartbeat's, the ping brings the worker up to date first.
        """
        replies: List[Optional[Dict[str, object]]] = []
        for handle in self._workers:
            try:
                replies.append(self._ping(handle, timeout))
            except ClusterError:
                replies.append(None)
        return replies
