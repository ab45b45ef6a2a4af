"""The coordinator of the replicated serving tier.

One :class:`ClusterCoordinator` owns the authoritative
:class:`~repro.service.catalog.GraphCatalog` (the single writer of the
tier), the tier's one :class:`~repro.service.service.QueryService` and a
pool of K worker processes — each a plain ``python -S -m
repro.cluster.worker`` child (:func:`worker_command`) on one end of a
socket pair, so the process tree is the front end and its K workers,
nothing else.  Each registered graph is packed once into a named segment —
one image of raw 4-byte id column blobs, no term — that every worker
attaches as its full replica of the graph: see
:mod:`repro.cluster.shm` for the image layout, :mod:`repro.cluster.protocol`
for the wire format and :mod:`repro.cluster.worker` for the receiving side.
Every dictionary id is assigned here, never on a worker: ``rdf:type``,
which a worker's ``G∞`` derives even for a graph without type triples, is
minted before the first pack.

Query routing
-------------
The service answers every query here: it parses nothing twice, compiles
against this dictionary and runs the guard of Proposition 1 on the summary
of the whole graph, under the entry's read lock.  A pruned query
and a dictionary miss are answered on the spot — no pipe message.  Only
then, the lock released, is the *evaluation* of the compiled id query
handed to the next worker in round-robin order (:meth:`_evaluate`, the
service's ``remote`` step); its head id rows decode once, through this
dictionary, which keeps every cluster answer bit-identical to the
in-process :meth:`~repro.service.service.QueryService.answer`.

Writes
------
Ingest runs on the coordinator's catalog (summaries, statistics,
persistence — the usual write path) and a per-entry delta listener appends
the freshly inserted id rows — plus the vocabulary map, when the batch
minted a vocabulary id — to the graph's **log** (:class:`_GraphLog`) —
nothing else: it touches no pipe and waits for no worker.  A worker learns
of a write the next time anything is sent to it: every contact goes
through :meth:`ClusterCoordinator._request`, which, holding the slot's
lock, writes what that worker has not been sent yet (a load, or one
catch-up delta) immediately ahead of the request.  A
socket pair is FIFO and a worker single-threaded, so read-your-writes holds
by *order*.  The log is bounded by the fold (``shm_fold_rows``): past it a
new generation's segment is packed, and a worker that lags a fold attaches
it.

Failure model
-------------
Worker death is detected by pipe EOF (at the round trip that reads it) and
by the heartbeat thread's liveness sweep.  A dead worker is respawned with an
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.cluster import protocol, shm
from repro.errors import (
    ClusterError,
    QueryError,
    SegmentError,
    UnknownGraphError,
    WorkerCrashedError,
    WorkerTimeoutError,
)
from repro.model.graph import RDFGraph
from repro.model.namespaces import RDF_TYPE
from repro.queries.bgp import BGPQuery
from repro.schema.encoded_saturation import vocabulary_ids
from repro.service.catalog import CatalogEntry, GraphCatalog
from repro.service.evaluator import CompiledQuery
from repro.service.planner import ExecutionTrace
from repro.service.service import QueryAnswer, QueryService
from repro.utils.concurrency import map_on_threads, named_lock
from repro.telemetry import BYTE_BUCKETS, QueryTrace, Span, maybe_span

__all__ = ["ClusterCoordinator", "worker_command"]

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


def worker_command(*arguments: str) -> List[str]:
    """The argv of a worker interpreter, *arguments* last: this interpreter
    and its flags plus ``-S``.  A worker needs nothing from site-packages (it
    finds ``repro`` through ``_PACKAGE_ROOT`` on its ``PYTHONPATH``), so it
    skips ``site`` and whatever its ``.pth`` files import, in each of K
    processes."""
    return [sys.executable, *subprocess._args_from_interpreter_flags(), "-S", *arguments]


#: Logged delta rows per graph beyond which the log folds into a freshly
#: packed segment.
SEGMENT_FOLD_ROWS = 65_536


class _GraphLog:
    """What the workers are told about one graph: its live image generation
    plus every ingest batch since that generation started.

    ``entries`` hold the batches in the shape ``OP_DELTA`` and the *deltas*
    field of ``OP_LOAD`` carry — ``(version, vocabulary or None, rows)`` —
    so a load sends the generation's segment descriptor plus this log
    instead of repacking: respawn recovery is O(log), not O(graph).
    ``image`` is that descriptor, ``(segment_name, directory)`` packed at
    ``version``.  A worker that had been sent all of ``folded_from``, the
    ``(generation, entries)`` the last fold left behind, is exactly at this
    generation's start.  Generations are unique per coordinator, so a
    cursor never outlives a drop.  ``vocabulary`` is the graph's vocabulary
    map as last logged: a load carries it, and an entry carries it again
    only when its batch changed it.  Guarded by the coordinator's segment
    lock; appends run inside the entry's write lock too (the listener).
    """

    def __init__(self, entry: CatalogEntry, generation: int, image: Tuple[str, dict]):
        self.generation = generation
        self.image = image
        self.version = entry.version
        self.entries: List[tuple] = []
        self.rows = 0
        self.vocabulary = vocabulary_ids(entry.store.dictionary)
        self.folded_from: Optional[Tuple[int, int]] = None


def _routing(workers: List[int], pruned: bool, retries: int) -> Dict[str, object]:
    """An answer's :attr:`~QueryAnswer.cluster` record — ``mode`` (always
    ``"full"``) and ``shards_pruned`` keep the names the benchmark reads."""
    return {"mode": "full", "workers": workers, "shards_pruned": int(pruned), "retries": retries}


class _WorkerHandle:
    """Coordinator-side state of one worker slot (stable across respawns)."""

    def __init__(self, index: int):
        self.index = index
        self.generation = 0
        self.respawns = 0
        self.process: Optional[subprocess.Popen] = None
        #: This generation's pipe, ``None`` once it is closed: only the
        #: holder of ``lock`` uses it, so whoever finds it broken closes it.
        self.connection: Optional[protocol.Connection] = None
        #: One round trip at a time: held from the first catch-up written to
        #: the last reply read (:meth:`ClusterCoordinator._request`).
        self.lock = named_lock(f"cluster.worker{index}.lock")
        #: Per graph, what this worker has been sent: ``(log generation
        #: loaded, log entries sent)``.  Written under the slot's lock;
        #: ``status()`` reads it without, so that reporting never waits
        #: behind a stopped worker's pipe.
        self.cursors: Dict[str, Tuple[int, int]] = {}
        #: Makes a slot's respawn happen once however many requests found
        #: the worker dead.  Its holder takes no lock but the slot's own.
        self.respawn_lock = named_lock(f"cluster.worker{index}.respawn_lock")
        self.last_ping: Optional[Dict[str, object]] = None
        self.last_ping_at: Optional[float] = None
        #: The worker's reply to its most recent ``OP_LOAD`` (attach mode,
        #: row counts, attach seconds) — surfaced by ``status()``.
        self.last_load: Optional[Dict[str, object]] = None

    def alive(self) -> bool:
        """Whether this generation's pipe is open and its process running."""
        process = self.process
        return self.connection is not None and process is not None and process.poll() is None

    def disconnect(self) -> None:
        """Close this generation's pipe (the slot's lock held)."""
        connection, self.connection = self.connection, None
        if connection is not None:
            connection.close()

    def retire(self, timeout: float) -> None:
        """End this generation: reap its process, close its pipe.

        A process still running gets *timeout* seconds to exit on its own,
        as long again after ``SIGTERM``, then ``SIGKILL`` — and is always
        waited for, so no zombie and no unreaped ``Popen`` stays behind.
        Its death is the EOF a round trip in progress reads, so the slot's
        lock is free promptly for the close.
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
        with self.lock:
            self.disconnect()


class ClusterCoordinator:
    """K spawned workers behind one writer catalog; each read on one replica.

    Parameters
    ----------
    catalog:
        The authoritative catalog (optionally persistent).  The
        coordinator is its single writer; route all ingest through
        :meth:`add_triples` / :meth:`register` / :meth:`drop`.
    workers:
        Worker count K — one process per full replica.
    kind / strategy:
        The guard summary kind of the tier's one :attr:`service` and the join
        strategy its workers evaluate with (the same knobs as
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
        kind: str = "strong",
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
        self.strategy = strategy
        self.max_retries = max_retries
        self.heartbeat_seconds = heartbeat_seconds
        #: The tier's one query service: parse, guard and compile run here;
        #: its evaluation step is a round trip to a worker (:meth:`_evaluate`).
        self.service = QueryService(catalog, kind=kind, strategy=strategy, remote=self._evaluate)
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
        #: Messages written to worker pipes, by opcode (catch-ups included).
        self._message_counters = {
            op: telemetry.counter(f"cluster.messages.{op}") for op in protocol.OPS
        }
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
        config = {"strategy": self.strategy}
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
                worker_command(
                    "-m", "repro.cluster.worker", str(child_sock.fileno()), json.dumps(config)
                ),
                pass_fds=[child_sock.fileno()],
                stdin=subprocess.DEVNULL,
                env=env,
            )
            connection = protocol.Connection(sock.detach())
        handle.process = process
        with handle.lock:
            # a new worker has been sent nothing: whoever writes to this
            # pipe first loads what it needs, ahead of its own request
            handle.connection = connection
            handle.cursors = {}

    def close(self, timeout: float = _SHUTDOWN_TIMEOUT) -> None:
        """Drain and stop the workers, join everything.

        Safe to call twice.  The order is the graceful SIGTERM path: each
        worker finishes the message in hand and acks the shutdown, then
        processes are waited for (terminated, then killed, only if they
        overstay) and their pipes closed.
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
        self,
        handle: _WorkerHandle,
        op: str,
        payload: tuple,
        timeout: float,
        sync: _Sync = (),
        blocking: bool = True,
    ):
        """One round trip to *handle*'s worker — every contact with a worker
        is this call, and the thread that makes it does all of it.

        Holding the slot's lock from the first message written to the last
        reply read, it writes whatever the worker has not been sent of each
        graph in *sync* — a load, or one catch-up delta (:meth:`_catch_up`)
        — and the request right behind it, then reads the replies in
        order, so the request is answered from a replica that has every
        batch logged before it was sent.  The lock is waited for within
        *timeout* — unless not *blocking*: a busy slot then raises
        :class:`WorkerTimeoutError` at once.

        A worker that refuses a load or a catch-up, or answers "unknown
        graph", has no usable copy (it keeps none after a failure): the
        graph's cursor is dropped and the request re-sent once, behind a
        fresh load — if the graph still has a log.
        """
        deadline = monotonic() + timeout
        if not (handle.lock.acquire(timeout=timeout) if blocking else handle.lock.acquire(False)):
            raise WorkerTimeoutError(f"worker {handle.index} is busy")
        try:
            for _retried in (False, True):
                outgoing = [(name, self._catch_up(handle, name)) for name in sync]
                outgoing = [item for item in outgoing if item[1] is not None]
                outgoing.append((None, (op, payload)))
                replies = self._exchange(handle, [message for _, message in outgoing], deadline)
                stale = []
                for (name, (message_op, _)), (status, reply) in zip(outgoing[:-1], replies):
                    if status != "ok":
                        stale.append(name)
                    elif message_op == protocol.OP_LOAD:
                        handle.last_load = reply
                status, reply = replies[-1]
                if status != "ok" and reply[0] == "unknown_graph":
                    stale.extend(sync)
                if not stale:
                    break
                for name in stale:
                    handle.cursors.pop(name, None)
        finally:
            handle.lock.release()
        if status == "ok":
            return reply
        error_kind, message = reply
        if error_kind == "unknown_graph":
            raise UnknownGraphError(message)
        if error_kind == "query":
            raise QueryError(message)
        raise ClusterError(f"worker {handle.index} {error_kind} error: {message}")

    def _exchange(self, handle: _WorkerHandle, messages: list, deadline: float) -> list:
        """Write *messages* back to back and read the ``(status, payload)``
        reply to each, in order — the slot's lock held.

        A reply whose id is older than the one awaited is the late answer of
        a request that timed out: it is read past.  A timeout leaves the
        pipe whole; a failed send or receive closes it on the spot and
        raises :class:`WorkerCrashedError`.
        """
        connection = handle.connection
        if connection is None:
            raise WorkerCrashedError(f"worker {handle.index} is down")
        try:
            request_ids = []
            for message in messages:
                request_ids.append(next(self._request_ids))
                connection.send((request_ids[-1], *message))
                self._message_counters[message[0]].inc()
            replies = []
            for request_id in request_ids:
                reply_id = None
                while reply_id != request_id:
                    if not connection.poll(max(0.0, deadline - monotonic())):
                        raise WorkerTimeoutError(
                            f"worker {handle.index} did not answer {messages[-1][0]!r} in time"
                        )
                    reply_id, status, payload = connection.recv()
                replies.append((status, payload))
            return replies
        except WorkerTimeoutError:
            raise
        except Exception as error:  # EOF, a broken pipe, a garbled frame
            handle.disconnect()
            raise WorkerCrashedError(f"worker {handle.index} pipe failed: {error!r}") from error

    def _catch_up(self, handle: _WorkerHandle, name: str) -> Optional[Tuple[str, tuple]]:
        """The one message that brings *handle*'s worker up to date on graph
        *name* — ``(OP_LOAD, payload)`` when it holds no copy of the live
        generation, ``(OP_DELTA, payload)`` when it is behind on the log —
        or ``None``.  Advances the cursor: the caller (holding the slot's
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
            return protocol.OP_LOAD, (
                name, log.version, log.image, dict(log.vocabulary), list(log.entries)
            )

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
            if handle.alive():
                return
            process = handle.process
            if process is not None and process.poll() is None:
                process.terminate()
            handle.retire(timeout=5.0)
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
            self._sweep()

    def _sweep(self) -> None:
        """One heartbeat: respawn each dead slot, ping each free one."""
        for handle in self._workers:
            if self._closed:
                return
            if not handle.alive():
                try:
                    self._ensure_alive(handle, handle.generation)
                except Exception:  # noqa: BLE001 - keep sweeping
                    continue
            try:
                # the ping catches an idle worker up on every log, so it
                # rarely lags a fold and its next query has little to apply
                handle.last_ping = self._request(
                    handle, protocol.OP_PING, (), _PING_TIMEOUT, self.catalog.names(), blocking=False
                )
                handle.last_ping_at = monotonic()
            except ClusterError:
                # a busy slot or a late pong is a busy worker, not a dead one
                # (single-threaded, mid-join): only process death respawns
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
        logged vocabulary advances consistently with the logged rows.  It
        touches no pipe and waits for no worker — a slow, stopped or dead
        worker never holds a writer up; what bounds the log is the fold.
        """
        if self._closed:
            return
        with self._segment_lock:
            log = self._logs.get(entry.name)
            if log is None:
                return  # dropped under us
            vocabulary = vocabulary_ids(entry.store.dictionary)
            if vocabulary == log.vocabulary:
                vocabulary = None  # the workers know every id the rows use
            else:
                log.vocabulary = vocabulary
            wire_rows = [(kind.value, row[0], row[1], row[2]) for kind, row in rows]
            log.entries.append((entry.version, vocabulary, wire_rows))
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
                entry.name, entry.version, protocol.pack_full_tables(store), protocol.BYTEORDER
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
        """Register a graph and ship it to every worker — or, when
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
    # reads: guarded here, evaluated on one worker's replica
    # ------------------------------------------------------------------
    def answer(
        self,
        graph_name: str,
        query: BGPQuery,
        limit: Optional[int] = None,
        saturated: bool = False,
        explain: bool = False,
        trace: Union[bool, QueryTrace] = False,
    ) -> QueryAnswer:
        """:meth:`QueryService.answer` of the tier's one :attr:`service`;
        an answer no worker evaluated (pruned, or a dictionary miss) still
        gets its :attr:`~QueryAnswer.cluster` routing record."""
        if self._closed:
            raise ClusterError("the cluster coordinator is closed")
        answer = self.service.answer(graph_name, query, limit, saturated, explain, trace)
        if answer.cluster is None:
            answer.cluster = _routing([], answer.pruned, 0)
        return answer

    def _evaluate(
        self,
        graph_name: str,
        compiled: CompiledQuery,
        limit: Optional[int],
        saturated: bool,
        trace: Optional[ExecutionTrace],
        query_trace: Optional[QueryTrace],
    ) -> Tuple[list, Optional[dict], Optional[dict]]:
        """The service's evaluation step: *compiled* on the full replica of
        the next worker in round-robin order — ``(head id rows, G∞ metrics,
        routing record)``.  A dictionary miss is empty on every replica and
        sends nothing.

        A *query_trace*'s id rides to the worker inside the query frame and
        its evaluate span tree is grafted back under this coordinator's
        ``route``/``scatter``/``gather`` spans — one tree for the whole
        round trip."""
        if compiled.trivially_empty:
            if trace is not None:
                trace.strategy = self.strategy
            return [], None, None
        with maybe_span(query_trace, "route") as route_span:
            handle = self._workers[next(self._round_robin) % self.worker_count]
            if route_span is not None:
                route_span.attributes.update(mode="full", workers=[handle.index])
        trace_id = query_trace.trace_id if query_trace is not None else None
        payload = protocol.query_payload(
            graph_name, compiled, limit, saturated, trace is not None, trace_id
        )
        with maybe_span(query_trace, "scatter") as scatter_span:
            # sent behind whatever the worker has not been sent of the graph
            result, retries = self._call_with_retry(
                handle, protocol.OP_QUERY, payload, _REQUEST_TIMEOUT, [graph_name]
            )
        if query_trace is not None and result["query_trace"]:
            # graft the worker's finished span tree, wrapped so the tree
            # names the worker that produced it
            subtree = Span.from_dict(result["query_trace"])
            query_trace.graft(
                Span(f"worker-{handle.index}", seconds=subtree.seconds, children=[subtree]),
                under=scatter_span,
            )
        with maybe_span(query_trace, "gather") as gather_span:
            if trace is not None:
                # the worker's plan, stage by stage: the service names the
                # stages through this dictionary
                trace.strategy, trace.plan_cached, stages = result["plan"]
                for pattern_index, *counts in stages:
                    trace.add_stage(None, *counts, pattern_index=pattern_index)
            if gather_span is not None:
                gather_span.attributes["answers"] = len(result["rows"])
        if retries:
            self._retries_counter.inc(retries)
        if query_trace is not None:
            query_trace.annotate(cluster=True)
        return result["rows"], result["saturation"], _routing([handle.index], False, retries)

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
                    "alive": handle.alive(),
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
            "kind": self.service.kind,
            "strategy": self.strategy,
            "graphs": self.catalog.names(),
            "uptime_seconds": monotonic() - self.started_at,
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
