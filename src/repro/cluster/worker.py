"""The cluster worker process: one shard, one full replica, one pipe.

A worker is ``python -m repro.cluster.worker <fd> <config>``: a
single-threaded message loop over a
:class:`~repro.cluster.protocol.Connection` on the socket-pair end its
coordinator passed it as *fd*, importing what answering a query needs —
store, evaluator, guard — and nothing else of the package.  Per registered
graph it keeps **two** worker-local stores sharing **one** dictionary
(rebuilt id-for-id from the coordinator's packed term columns):

* the *shard* store — its :func:`~repro.store.base.shard_of` slice of the
  DATA/TYPE tables plus the broadcast SCHEMA table.  Queries whose
  patterns all share one subject term are exact on this partition, and the
  shard's own weak/strong summaries guard them: a refuted shard never runs
  the join;
* the *full* store — a complete replica, answering everything
  subject-hash partitioning cannot make shard-local (chain joins,
  saturated semantics — rdfs3 derives type rows keyed by the *object* of a
  data row, so shard-local saturation is not a partition of ``G∞``).

Both sit behind ordinary :class:`~repro.service.catalog.CatalogEntry`
objects in two worker-local catalogs fronted by
:class:`~repro.service.service.QueryService` instances — the per-shard
summaries, cardinality statistics, planners and guard cascades are exactly
the serving machinery of the single-process tier, pointed at smaller
tables.

A load names the graph generation's *segment* and carries its directory
(see :func:`repro.cluster.shm.layout_image`): the worker attaches the
segment and adopts its column regions zero-copy
(:meth:`MemoryStore.adopt_column_buffers`) — one physical copy per host,
however many workers.  Shard store and full replica alike defer their
summary maintainer's priming scan to their first guarded query, the
dictionary is hydrated lazily from the packed term chunks, and the load's
delta log is replayed.  A worker never assigns a dictionary id: every id
comes from the coordinator, so a log entry must start exactly where the
worker's dictionary ends.  The worker closes its mapping when the graph is
dropped or replaced — after closing the stores, which release their adopted
views — and unlinks only *orphans*: the coordinator owns every segment for
as long as it lives (see *Shutdown*).

Ordering
--------
Messages are processed — and answered — strictly in arrival order.  That
is the whole read-your-writes mechanism: the coordinator writes what this
worker has not been sent of a graph (a load, or one delta carrying the
missing log entries) into the pipe immediately ahead of the request that
depends on it.  Replies carry request ids because several coordinator
threads have requests outstanding on one pipe, not because they reorder.
A load or a delta that fails leaves **no** copy of its graph behind, so
the next request for it answers "unknown graph" instead of reading a
half-applied replica — which is how the coordinator learns to send a
fresh image.

Shutdown
--------
``SIGTERM`` sets a drain flag: the loop finishes (and answers) the message
in hand, then exits without reading further — the coordinator sees EOF and
respawns or, during its own shutdown, moves on.  ``SIGINT`` is ignored
(a Ctrl-C in the foreground serve session belongs to the coordinator).

EOF on the pipe means the coordinator gave this generation up — or died.
A dead coordinator cannot unlink its segments, so before exiting the worker
unlinks every segment it attached whose owner lock has been released
(:func:`repro.cluster.shm.unlink_orphans`).  It never touches the segment
of a living coordinator: the replacement worker re-attaches that very name.
"""

from __future__ import annotations

import pickle
import signal
import sys
from time import monotonic, perf_counter, sleep
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.cluster import protocol, shm
from repro.errors import DictionaryError, QueryError, ReproError, UnknownGraphError
from repro.model.dictionary import Dictionary, EncodedTriple
from repro.model.triple import TripleKind
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryAnswer, QueryService
from repro.store.base import ID_BYTES
from repro.store.memory import MemoryStore
from repro.telemetry import QueryTrace

try:  # POSIX-only; the RSS probe degrades gracefully elsewhere
    import resource
except ImportError:  # pragma: no cover
    resource = None

__all__ = ["worker_main", "TARGET_SHARD", "TARGET_FULL"]

#: How long a worker whose pipe reached EOF keeps testing its segments for
#: a released owner lock: a dying coordinator's pipe ends and lock fds close
#: in one pass of the kernel's exit path, but the pipe may go first.
_ORPHAN_GRACE_SECONDS = 1.0

#: Query routing targets (the ``target`` field of a query message).
TARGET_SHARD = "shard"
TARGET_FULL = "full"


def _encoded(rows) -> List[Tuple[TripleKind, EncodedTriple]]:
    """Delta wire rows ``(kind_value, s, p, o)`` as the store's encoded rows."""
    return [(TripleKind(kind_value), EncodedTriple(s, p, o)) for kind_value, s, p, o in rows]


class _Worker:
    """The state behind one worker process's message loop."""

    def __init__(self, connection, config: Dict[str, object]):
        self.connection = connection
        self.shard_index: int = config["shard_index"]
        self.shard_count: int = config["shard_count"]
        self.shard_catalog = GraphCatalog()
        self.full_catalog = GraphCatalog()
        kind = config.get("kind", "weak+strong")
        strategy = config.get("strategy", "hash")
        self.shard_service = QueryService(self.shard_catalog, kind=kind, strategy=strategy)
        self.full_service = QueryService(self.full_catalog, kind=kind, strategy=strategy)
        #: Loaded graphs: name -> the version of the last batch applied.
        self.graphs: Dict[str, int] = {}
        #: Attached segments by graph name (closed, not unlinked, when the
        #: graph is dropped or replaced).
        self.segments: Dict[str, object] = {}
        #: Graphs whose dictionary still awaits hydration from the packed
        #: term blob: ``name -> (dictionary, pickled term chunks)``.  A
        #: load acknowledges in O(1) and the first delta or query of the
        #: graph pays the O(terms) unpack.
        self._pending_terms: Dict[str, Tuple[Dictionary, bytes]] = {}
        self.draining = False

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def handle_load(self, payload: tuple) -> dict:
        name, version, (segment_name, directory), deltas = payload
        started = perf_counter()
        if name in self.graphs:
            # a lagging copy replaced by the live generation: drop it first
            self._drop_local(name)
        shard_rows, full_rows = self._load_image(name, version, segment_name, directory)
        # replay the log that post-dates the image (a segment is the
        # generation as packed; the batches since travel with the load)
        self._apply_log(name, deltas)
        return {
            "name": name,
            "version": self.graphs[name],
            "shard_rows": shard_rows,
            "full_rows": full_rows,
            "attach_seconds": perf_counter() - started,
        }

    def _load_image(
        self, name: str, version: int, segment_name: str, directory: dict
    ) -> Tuple[int, int]:
        """Attach segment *segment_name* and adopt its column regions
        zero-copy.  Either the graph is fully loaded when this returns, or
        nothing of it is left behind — its mapping included."""
        segment = self.segments[name] = shm.attach(segment_name)
        buffer = segment.buf
        stores: List[MemoryStore] = []
        try:
            byteorder = directory["byteorder"]
            offset, length = directory["terms"]
            # a plain memcpy of the pickled blob; the O(terms) dictionary
            # rebuild is deferred (see _pending_terms) so the load ack
            # stays O(1) in the graph size
            dictionary = Dictionary()
            terms_blob = bytes(buffer[offset : offset + length])
            shard_store = MemoryStore()
            stores.append(shard_store)
            shard_store.dictionary = dictionary
            shard_rows = self._adopt_tables(
                shard_store, buffer, directory["targets"][self.shard_index], byteorder
            )
            full_store = MemoryStore()
            stores.append(full_store)
            full_store.dictionary = dictionary
            full_rows = self._adopt_tables(
                full_store, buffer, directory["targets"]["full"], byteorder
            )
            # an adopted store pays its summary priming scan on its first
            # guarded query, not here
            self.shard_catalog.register(name, store=shard_store)
            self.full_catalog.register(name, store=full_store)
        except BaseException:
            # leave no half-loaded graph: close every store we built
            # (releasing adopted views — close is idempotent, so stores
            # the catalogs already own close again harmlessly), then drop
            # catalog state and the mapping
            for store in stores:
                store.close()
            self._drop_local(name)
            raise
        self._pending_terms[name] = (dictionary, terms_blob)
        self.graphs[name] = version
        return shard_rows, full_rows

    def _hydrate_terms(self, name: str) -> None:
        """Rebuild *name*'s dictionary from its deferred term blob (no-op
        once hydrated).  Both stores share the dictionary object, so one
        unpack serves the shard and the full replica alike."""
        pending = self._pending_terms.pop(name, None)
        if pending is None:
            return
        dictionary, terms_blob = pending
        # terms_blob holds protocol.pack_term_chunks output — plain value
        # tuples, no Term objects (their hashes are process-salted).
        chunks = pickle.loads(terms_blob)  # repro-lint: disable=no-pickled-terms
        protocol.unpack_term_chunks(chunks, dictionary)

    def _adopt_tables(
        self, store: MemoryStore, buffer, tables: Dict[str, tuple], byteorder: str
    ) -> int:
        rows = 0
        for kind_value, (count, s_offset, p_offset, o_offset) in tables.items():
            nbytes = count * ID_BYTES
            # layout_image lays a table's columns back to back: a row count
            # that disagrees with the column windows, or a window off the
            # end of the image, is a corrupt directory — never adopt it
            if not (
                0 <= s_offset
                and p_offset - s_offset == nbytes == o_offset - p_offset
                and o_offset + nbytes <= len(buffer)
            ):
                raise ReproError(
                    f"image row count mismatch for {kind_value}: {count} rows "
                    f"do not fit the column windows at {s_offset}/{p_offset}/{o_offset}"
                )
            rows += store.adopt_column_buffers(
                TripleKind(kind_value),
                buffer[s_offset : s_offset + nbytes],
                buffer[p_offset : p_offset + nbytes],
                buffer[o_offset : o_offset + nbytes],
                byteorder=byteorder,
            )
        return rows

    def handle_delta(self, payload: tuple) -> dict:
        name, entries = payload
        applied_full, applied_shard = self._apply_log(name, entries)
        return {
            "name": name,
            "version": self.graphs[name],
            "full": applied_full,
            "shard": applied_shard,
        }

    def _apply_log(self, name: str, entries: list) -> Tuple[int, int]:
        """Apply log entries — ``(version, (dict_start, packed_terms),
        rows)`` ingest batches, sent as a catch-up or replayed by a load —
        in order: all of them, or the graph is dropped (a replica missing a
        batch must not answer)."""
        if name not in self.graphs:
            raise UnknownGraphError(f"worker never loaded graph {name!r}")
        applied_full = applied_shard = 0
        try:
            full_entry = self.full_catalog.entry(name)
            shard_entry = self.shard_catalog.entry(name)
            dictionary = full_entry.store.dictionary
            for version, (dict_start, packed), rows in entries:
                # an entry's dict-offset contract needs the full base
                # dictionary (a load without a log still leaves it packed)
                self._hydrate_terms(name)
                # the entry packs dictionary ids [dict_start, dict_start+len)
                # and the image is its generation's start: the worker's ids
                # must end exactly where the entry's begin
                if len(dictionary) != dict_start:
                    raise DictionaryError(
                        f"delta term offset mismatch for {name!r}: worker has "
                        f"{len(dictionary)} ids, delta starts at {dict_start}"
                    )
                protocol.unpack_terms(packed, dictionary)
                applied_full += full_entry.add_encoded_rows(_encoded(rows))
                mine = protocol.shard_rows(rows, self.shard_index, self.shard_count)
                applied_shard += shard_entry.add_encoded_rows(_encoded(mine))
                self.graphs[name] = version
        except BaseException:
            self._drop_local(name)
            raise
        return applied_full, applied_shard

    def _drop_local(self, name: str) -> None:
        """Forget *name*'s stores, segment and version.  Stores close first
        — releasing any adopted column views — so the segment mapping can
        close without BufferError."""
        self.graphs.pop(name, None)
        self._pending_terms.pop(name, None)
        for catalog in (self.shard_catalog, self.full_catalog):
            try:
                catalog.drop(name)
            except UnknownGraphError:
                pass
        segment = self.segments.pop(name, None)
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a stray live view
                pass

    def handle_drop(self, payload: tuple) -> dict:
        (name,) = payload
        self._drop_local(name)
        return {"name": name}

    def handle_query(self, payload: tuple) -> dict:
        name, text, target, limit, saturated, explain, trace_id = payload
        self._hydrate_terms(name)  # query terms encode through the dictionary
        service = self.shard_service if target == TARGET_SHARD else self.full_service
        query = parse_query(text, name="cluster")
        answer = service.answer(
            name,
            query,
            limit=limit,
            saturated=saturated,
            explain=explain,
            trace=QueryTrace(trace_id) if trace_id else False,
        )
        return self._encode_answer(answer)

    def handle_ping(self, _payload: tuple) -> dict:
        return {
            "shard_index": self.shard_index,
            "graphs": dict(self.graphs),
            "segments": len(self.segments),
            "rss_kb": self._rss_kb(),
            "column_memory": self._column_memory(),
        }

    @staticmethod
    def _rss_kb() -> Optional[int]:
        """Peak RSS of this worker in KiB (``None`` off POSIX).

        Informational only: shared segment pages count against every
        worker that touched them, so replica memory is read off the
        deterministic :meth:`MemoryStore.column_memory` accounting instead.
        """
        if resource is None:
            return None
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _column_memory(self) -> Dict[str, int]:
        """Private vs shared column bytes across every store of this worker
        (views over a segment are ``adopted_bytes``: one copy per host)."""
        totals = {"private_bytes": 0, "adopted_bytes": 0}
        for catalog in (self.shard_catalog, self.full_catalog):
            for name in catalog.names():
                for key, nbytes in catalog.entry(name).store.column_memory().items():
                    totals[key] += nbytes
        return totals

    def _encode_answer(self, answer: QueryAnswer) -> dict:
        dictionary = self.full_catalog.entry(answer.graph_name).store.dictionary
        encode = dictionary.encode_existing
        return {
            "answers": [[encode(term) for term in row] for row in answer.answers],
            "pruned": answer.pruned,
            "prunable": answer.prunable,
            "pruned_by": answer.pruned_by,
            "guard_order": list(answer.guard_order),
            "kind": answer.kind,
            "strategy": answer.strategy,
            "guard_seconds": answer.guard_seconds,
            "evaluation_seconds": answer.evaluation_seconds,
            "trace": answer.trace.as_dict() if answer.trace is not None else None,
            "saturation": answer.saturation,
            "query_trace": (
                answer.query_trace.as_dict() if answer.query_trace is not None else None
            ),
        }

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _reply(self, request_id: int, handler, payload: tuple) -> None:
        try:
            result = handler(payload)
        except UnknownGraphError as error:
            self.connection.send((request_id, "error", ("unknown_graph", str(error))))
        except QueryError as error:
            self.connection.send((request_id, "error", ("query", str(error))))
        except ReproError as error:
            self.connection.send((request_id, "error", ("repro", str(error))))
        except Exception as error:  # noqa: BLE001 - the pipe must answer
            self.connection.send((request_id, "error", ("internal", f"{type(error).__name__}: {error}")))
        else:
            self.connection.send((request_id, "ok", result))

    def run(self) -> None:
        try:
            self._serve()
        except (EOFError, OSError):
            # the pipe went away, under a read or under a reply: this
            # generation is over, or the coordinator is gone
            self._unlink_orphans()
        self.close()

    def _serve(self) -> None:
        handlers = {
            protocol.OP_LOAD: self.handle_load,
            protocol.OP_DELTA: self.handle_delta,
            protocol.OP_QUERY: self.handle_query,
            protocol.OP_DROP: self.handle_drop,
            protocol.OP_PING: self.handle_ping,
        }
        connection = self.connection
        while True:
            if self.draining:
                break
            # poll instead of a blocking recv: a SIGTERM that arrives
            # while idle must still drain promptly (PEP 475 would retry a
            # blocked recv straight through the handler)
            if not connection.poll(0.2):
                continue
            request_id, op, payload = connection.recv()
            if op == protocol.OP_SHUTDOWN:
                self._reply(request_id, lambda _payload: {"draining": True}, payload)
                break
            handler = handlers.get(op)
            if handler is None:
                self._reply(
                    request_id,
                    lambda _payload: (_ for _ in ()).throw(
                        ReproError(f"unknown cluster opcode {op!r}")
                    ),
                    payload,
                )
                continue
            self._reply(request_id, handler, payload)

    def _unlink_orphans(self) -> None:
        """Unlink the attached segments a dead coordinator left behind:
        poll until every attached name is gone (unlinked here, or by a
        sibling that looked first) or the grace period is over — which is
        how it ends under a living coordinator, whose locks hold."""
        names = {segment.name for segment in self.segments.values()}
        deadline = monotonic() + _ORPHAN_GRACE_SECONDS
        while monotonic() < deadline:
            shm.unlink_orphans(names)
            if names.isdisjoint(shm.list_segments()):
                break
            sleep(0.05)

    def close(self) -> None:
        # catalogs first (stores release their adopted views), then the
        # segment mappings; unlinking is not part of an orderly close
        self.shard_catalog.close()
        self.full_catalog.close()
        for segment in self.segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a stray live view
                pass
        self.segments.clear()
        try:
            self.connection.close()
        except OSError:
            pass


def worker_main(connection, config: Dict[str, object]) -> None:
    """Entry point of a worker process."""
    # the coordinator owns interactive signals; SIGTERM means "drain after
    # the message in hand" (the graceful half of the failure model)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # inherit the coordinator's telemetry mode before any service (and its
    # instrument handles) is built — a worker is a fresh interpreter
    telemetry.set_enabled(bool(config.get("telemetry", True)))
    worker = _Worker(connection, config)

    def _drain(_signum, _frame):
        worker.draining = True

    signal.signal(signal.SIGTERM, _drain)
    worker.run()


if __name__ == "__main__":
    import json

    worker_main(protocol.Connection(int(sys.argv[1])), json.loads(sys.argv[2]))
