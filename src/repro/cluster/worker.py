"""The cluster worker process: one full replica per graph, one pipe.

A worker is ``python -S -m repro.cluster.worker <fd> <config>``
(:func:`~repro.cluster.coordinator.worker_command`; *config* names the join
``strategy``): a single-threaded message loop over a
:class:`~repro.cluster.protocol.Connection` on the socket-pair end its
coordinator passed it as *fd*.  It imports the store, statistics, planner,
evaluator and catalog (29 ``repro`` modules), no summarizer, parser, server,
SQLite or HTTP code, nor ``site`` or ``tempfile``; the saturator loads when
the first saturated query builds ``G∞``.  Per registered graph it keeps
**one** worker-local store, a complete replica of the graph's integer rows
behind an ordinary :class:`~repro.service.catalog.CatalogEntry`, whose
ingest routine folds every batch into the store, its statistics and, once
built, ``G∞``.  A worker holds integers only: it never parses, guards,
decodes or builds a summary — the coordinator does — and plans the compiled
id queries it is sent with its own statistics (its posting runs are here).

A load names the graph generation's *segment* and carries its directory
(see :func:`repro.cluster.shm.layout_image`) and the graph's vocabulary
map: the worker attaches the segment and adopts its column regions
zero-copy (:meth:`MemoryStore.adopt_column_buffers`) — one physical copy
per host, however many workers — and the load's delta log is replayed.
The worker closes its mapping when the graph is dropped or replaced —
after closing the store, which releases its adopted views — and unlinks
only *orphans*: the coordinator owns every segment for as long as it lives
(see *Shutdown*).

Ordering
--------
Messages are processed — and answered — strictly in arrival order.  That
is the whole read-your-writes mechanism: the coordinator writes what this
worker has not been sent of a graph (a load, or one delta carrying the
missing log entries) into the pipe immediately ahead of the request that
depends on it.  Replies carry request ids so that the coordinator, which
reads each reply on the thread that sent the request, can read past the
late reply of a request that timed out — never because they reorder.
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

import signal
import sys
from time import monotonic, perf_counter, sleep
from typing import Dict, List, Optional, Tuple

from repro.cluster import protocol, shm
from repro.errors import QueryError, ReproError, UnknownGraphError
from repro.model.dictionary import EncodedTriple
from repro.model.triple import TripleKind
from repro.service.catalog import GraphCatalog
from repro.service.evaluator import CompiledPattern, CompiledQuery
from repro.service.planner import ExecutionTrace
from repro.store.base import ID_BYTES
from repro.store.memory import MemoryStore
from repro.telemetry import QueryTrace, maybe_span

try:  # POSIX-only; the RSS probe degrades gracefully elsewhere
    import resource
except ImportError:  # pragma: no cover
    resource = None

__all__ = ["worker_main"]

#: How long a worker whose pipe reached EOF keeps testing its segments for
#: a released owner lock: a dying coordinator's pipe ends and lock fds close
#: in one pass of the kernel's exit path, but the pipe may go first.
_ORPHAN_GRACE_SECONDS = 1.0


def _encoded(rows) -> List[Tuple[TripleKind, EncodedTriple]]:
    """Delta wire rows ``(kind_value, s, p, o)`` as the store's encoded rows."""
    return [(TripleKind(kind_value), EncodedTriple(s, p, o)) for kind_value, s, p, o in rows]


class _Worker:
    """The state behind one worker process's message loop."""

    def __init__(self, connection, config: Dict[str, object]):
        self.connection = connection
        self.catalog = GraphCatalog()
        self.strategy = config.get("strategy", "hash")
        #: Loaded graphs: name -> the version of the last batch applied.
        self.graphs: Dict[str, int] = {}
        #: Attached segments by graph name (closed, not unlinked, when the
        #: graph is dropped or replaced).
        self.segments: Dict[str, object] = {}
        self.draining = False

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def handle_load(self, payload: tuple) -> dict:
        name, version, (segment_name, directory), vocabulary, deltas = payload
        started = perf_counter()
        if name in self.graphs:
            # a lagging copy replaced by the live generation: drop it first
            self._drop_local(name)
        rows = self._load_image(name, version, segment_name, directory, vocabulary)
        # replay the log that post-dates the image (a segment is the
        # generation as packed; the batches since travel with the load)
        self._apply_log(name, deltas)
        return {
            "name": name,
            "version": self.graphs[name],
            "rows": rows,
            "attach_seconds": perf_counter() - started,
        }

    def _load_image(
        self, name: str, version: int, segment_name: str, directory: dict, vocabulary: dict
    ) -> int:
        """Attach segment *segment_name* and adopt its column regions
        zero-copy; the replica's row count.  Either the graph is fully
        loaded when this returns, or nothing of it is left behind — its
        mapping included."""
        segment = self.segments[name] = shm.attach(segment_name)
        store = MemoryStore()
        try:
            rows = self._adopt_tables(store, segment.buf, directory["tables"], directory["byteorder"])
            self.catalog.register(name, store=store).vocabulary.update(vocabulary)
        except BaseException:
            # leave no half-loaded graph: close the store (releasing adopted
            # views — close is idempotent, so a store the catalog already
            # owns closes again harmlessly), then drop catalog state and the
            # mapping
            store.close()
            self._drop_local(name)
            raise
        self.graphs[name] = version
        return rows

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
        applied = self._apply_log(name, entries)
        return {"name": name, "version": self.graphs[name], "rows": applied}

    def _apply_log(self, name: str, entries: list) -> int:
        """Apply log entries — ``(version, vocabulary or None, rows)``
        ingest batches, sent as a catch-up or replayed by a load — in
        order: all of them, or the graph is dropped (a replica missing a
        batch must not answer)."""
        if name not in self.graphs:
            raise UnknownGraphError(f"worker never loaded graph {name!r}")
        applied = 0
        try:
            entry = self.catalog.entry(name)
            for version, vocabulary, rows in entries:
                if vocabulary:  # the batch minted a vocabulary id: known before its rows
                    entry.vocabulary.update(vocabulary)
                applied += entry.add_encoded_rows(_encoded(rows))
                self.graphs[name] = version
        except BaseException:
            self._drop_local(name)
            raise
        return applied

    def _drop_local(self, name: str) -> None:
        """Forget *name*'s store, segment and version.  The store closes
        first — releasing any adopted column views — so the segment mapping
        can close without BufferError."""
        self.graphs.pop(name, None)
        try:
            self.catalog.drop(name)
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
        """Evaluate one compiled id query on the replica: its head id rows,
        plus — as asked — the plan's per-stage counts, the span subtree and
        the ``G∞`` metrics."""
        name, patterns, head_slots, variable_count, limit, saturated, explain, trace_id = payload
        entry = self.catalog.entry(name)
        compiled = CompiledQuery(
            None,
            [
                CompiledPattern(s, p, o, tuple(map(TripleKind, tables)))
                for s, p, o, tables in patterns
            ],
            tuple(head_slots),
            variable_count,
        )
        query_trace = QueryTrace(trace_id) if trace_id else None
        trace = ExecutionTrace() if explain else None
        evaluator = entry.evaluator_for(self.strategy, saturated=saturated)
        started = perf_counter()
        with maybe_span(query_trace, "evaluate", strategy=self.strategy) as evaluate_span:
            rows = evaluator.evaluate_ids(compiled, limit, trace)
            if evaluate_span is not None:
                evaluate_span.attributes["answers"] = len(rows)
        if query_trace is not None:
            query_trace.annotate(graph=name)
            query_trace.finish(perf_counter() - started)
        plan = None
        if trace is not None:
            # stages by pattern index: the coordinator names them
            stages = [
                (stage.pattern_index, stage.estimate, stage.cumulative_estimate,
                 stage.fetched, stage.produced, stage.probes, stage.access)
                for stage in trace.stages
            ]  # fmt: skip
            plan = (trace.strategy, trace.plan_cached, stages)
        return {
            "rows": rows,
            "plan": plan,
            "query_trace": query_trace.as_dict() if query_trace is not None else None,
            "saturation": entry.saturation_metrics() if saturated and explain else None,
        }

    def handle_ping(self, _payload: tuple) -> dict:
        return {
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
        for name in self.catalog.names():
            for key, nbytes in self.catalog.entry(name).store.column_memory().items():
                totals[key] += nbytes
        return totals

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
        # the catalog first (stores release their adopted views), then the
        # segment mappings; unlinking is not part of an orderly close
        self.catalog.close()
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
    worker = _Worker(connection, config)

    def _drain(_signum, _frame):
        worker.draining = True

    signal.signal(signal.SIGTERM, _drain)
    worker.run()


if __name__ == "__main__":
    import json

    worker_main(protocol.Connection(int(sys.argv[1])), json.loads(sys.argv[2]))
