"""The query executor: a bound on how much heavy work runs at once.

One :class:`QueryExecutor` fronts a :class:`~repro.service.service.QueryService`.
Work runs **on the thread that asks for it** — the HTTP handler thread of
the request — inside one of ``max_workers`` slots of a semaphore: a thousand
open connections do not become a thousand concurrent joins, and no request
pays a hand-off to another thread and back.  Concurrency correctness does
not live here; it lives in the per-entry reader/writer locks
(:class:`~repro.service.catalog.CatalogEntry.rwlock`) and in the per-thread
read connections of the SQLite store.  On CPython the GIL serializes the
pure-Python join work, and releasing it in SQLite's C evaluation has not
bought throughput either: ``benchmarks/bench_server.py --scale 800
--count 200 --threads 2`` (:meth:`QueryExecutor.map_answers`, both laps
warm) on a 2-CPU VM answered at 0.77× the serial rate on ``sqlite``/``sql``,
0.67× on ``memory``/``hash`` and 0.32× on ``sqlite``/``hash`` (medians).
The slots bound work; they do not multiply it.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Set, Union

from repro import telemetry
from repro.queries.bgp import BGPQuery
from repro.service.service import QueryAnswer, QueryService
from repro.telemetry import QueryTrace
from repro.utils.concurrency import map_on_threads

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """At most *max_workers* queries, ingests and builds at once, each on
    its caller's thread, answered through one (thread-safe) *service*."""

    def __init__(self, service: QueryService, max_workers: int = 8):
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.service = service
        self.max_workers = max_workers
        self._slots = threading.BoundedSemaphore(max_workers)
        self._closed = False
        #: Idents of the threads waiting for a slot (adding and discarding
        #: one's own is a single C call each: no lock), sampled by the
        #: queue-depth gauge at scrape time — every executor of the process
        #: sums into that gauge and removes its sampler on shutdown.
        self._waiting: Set[int] = set()
        self._depth_gauge = telemetry.gauge("executor.queue.depth")
        self._depth_sampler = lambda: len(self._waiting)
        self._depth_gauge.add_callback(self._depth_sampler)

    def run(self, function, *args, **kwargs):
        """Call *function* on this thread once a slot is free.  The HTTP front
        end routes every heavy operation through this — queries, ingest,
        registration, summary builds, statistics — not only the joins."""
        if not self._slots.acquire(blocking=False):
            self._waiting.add(threading.get_ident())
            try:
                self._slots.acquire()
            finally:
                self._waiting.discard(threading.get_ident())
        try:
            if self._closed:
                raise RuntimeError("the executor is shut down")
            return function(*args, **kwargs)
        finally:
            self._slots.release()

    def answer(
        self,
        graph_name: str,
        query: BGPQuery,
        limit: Optional[int] = None,
        saturated: bool = False,
        explain: bool = False,
        trace: Union[bool, QueryTrace] = False,
    ) -> QueryAnswer:
        """Answer one query (the entry's shared lock is taken inside
        :meth:`QueryService.answer`)."""
        answer = self.service.answer  # same parameters, same order
        return self.run(answer, graph_name, query, limit, saturated, explain, trace)

    def map_answers(
        self,
        graph_name: str,
        queries: Sequence[BGPQuery],
        limit: Optional[int] = None,
        saturated: bool = False,
    ) -> List[QueryAnswer]:
        """Answer *queries* on up to *max_workers* threads, results in input
        order; the first failure in that order is raised."""
        return map_on_threads(
            lambda query: self.answer(graph_name, query, limit, saturated),
            queries,
            self.max_workers,
            "repro-query",
        )

    def shutdown(self) -> None:
        """Refuse new work and wait for the calls in flight."""
        self._depth_gauge.remove_callback(self._depth_sampler)
        self._closed = True
        for _ in range(self.max_workers):
            self._slots.acquire()
        for _ in range(self.max_workers):
            self._slots.release()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.shutdown()
        return False
