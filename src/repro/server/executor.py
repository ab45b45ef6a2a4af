"""The concurrent query executor: a bounded thread pool over the service.

One :class:`QueryExecutor` fronts a :class:`~repro.service.service.QueryService`
with a :class:`~concurrent.futures.ThreadPoolExecutor`.  Concurrency
correctness does not live here — it lives in the per-entry
reader/writer locks (:class:`~repro.service.catalog.CatalogEntry.rwlock`,
taken on the read side by ``QueryService.answer`` and on the write side by
``CatalogEntry.add_triples``) and in the per-thread read connections of the
SQLite store.  What the executor adds is the *shape* of a server:

* a bounded worker pool, so a thousand HTTP connections do not become a
  thousand concurrent joins (the HTTP front end parks its handler threads
  on futures instead);
* named worker threads (``repro-query-N``) for debuggability;
* fan-out helpers (:meth:`map_answers`) that preserve input order while
  overlapping execution — the serial/concurrent QPS comparison of
  ``benchmarks/bench_server.py`` runs through exactly this path.

On CPython the GIL serializes the pure-Python join work; the parallel wins
come from the blocks that release it — above all SQLite's C evaluation on
the file-backed backend, which is why the throughput benchmark serves from
``SQLiteStore`` files rather than in-memory dicts.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import List, Optional, Sequence, Union

from repro import telemetry
from repro.queries.bgp import BGPQuery
from repro.service.service import QueryAnswer, QueryService
from repro.telemetry import QueryTrace

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """A bounded thread pool answering queries through one service.

    Parameters
    ----------
    service:
        The (thread-safe) query service to answer through.
    max_workers:
        Upper bound on concurrently executing queries/ingests.
    """

    def __init__(self, service: QueryService, max_workers: int = 8):
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.service = service
        self.catalog = service.catalog
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-query"
        )
        # the queue-depth gauge samples the pool's backlog at scrape time;
        # several executors (several apps in one test process) sum into the
        # same gauge, each removing its sampler on shutdown
        self._depth_gauge = telemetry.gauge("executor.queue.depth")
        self._depth_sampler = lambda: self._pool._work_queue.qsize()
        self._depth_gauge.add_callback(self._depth_sampler)

    # ------------------------------------------------------------------
    # queries (the entry's shared lock is taken inside QueryService.answer)
    # ------------------------------------------------------------------
    def submit(
        self,
        graph_name: str,
        query: BGPQuery,
        limit: Optional[int] = None,
        saturated: bool = False,
        explain: bool = False,
        trace: Union[bool, QueryTrace] = False,
    ) -> "Future[QueryAnswer]":
        """Schedule one query; returns its future."""
        return self._pool.submit(
            self.service.answer,
            graph_name,
            query,
            limit=limit,
            saturated=saturated,
            explain=explain,
            trace=trace,
        )

    def answer(
        self,
        graph_name: str,
        query: BGPQuery,
        limit: Optional[int] = None,
        saturated: bool = False,
        explain: bool = False,
        trace: Union[bool, QueryTrace] = False,
    ) -> QueryAnswer:
        """Answer one query on a pool worker and wait for it.

        This is what request handlers call: the pool bounds how many joins
        run at once, whatever the number of open connections.
        """
        return self.submit(
            graph_name, query, limit=limit, saturated=saturated, explain=explain, trace=trace
        ).result()

    def map_answers(
        self,
        graph_name: str,
        queries: Sequence[BGPQuery],
        limit: Optional[int] = None,
        saturated: bool = False,
    ) -> List[QueryAnswer]:
        """Answer *queries* concurrently, results in input order."""
        futures = [
            self.submit(graph_name, query, limit=limit, saturated=saturated)
            for query in queries
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def run(self, function, *args, **kwargs):
        """Run an arbitrary callable on the pool and wait for it.

        The HTTP front end routes its other heavy operations (graph
        registration, summary builds, statistics scans) through this, so
        the ``max_workers`` bound covers *all* expensive work — not only
        queries and ingest.
        """
        return self._pool.submit(function, *args, **kwargs).result()

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for in-flight tasks."""
        self._depth_gauge.remove_callback(self._depth_sampler)
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.shutdown()
        return False

    def __repr__(self):
        return f"<QueryExecutor workers={self.max_workers} service={self.service.kind!r}>"
