"""The durable serving layer: persistent catalogs, a concurrent query
executor, and the HTTP front end.

``repro.server`` turns the query service of :mod:`repro.service` into a
restartable, concurrent daemon:

* :mod:`repro.server.persistence` — the SQLite-backed catalog file behind
  :meth:`repro.service.catalog.GraphCatalog.open`: graphs, dictionaries,
  encoded triples, the ``G∞`` state and cached summaries survive restarts,
  so a reopened catalog answers its first guarded query with zero
  re-summarization and zero re-scan;
* :mod:`repro.server.executor` — the
  :class:`~repro.server.executor.QueryExecutor` bounding how many queries,
  ingests and builds run at once, each on its caller's thread, under each
  entry's shared lock (ingest takes the exclusive side);
* :mod:`repro.server.http` — a JSON API (``repro serve``) exposing query,
  ingest, statistics and summary endpoints over the server's own HTTP/1.1
  loop on :mod:`socketserver`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "GraphSnapshot",
    "PersistentCatalog",
    "QueryExecutor",
    "ServerApp",
    "make_server",
    "start_background",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "executor": ("QueryExecutor",),
    "http": ("ServerApp", "make_server", "start_background"),
    "persistence": ("GraphSnapshot", "PersistentCatalog"),
})
