"""The :class:`GraphCatalog`: named graphs with cached encoded summaries.

The serving layer keeps each registered graph where the paper's prototype
keeps it — dictionary-encoded in a :class:`~repro.store.base.TripleStore` —
and maintains, per graph:

* a *served store* for ``G`` and, once asked for, one for ``G∞`` — the
  store's cardinality profile, its planner and one
  :class:`~repro.service.evaluator.EncodedEvaluator` per join strategy,
  joined directly on the store's integer rows; created on first use, kept
  current in place by every ingest, alive exactly as long as the store;
* once a saturated query has asked for it, the maintained ``G∞`` — one
  :class:`~repro.schema.encoded_saturation.IncrementalSaturator` built by
  rule application (the one ``saturation_builds`` of a serving process),
  then fed every batch; derived state like the summary maintainer below,
  never checkpointed or shipped;
* once the weak or the strong summary has been asked for at a version no
  cache covers, a live :class:`~repro.core.incremental.CliqueSummarizer` —
  the one maintainer both are read off — primed by one scan (the one
  ``prime_scans`` of a serving process), then fed every batch, so a version
  bump costs the next ``strong`` reader one summary-sized snapshot,
  never a re-summarization; derived state, never checkpointed or shipped;
* lazily built, version-invalidated caches of the type-based and typed
  kinds (rebuilt by the encoded engine on demand) and of the summary
  graphs' saturations used by pruning.  A snapshot or rebuild whose graph
  equals the cached one (of the previous version, or restored from a
  checkpoint) hands that very graph object on, so the caches keyed on it
  stay warm.

Freshness is tracked by a per-entry version counter bumped on every
:meth:`CatalogEntry.add_triples` batch: a cached artifact tagged with an
older version is silently rebuilt on next access.  Statistics, planners
and plan caches are not versioned: they follow the rows (see
:mod:`repro.service.planner` for when a cached plan is re-costed).

Concurrency
-----------
Entries are safe to share across threads.  Each entry carries two locks:

* ``rwlock`` — a :class:`~repro.utils.concurrency.ReadWriteLock` taken on
  the *read* side by :meth:`repro.service.service.QueryService.answer` for
  the whole guard-plus-evaluation span and on the *write* side by
  :meth:`CatalogEntry.add_triples`, so queries never observe a half-applied
  ingest and ingest never races a running join;
* an internal re-entrant init lock serializing the lazy, double-checked
  construction of summaries and served stores — several concurrent readers
  may race to build the same artifact, exactly one wins.

Durability
----------
A catalog opened through :meth:`GraphCatalog.open` is backed by a
:class:`repro.server.persistence.PersistentCatalog` — a checkpoint plus a
row log.  Registrations and :meth:`GraphCatalog.checkpoint` write the
checkpoint (rows, dictionary, the cached summaries' pruning graphs); every
``add_triples`` batch is logged atomically, delta only.  A restarted process
installs the checkpointed state and feeds the logged rows through the very
routine an ingest runs (:meth:`CatalogEntry.replay`) — after a clean
shutdown it warm-starts with **zero** re-scan or re-summarization: the
guard and the next checkpoint read the restored graphs, and the
``build_counters`` of a warm entry stay at zero until something genuinely
new is requested — a ``Summary`` (its provenance is not checkpointed, so
the first :meth:`CatalogEntry.summary` call primes the maintainer, as the
first ingest does).  After an unclean shutdown the replayed rows leave the
restored graphs stale and the first guarded query primes the maintainer
(one ``prime_scans``).  After either, the first saturated query builds
``G∞`` (one ``saturation_builds``).
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro import telemetry
from repro.errors import DuplicateGraphError, UnknownGraphError
from repro.model.graph import RDFGraph
from repro.model.triple import Triple, TripleKind
from repro.model.dictionary import EncodedTriple
from repro.service.evaluator import EncodedEvaluator
from repro.service.planner import QueryPlanner
from repro.service.statistics import CardinalityStatistics
from repro.store.base import TripleStore
from repro.store.memory import MemoryStore
from repro.utils.concurrency import ReadWriteLock

if TYPE_CHECKING:  # a cluster worker builds no summary and loads none of these
    from repro.core.incremental import CliqueSummarizer
    from repro.core.summary import Summary
    from repro.schema.encoded_saturation import IncrementalSaturator

__all__ = ["CatalogEntry", "GraphCatalog"]


class _ServedStore:
    """A store plus what answering queries on it takes: its cardinality
    profile, its planner and one evaluator per join strategy.

    ``G`` and ``G∞`` are each served through one of these, created on first
    use; :meth:`CatalogEntry._ingest` folds every batch into ``statistics``
    in place, so the planner, its plan cache and the evaluators live
    exactly as long as the store.
    """

    __slots__ = ("store", "statistics", "planner", "evaluators")

    def __init__(self, store: TripleStore):
        self.store = store
        self.statistics = CardinalityStatistics.from_store(store)
        self.planner = QueryPlanner(self.statistics)
        self.evaluators: Dict[str, EncodedEvaluator] = {}

    def evaluator(self, strategy: str) -> EncodedEvaluator:
        evaluator = self.evaluators.get(strategy)
        if evaluator is None:
            # racing readers may each build one; setdefault keeps the first
            evaluator = self.evaluators.setdefault(
                strategy, EncodedEvaluator(self.store, strategy, self.planner)
            )
        return evaluator


class _SaturatedState:
    """The maintained ``G∞`` of one catalog entry: the
    :class:`IncrementalSaturator` (whose target is the saturated
    :class:`MemoryStore`) and ``metrics``, the maintenance costs the
    service and HTTP statistics endpoint expose."""

    __slots__ = ("saturator", "metrics")

    def __init__(self, saturator: IncrementalSaturator):
        self.saturator = saturator
        self.metrics: Dict[str, object] = {
            "build_seconds": 0.0,
            "deltas": 0,
            "last_delta_rows": 0,
            "last_delta_target_rows": 0,
            "last_delta_seconds": 0.0,
            "total_delta_seconds": 0.0,
        }

    @property
    def store(self) -> TripleStore:
        return self.saturator.target


class CatalogEntry:
    """One registered graph: its store, evaluators, statistics and caches."""

    def __init__(self, name: str, store: TripleStore):
        self.name = name
        self.store = store
        self.version = 0
        #: Set by :meth:`close` (drop / catalog shutdown); queries that
        #: acquire the read lock afterwards must treat the graph as gone.
        self.closed = False
        #: Per-entry reader/writer lock; see the module docstring for the
        #: acquisition discipline.
        self.rwlock = ReadWriteLock()
        self._init_lock = threading.RLock()
        #: Counters of the expensive (graph-proportional) builds this entry
        #: has performed, one rule each: ``prime_scans`` the maintainer's
        #: single priming (weak and strong are snapshots of it ever after),
        #: ``summary_builds`` the ``encoded_summarize`` runs of the other
        #: three kinds, ``saturation_builds`` the ``G∞`` seedings.  A
        #: warm-started entry restored from a persistent catalog keeps the
        #: first two at zero through its first queries, and the third until
        #: its first saturated one — the durability tests assert exactly that.
        #: Each bump also advances the registry's ``catalog.build.<key>``
        #: (:meth:`_count_build`).
        self.build_counters: Dict[str, int] = dict.fromkeys(
            ("prime_scans", "summary_builds", "saturation_builds"), 0
        )
        # shared registry instruments (one histogram for all entries)
        self._write_wait_seconds = telemetry.histogram("lock.write_wait.seconds")
        self._delta_seconds_histogram = telemetry.histogram("saturation.delta.seconds")
        #: Write-through hook ``(entry, inserted_rows) -> None`` installed by
        #: a persistence-backed catalog; invoked at the end of every
        #: successful :meth:`add_triples` batch, inside the write lock.
        self._on_update: Optional[Callable[["CatalogEntry", List], None]] = None
        #: Secondary update observers ``(entry, inserted_rows) -> None``
        #: run *after* the durable write-through, still inside the write
        #: lock — the cluster coordinator's delta broadcaster hangs here.
        #: A listener raising propagates to the ingesting caller (its
        #: bounded-queue backpressure is deliberate), so listeners must
        #: treat the batch as already durable.
        self._delta_listeners: List[Callable[["CatalogEntry", List], None]] = []
        #: ``True`` after a write-through failure: the in-memory entry holds
        #: rows the catalog file does not.  The next durable write must be a
        #: full rewrite — an incremental append would log rows and
        #: dictionary ids behind a gap.
        self._persist_dirty = False
        #: The summary maintainer, primed by the first weak or strong build
        #: no cached summary covers and fed every batch from then on;
        #: guarded by self._init_lock
        self._maintainer: Optional[CliqueSummarizer] = None
        #: Per-kind summary cache (kind → (version, pruning graph, summary)),
        #: the summary ``None`` for a graph restored from a checkpoint;
        #: guarded by self._init_lock — stale reads must re-check inside.
        self._summaries: Dict[str, Tuple[int, RDFGraph, Optional[Summary]]] = {}
        #: The served stores of ``G`` (key ``False``) and ``G∞`` (``True``),
        #: each created on first use (:meth:`_served_store`).
        self._served: Dict[bool, _ServedStore] = {}
        #: The maintained ``G∞`` — built on first saturated access and then
        #: kept fresh *in place* by every ingest; never version-invalidated.
        self._saturated: Optional[_SaturatedState] = None
        #: ``rdf:type`` and the RDFS constraint properties by id — what the
        #: ``G∞`` rules read instead of terms (see
        #: :func:`~repro.schema.encoded_saturation.vocabulary_ids`); filled
        #: by the coordinator on a cluster worker, whose store holds no term.
        self.vocabulary: Dict[str, int] = {}

    @classmethod
    def restore(
        cls,
        name: str,
        store: TripleStore,
        version: int,
        pruning_graphs: Optional[Dict[str, RDFGraph]] = None,
    ) -> "CatalogEntry":
        """Warm-start an entry from persisted state (no priming scan).

        The store arrives already loaded; the checkpointed pruning graphs
        are installed as-is at *version*, so the first guarded query costs
        exactly what a long-running process would have paid — no re-scan,
        no re-summarization (derived state is never persisted: the
        cardinality profile is read off the store's indexes, the summary
        maintainer primed by the first :meth:`summary` call or by the first
        guard the restored graphs do not cover, ``G∞`` built by the first
        saturated query).
        """
        entry = cls(name, store)
        entry.version = version
        for kind, graph in (pruning_graphs or {}).items():
            entry._summaries[kind] = (version, graph, None)
        return entry

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Encode and insert *triples*; maintain what is derived from them.

        Triples already present are skipped (on every backend — the store
        filters against its rows), so re-adding data neither duplicates
        SQLite rows nor invalidates caches.  Returns the number of rows
        actually inserted; see :meth:`_ingest` for what a batch maintains.
        """
        return self._ingest(self.store.insert_triples, triples, skip_existing=True)

    def add_encoded_rows(
        self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]
    ) -> int:
        """:meth:`add_triples` for already-encoded ``(kind, row)`` pairs (ids
        must come from this store's dictionary) — how a cluster worker
        applies a broadcast ingest delta: the coordinator already paid for
        encoding once and ships pure integers."""
        return self._ingest(self.store.insert_encoded_rows, rows, skip_existing=True)

    def replay(self, rows: List[Tuple[TripleKind, EncodedTriple]], version: int) -> None:
        """Apply the rows a persistent catalog logged after its checkpoint.

        The warm-start half of an ingest, run on a freshly restored entry
        before its write-through hook is installed: the rows (known fresh —
        they were deduplicated when first ingested) pass through the very
        routine :meth:`add_triples` runs, leaving the entry at the logged
        *version*.  Nothing is written through and nothing is rebuilt;
        summaries cached at the checkpoint go stale.
        """
        self._ingest(self.store.insert_encoded_rows, rows, skip_existing=False, version=version)

    def _ingest(self, insert, rows, skip_existing: bool, version: Optional[int] = None) -> int:
        """The one ingest routine: ``insert(rows, skip_existing=…)``, then
        everything derived from the rows it reports as inserted.

        The summary maintainer, once primed, takes the batch as a delta;
        both cardinality profiles fold it in place (exact —
        the store's indexes tell a new key from a known one), so planner
        estimates never lag an ingest and
        planners, plan caches and evaluators survive it; a live ``G∞`` is
        pushed through the delta rules (:meth:`_maintain_saturated`), never
        rebuilt.  Every other cached artifact (summary snapshots, pruning
        graphs) is invalidated by the version bump — to *version* when
        replaying — and rebuilt only when next requested.

        The whole batch runs under the entry's exclusive write lock —
        concurrent queries wait, then observe either none or all of it —
        and, on a persistence-backed catalog, is logged atomically before
        the lock is released; the delta listeners run after that.
        """
        # the acquisition is timed separately from the batch: it measures
        # queueing behind running queries, not ingest work
        wait_start = perf_counter()
        self.rwlock.acquire_write()
        self._write_wait_seconds.observe(perf_counter() - wait_start)
        try:
            if self.closed:
                # we raced a drop(): same report as the query-side race
                raise UnknownGraphError(f"graph {self.name!r} was dropped")
            with self._init_lock:
                fresh = insert(rows, skip_existing=skip_existing)
                if not fresh:
                    return 0
                maintainer = self._maintainer
                if maintainer is not None:
                    maintainer.ingest_rows(fresh)
                    # (published names: they count the one maintainer's batches)
                    telemetry.counter("summary.strong.deltas").inc()
                    telemetry.counter("summary.strong.rekeyed_rows").inc(maintainer.rekeyed_rows)
                self.version = self.version + 1 if version is None else version
                served = self._served.get(False)
                if served is not None:
                    served.statistics.ingest_rows(fresh)
                self._maintain_saturated(fresh)
            if self._on_update is not None:
                self._on_update(self, fresh)
            for listener in self._delta_listeners:
                listener(self, fresh)
            return len(fresh)
        finally:
            self.rwlock.release_write()

    def _maintain_saturated(self, rows: List[Tuple[TripleKind, EncodedTriple]]) -> None:
        """Fold an ingest batch into the maintained ``G∞`` (delta rules only).

        Runs under the write lock + init lock of :meth:`_ingest`.  The
        delta is applied semi-naively and what it derived is folded into
        the ``G∞`` served store's profile.  No-op while ``G∞`` has never
        been requested.
        """
        if self._saturated is None:
            return
        state = self._saturated
        delta_start = perf_counter()
        delta = state.saturator.ingest_rows(rows)
        served = self._served.get(True)
        if served is not None:
            served.statistics.ingest_rows(delta)
        seconds = perf_counter() - delta_start
        metrics = state.metrics
        metrics["deltas"] += 1
        metrics["last_delta_rows"] = len(rows)
        metrics["last_delta_target_rows"] = len(delta)
        metrics["last_delta_seconds"] = seconds
        metrics["total_delta_seconds"] += seconds
        self._delta_seconds_histogram.observe(seconds)
        telemetry.counter("saturation.deltas").inc()

    # ------------------------------------------------------------------
    # statistics, planning and evaluators
    # ------------------------------------------------------------------
    def _served_store(self, saturated: bool = False) -> _ServedStore:
        """The served store of ``G`` (or, *saturated*, of the maintained
        ``G∞``, seeding it if need be), created on first use: the profile
        is read off the store's indexes (integers only, no scan on the
        memory backend) and kept fresh in place from then on."""
        served = self._served.get(saturated)
        if served is None:
            with self._init_lock:
                served = self._served.get(saturated)
                if served is None:
                    store = self._ensure_saturated().store if saturated else self.store
                    served = self._served[saturated] = _ServedStore(store)
        return served

    def statistics_index(self) -> CardinalityStatistics:
        """The store's cardinality profile, always current."""
        return self._served_store().statistics

    def evaluator_for(self, strategy: str = "hash", saturated: bool = False) -> EncodedEvaluator:
        """The entry's evaluator for *strategy* over ``G`` — or, with
        ``saturated=True``, over the maintained ``G∞`` store.

        One per strategy and store, all drawing their plans from the
        store's one planner; they survive updates, so a held evaluator
        stays valid (and current) across :meth:`add_triples`.  Everything
        on the ``G∞`` side runs off the primary store's dictionary; the
        primary tables are never touched.
        """
        return self._served_store(saturated).evaluator(strategy)

    # ------------------------------------------------------------------
    # summaries and pruning graphs
    # ------------------------------------------------------------------
    def _count_build(self, key: str) -> None:
        """One more *key* build, in this entry and in the registry."""
        self.build_counters[key] += 1
        telemetry.counter(f"catalog.build.{key}").inc()

    def summary(self, kind: str = "weak") -> Summary:
        """The *kind* summary of the graph, served from cache when fresh.

        The weak and strong summaries are snapshots of the one live
        maintainer — cost proportional to the summary, not the graph, once
        it has paid its priming scan; the other kinds run the encoded
        engine over the store on first use after a change.  A graph
        restored from a checkpoint carries no provenance, so the first call
        after a warm start builds the summary (the guard never asks here:
        :meth:`pruning_graph` serves the restored graph).
        """
        from repro.core.builders import normalize_kind

        kind = normalize_kind(kind)
        # Optimistic fast path: a stale read is benign because the hit is
        # version-checked and the miss re-reads under the lock below.
        cached = self._summaries.get(kind)  # repro-lint: disable=guarded-by
        if cached is not None and cached[0] == self.version and cached[2] is not None:
            return cached[2]
        with self._init_lock:
            cached = self._summaries.get(kind)
            if cached is not None and cached[0] == self.version and cached[2] is not None:
                return cached[2]
            if kind in ("weak", "strong"):
                if self._maintainer is None:
                    from repro.core.incremental import CliqueSummarizer

                    self._count_build("prime_scans")
                    maintainer = CliqueSummarizer(self.store)
                    maintainer.prime()
                    self._maintainer = maintainer
                summary = self._maintainer.snapshot(self.name, kind)
            else:
                from repro.core.encoded import encoded_summarize

                self._count_build("summary_builds")
                summary = encoded_summarize(self.store, kind, source_name=self.name)
            if cached is not None and cached[1] == summary.graph:
                # same triples as the cached (stale or restored) graph: keep
                # the object, and with it the saturation and whatever else
                # is cached per graph
                summary.graph = cached[1]
                telemetry.counter("summary.graph.reused").inc()
            self._summaries[kind] = (self.version, summary.graph, summary)
            return summary

    def maintainer_metrics(self) -> Optional[Dict[str, int]]:
        """Sizes of the summary maintainer's state (``None`` until primed)."""
        with self._init_lock:
            return None if self._maintainer is None else self._maintainer.metrics()

    def cached_pruning_graphs(self) -> Dict[str, RDFGraph]:
        """The pruning graphs cached *at the current version* (no builds) —
        what a checkpoint stores."""
        with self._init_lock:
            return {
                kind: cached[1]
                for kind, cached in self._summaries.items()
                if cached[0] == self.version
            }

    def pruning_graph(self, kind: str = "weak", saturated: bool = False) -> RDFGraph:
        """The summary graph queries are checked against before evaluation.

        Served from cache when fresh — a graph restored from a checkpoint
        included — and otherwise taken from :meth:`summary`.  With
        ``saturated=True`` this is ``(H_G)∞`` (what Proposition 1
        quantifies over); the saturation is cached per graph object via
        :func:`saturate_cached`, and the graph itself is cached per
        version, so repeated queries between updates saturate nothing.
        """
        from repro.core.builders import normalize_kind
        from repro.schema.saturation import saturate_cached

        # lock-free: a stale read is benign — a hit is version-checked, and
        # a miss goes to summary(), which re-reads under the lock
        cached = self._summaries.get(normalize_kind(kind))  # repro-lint: disable=guarded-by
        fresh = cached is not None and cached[0] == self.version
        graph = cached[1] if fresh else self.summary(kind).graph
        return saturate_cached(graph) if saturated else graph

    # ------------------------------------------------------------------
    # the maintained G∞
    # ------------------------------------------------------------------
    def _ensure_saturated(self) -> _SaturatedState:
        """The live saturated state (init lock held): seeded once by
        :meth:`IncrementalSaturator.build` (rule application over the whole
        encoded store — counted in ``build_counters["saturation_builds"]``),
        then maintained **in place** by every ingest delta."""
        state = self._saturated
        if state is not None:
            return state
        from repro.schema.encoded_saturation import IncrementalSaturator

        self._count_build("saturation_builds")
        build_start = perf_counter()
        saturator = IncrementalSaturator(self.store, self.vocabulary)
        saturator.build()
        state = _SaturatedState(saturator)
        state.metrics["build_seconds"] = perf_counter() - build_start
        self._saturated = state
        return state

    def saturation_metrics(self) -> Optional[Dict[str, object]]:
        """Maintenance metrics of the ``G∞`` cache (``None`` until built).

        Exposed by the query service's explain output and by the HTTP
        statistics endpoint: what the saturated side cost to build, how
        many deltas it absorbed and what the last one took.
        """
        state = self._saturated
        if state is None:
            return None
        metrics = dict(state.metrics)
        metrics.update(
            {
                "builds": self.build_counters["saturation_builds"],
                "store_rows": len(state.store),
                "derived_rows": state.saturator.derived_count(),
            }
        )
        return metrics

    # ------------------------------------------------------------------
    def to_graph(self) -> RDFGraph:
        """Decode the store back into an :class:`RDFGraph` (fresh object)."""
        return self.store.to_graph(name=self.name)

    def close(self) -> None:
        """Release the entry's stores and mark the entry dead.

        Readers queued on the lock while a :meth:`GraphCatalog.drop` closes
        the entry check :attr:`closed` once they get in, so a racing query
        reports an unknown graph instead of a closed-store error.
        """
        self.closed = True
        if self._saturated is not None:
            self._saturated.store.close()
            self._saturated = None
        self.store.close()

    def __repr__(self):
        statistics = self.store.statistics()
        return (
            f"<CatalogEntry {self.name!r}: {statistics.total_rows} rows, "
            f"version {self.version}>"
        )


class GraphCatalog:
    """A registry of named graphs behind the query service.

    Parameters
    ----------
    store_factory:
        Backend constructor used when :meth:`register` is handed a graph
        rather than a pre-loaded store (``MemoryStore`` by default; pass
        ``SQLiteStore`` for the relational backend).

    Registration, lookup and drop are thread-safe; per-entry query/update
    concurrency is governed by each entry's ``rwlock`` (see
    :class:`CatalogEntry`).  A catalog created through :meth:`open` writes
    every registration and ingest batch through to a persistent SQLite
    file and warm-starts from it on the next :meth:`open`.
    """

    def __init__(self, store_factory: Callable[[], TripleStore] = MemoryStore):
        self._store_factory = store_factory
        self._entries: Dict[str, CatalogEntry] = {}
        self._lock = threading.RLock()
        #: Names whose registration is in flight (reserved, heavy build
        #: running outside the lock).
        self._registering: set = set()
        self._persistence = None  # repro.server.persistence.PersistentCatalog

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str,
        store_factory: Callable[[], TripleStore] = MemoryStore,
    ) -> "GraphCatalog":
        """Open (creating if absent) a persistent catalog at *path*.

        Every graph persisted in the file is warm-started: its checkpointed
        rows and dictionary are bulk-restored into a fresh *store_factory*
        backend, the pruning graphs are installed directly, and the rows
        logged since the checkpoint are replayed
        (:meth:`CatalogEntry.replay`); with an empty log nothing is
        re-scanned or re-summarized and ``entry.build_counters`` stay at
        zero.  Registrations checkpoint, ``add_triples`` batches are
        logged atomically as they happen, and
        :meth:`checkpoint` folds the log back into a checkpoint.

        A file of another schema is refused untouched with a
        :class:`~repro.errors.PersistenceError` naming the route to this
        one; columns in the other byte order are rewritten by the first
        durable write.  A graph that fails to load, restore or replay closes
        the file and every store restored before it, then raises.
        """
        from repro.server.persistence import PersistentCatalog

        catalog = cls(store_factory=store_factory)
        persistence = PersistentCatalog(path)
        catalog._persistence = persistence
        replay_rows = telemetry.counter("persistence.replay.rows")
        replay_seconds = telemetry.histogram("persistence.replay.seconds")
        snapshot = None
        try:
            for name in persistence.graph_names():
                snapshot = persistence.load_graph(name, store_factory)
                catalog._entries[name] = entry = CatalogEntry.restore(
                    name=snapshot.name,
                    store=snapshot.store,
                    version=snapshot.checkpoint_version,
                    pruning_graphs=snapshot.pruning_graphs,
                )
                entry._persist_dirty = snapshot.rewrite
                if snapshot.tail_rows:
                    replay_start = perf_counter()
                    entry.replay(snapshot.tail_rows, snapshot.version)
                    replay_rows.inc(len(snapshot.tail_rows))
                    replay_seconds.observe(perf_counter() - replay_start)
                entry._on_update = catalog._persist_update
        except BaseException:
            if snapshot is not None:
                snapshot.store.close()  # a no-op once an entry adopted it
            catalog.close()
            raise
        return catalog

    @property
    def persistent(self) -> bool:
        """``True`` when the catalog writes through to a file."""
        return self._persistence is not None

    def log_tail_rows(self, name: str) -> Optional[int]:
        """Rows of *name* logged since its last checkpoint — what a reopen
        would replay (``None`` in memory, or before the graph's first write)."""
        persistence = self._persistence  # one read: close() may detach it
        return persistence.tail_rows(name) if persistence is not None else None

    def checkpoint(self) -> None:
        """Checkpoint every entry's current state (no-op in memory).

        Write-through already keeps every acknowledged row and dictionary
        id durable in the log; a checkpoint folds the log into the packed
        column snapshot and captures the pruning graphs cached since, so the
        next warm start replays nothing and re-summarizes nothing.  An
        entry whose checkpointed rows are already current only has its
        artifacts replaced.  A checkpoint reads pruning graphs, never a
        ``Summary``: one of a session that only answered queries primes
        nothing.
        """
        persistence = self._persistence  # one read: close() may detach it
        if persistence is None:
            return
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            with entry.rwlock.read_locked():
                if entry.closed:
                    continue  # raced a drop(); must not resurrect it durably
                # make sure the guard's strong pruning graph (restored, or a
                # snapshot of the live maintainer; one priming scan if
                # neither is current) rides along, so the warm start does
                # not rebuild it
                entry.pruning_graph("strong")
                if entry._persist_dirty or not persistence.refresh_artifacts(entry):
                    persistence.save_graph(entry)
                    entry._persist_dirty = False  # full rewrite heals any divergence

    def _persist_update(self, entry: CatalogEntry, rows: List) -> None:
        """Write-through hook run by :meth:`CatalogEntry.add_triples`.

        A failed write-through (disk full, transient SQLite error) leaves
        the in-memory entry ahead of the file; the error propagates to the
        ingesting caller, and the entry is marked dirty so the next durable
        write is a **full rewrite** from the store — a later append would
        log rows and dictionary ids behind a gap, and every warm start
        after it would replay onto a state missing the lost batch.
        """
        persistence = self._persistence  # one read: close() may detach it
        if persistence is None:
            return
        try:
            if entry._persist_dirty:
                entry.pruning_graph("strong")
                persistence.save_graph(entry)
            else:
                persistence.append_update(entry, rows)
        except Exception:
            entry._persist_dirty = True
            raise
        entry._persist_dirty = False

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        graph: Optional[RDFGraph] = None,
        store: Optional[TripleStore] = None,
    ) -> CatalogEntry:
        """Register a graph under *name* and return its entry.

        Exactly one of *graph* (loaded into a fresh backend) or *store* (an
        already-loaded :class:`TripleStore`, adopted as-is) must be given.
        Registering a name already in use raises
        :class:`~repro.errors.DuplicateGraphError` (a
        :class:`~repro.errors.CatalogError`) and leaves the existing entry
        untouched — nothing is loaded, closed or replaced.  Nothing is
        scanned here: the summary maintainer is primed on first need (at
        once on a persistent catalog, which checkpoints the strong summary).
        """
        if (graph is None) == (store is None):
            raise ValueError("register() needs exactly one of graph= or store=")
        # reserve the name under the lock, but run the heavy part — loading,
        # summarizing, profiling, the durable write — outside it: a
        # multi-minute registration must not stall queries (entry lookups)
        # on every other graph
        with self._lock:
            if name in self._entries or name in self._registering:
                raise DuplicateGraphError(
                    f"graph {name!r} is already registered; drop() it first "
                    f"to replace it (the existing entry is untouched)"
                )
            self._registering.add(name)
        created_store = store is None
        entry: Optional[CatalogEntry] = None
        try:
            if store is None:
                store = self._store_factory()
            entry = CatalogEntry(name, store)
            if graph is not None:
                store.load_graph(graph)
            if self._persistence is not None:
                entry._on_update = self._persist_update
                # build what a warm start must not: the guard's strong
                # pruning graph is checkpointed alongside the rows
                entry.pruning_graph("strong")
                self._persistence.save_graph(entry)
            with self._lock:
                self._entries[name] = entry
            return entry
        except BaseException:
            # a failed registration must not leak the backend we created
            # (an adopted store= stays open — the caller owns it)
            if created_store and store is not None:
                if entry is not None:
                    entry.close()
                else:
                    store.close()
            raise
        finally:
            with self._lock:
                self._registering.discard(name)

    def entry(self, name: str) -> CatalogEntry:
        """The entry registered under *name*."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                known = ", ".join(sorted(self._entries)) or "none"
                raise UnknownGraphError(f"unknown graph {name!r} (registered: {known})")
            return entry

    def drop(self, name: str) -> None:
        """Unregister *name*, close its stores and forget it durably.

        The entry is closed under its exclusive lock **before** the durable
        delete: an in-flight ingest finishes (and checkpoints) first, a
        queued one sees ``closed`` and reports the graph gone — so a
        write-through can never resurrect the graph in the catalog file
        after it was deleted.
        """
        entry = self.entry(name)
        with entry.rwlock.write_locked():
            entry.close()
        with self._lock:
            if self._entries.get(name) is entry:
                del self._entries[name]
            if self._persistence is not None:
                self._persistence.delete_graph(name)

    def names(self) -> List[str]:
        """Registered graph names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # conveniences forwarding to the entry
    # ------------------------------------------------------------------
    def add_triples(self, name: str, triples: Iterable[Triple]) -> int:
        """Add triples to the named graph (see :meth:`CatalogEntry.add_triples`)."""
        return self.entry(name).add_triples(triples)

    def summary(self, name: str, kind: str = "weak") -> Summary:
        """The cached *kind* summary of the named graph."""
        return self.entry(name).summary(kind)

    def close(self) -> None:
        """Close every registered entry (and the persistence file).

        Each entry closes under its exclusive lock — the same discipline as
        :meth:`drop` — so in-flight queries finish cleanly and queued ones
        see ``closed`` instead of a half-closed store.
        """
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        # quiesce the entries *before* detaching persistence: an in-flight
        # ingest holds its entry's write lock and must still find the
        # persistence attached when its write-through hook runs — detaching
        # first would make that hook a silent no-op and lose the batch
        for entry in entries:
            with entry.rwlock.write_locked():
                entry.close()
        with self._lock:
            persistence, self._persistence = self._persistence, None
        if persistence is not None:
            persistence.close()

    def __enter__(self) -> "GraphCatalog":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False
