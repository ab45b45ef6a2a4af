"""The persistent catalog file behind :meth:`GraphCatalog.open`.

The paper's premise is a summary built once and exploited by a long-lived
service; this module makes the service's state *survive the process*.  A
:class:`PersistentCatalog` is one SQLite file holding, per registered
graph:

* its **metadata** (name, entry version) in ``graphs``;
* its **dictionary** in ``dictionary_terms`` — terms stored structurally
  (kind + lexical fields), one row per dense id, and re-minted through the
  term constructors on load.  Term objects are never pickled: their
  memoized hashes are salted per process, and a hash smuggled across
  processes would corrupt every dict they key;
* its **encoded triples** — columnar stores checkpoint as ``graph_columns``
  (one packed ``array('q')`` blob per column per table, written and read
  back with zero per-row SQL; ``graph_triples`` then holds only the rows
  appended after the snapshot), while row stores keep using
  ``graph_triples`` (table kind + the three integer columns, insertion
  order preserved);
* its **artifacts** in ``artifacts`` — version-tagged binary payloads for
  the weak-summary maintainer maps, the cardinality statistics and every
  summary cached at checkpoint time.  Maintainer and statistics payloads
  are pickles of pure-integer structures.  A summary payload holds its
  node -> representative map as two packed ``array('i')`` over the graph's
  own dictionary ids (8 bytes per represented node) and only the summary
  graph and the minted summary nodes as term columns; it is loaded back
  without constructing one input-node term.  Summary artifacts are
  *expendable*: one that does not decode is skipped and rebuilt on first
  use, never an error.

Durability discipline
---------------------
``save_graph`` rewrites one graph completely; ``refresh_artifacts``
replaces only the artifacts of a graph whose rows are already durable;
``append_update`` is the write-through hook of
:meth:`CatalogEntry.add_triples` and appends only the freshly inserted rows
and dictionary ids, then refreshes the artifacts.  In every case the whole
graph update is **one SQLite transaction**: a reader (or a crash) sees the
previous checkpoint or the new one, never a torn mix.  The schema carries a
version (``schema_version`` in ``catalog_meta``); opening a file written by a
different schema raises :class:`~repro.errors.PersistenceError` instead of
misreading it.

The artifact payloads use :mod:`pickle` (stdlib, compact, fast) over
structures that contain no code and no Term objects.  Treat the catalog
file like a database file: open catalogs you wrote — unpickling an
untrusted file can execute arbitrary code.
"""

from __future__ import annotations

import pickle
import sqlite3
import sys
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro import telemetry
from repro.core.summary import Summary
from repro.errors import PersistenceError
from repro.model.dictionary import Dictionary, EncodedTriple
from repro.model.graph import GraphStatistics, RDFGraph
from repro.model.terms import BlankNode, Literal, Term, URI
from repro.model.triple import Triple, TripleKind
from repro.service.statistics import CardinalityStatistics
from repro.store.base import TripleStore

__all__ = ["GraphSnapshot", "PersistentCatalog", "SCHEMA_VERSION"]

#: Bump on any incompatible change to the tables or artifact payloads.
#: Version 2 added the ``graph_columns`` packed-blob table; version-1 files
#: (pure row checkpoints) are still readable, so opening upgrades them in
#: place instead of refusing them.
SCHEMA_VERSION = 2

#: The oldest schema this build still reads (older files are refused).
MIN_SUPPORTED_SCHEMA_VERSION = 1

_PICKLE_PROTOCOL = 4

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS catalog_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS graphs (
    name    TEXT PRIMARY KEY,
    version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS dictionary_terms (
    graph    TEXT NOT NULL,
    id       INTEGER NOT NULL,
    kind     TEXT NOT NULL,             -- 'u' (URI) | 'b' (blank) | 'l' (literal)
    value    TEXT NOT NULL,             -- uri / label / lexical form
    datatype TEXT,                      -- literals only
    language TEXT,                      -- literals only
    PRIMARY KEY (graph, id)
);
CREATE TABLE IF NOT EXISTS graph_triples (
    graph TEXT NOT NULL,
    kind  TEXT NOT NULL,                -- TripleKind.value: data | type | schema
    s INTEGER NOT NULL,
    p INTEGER NOT NULL,
    o INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_graph_triples_graph ON graph_triples(graph);
CREATE TABLE IF NOT EXISTS graph_columns (
    graph     TEXT NOT NULL,            -- packed column snapshot (one blob per
    kind      TEXT NOT NULL,            --   column); graph_triples then holds
    rows      INTEGER NOT NULL,         --   only the post-snapshot tail rows
    byteorder TEXT NOT NULL,            -- 'little' | 'big' (the writer's native)
    s BLOB NOT NULL,
    p BLOB NOT NULL,
    o BLOB NOT NULL,
    PRIMARY KEY (graph, kind)
);
CREATE TABLE IF NOT EXISTS artifacts (
    graph   TEXT NOT NULL,
    name    TEXT NOT NULL,              -- maintainer | statistics | summary:<kind>
                                        --   | saturation | saturation_statistics
    version INTEGER NOT NULL,
    payload BLOB NOT NULL,
    PRIMARY KEY (graph, name)
);
CREATE TABLE IF NOT EXISTS saturation_rows (
    graph TEXT NOT NULL,                -- the G∞ derived-row log, in derivation order
    kind  TEXT NOT NULL,
    s INTEGER NOT NULL,
    p INTEGER NOT NULL,
    o INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_saturation_rows_graph ON saturation_rows(graph);
"""

#: Per-graph tables cleared wholesale on rewrite / delete.
_GRAPH_TABLES = (
    "dictionary_terms",
    "graph_triples",
    "graph_columns",
    "artifacts",
    "saturation_rows",
)

_KIND_BY_VALUE = {kind.value: kind for kind in TripleKind}


def _unpack_column(blob: bytes, byteorder: str) -> "array":
    """One persisted column blob back as a native-order ``array('q')``."""
    column = array("q")
    column.frombytes(blob)
    if byteorder != sys.byteorder:
        column.byteswap()
    return column


# ----------------------------------------------------------------------
# term / summary codecs (structural — no Term object ever serialized)
# ----------------------------------------------------------------------
def _term_columns(term: Term) -> Tuple[str, str, Optional[str], Optional[str]]:
    """``(kind, value, datatype, language)`` columns for one term."""
    if isinstance(term, URI):
        return ("u", term.value, None, None)
    if isinstance(term, BlankNode):
        return ("b", term.label, None, None)
    if isinstance(term, Literal):
        datatype = term.datatype.value if term.datatype is not None else None
        return ("l", term.lexical, datatype, term.language)
    raise PersistenceError(f"not a persistable RDF term: {term!r}")


def _term_from_columns(
    kind: str, value: str, datatype: Optional[str], language: Optional[str]
) -> Term:
    if kind == "u":
        return URI(value)
    if kind == "b":
        return BlankNode(value)
    if kind == "l":
        return Literal(value, datatype=URI(datatype) if datatype else None, language=language)
    raise PersistenceError(f"unknown persisted term kind {kind!r}")


def _pack_summary(summary: Summary, dictionary: Dictionary) -> Dict[str, object]:
    """A summary as plain tuples, strings and two packed int arrays.

    The node -> representative map is stored over *dictionary*'s ids: input
    node ``node_ids[i]`` is represented by ``summary_nodes[block_indexes[i]]``
    (8 bytes per represented node; no input node's text is repeated here).
    Only the summary graph and the minted summary nodes — dozens for
    weak/strong — travel as term columns.
    """
    node_ids, block_indexes, summary_nodes = summary.encoded_representatives(dictionary)
    return {
        "kind": summary.kind,
        "source_name": summary.source_name,
        "graph_name": summary.graph.name,
        "triples": [
            (_term_columns(t.subject), _term_columns(t.predicate), _term_columns(t.object))
            for t in summary.graph
        ],
        "node_ids": node_ids,
        "block_indexes": block_indexes,
        "summary_nodes": [_term_columns(node) for node in summary_nodes],
        "source_statistics": (
            summary.source_statistics.as_dict()
            if summary.source_statistics is not None
            else None
        ),
    }


def _unpack_summary(payload: Dict[str, object], dictionary: Dictionary) -> Summary:
    """Rebuild a summary over *dictionary* without decoding one input node.

    Raises (``KeyError`` / ``TypeError`` / ``ValueError``) on any payload
    that is not a well-formed :func:`_pack_summary` result — the caller
    treats summary artifacts as expendable.
    """
    graph = RDFGraph(name=payload.get("graph_name", ""))
    for subject, predicate, obj in payload["triples"]:
        graph.add(
            Triple(
                _term_from_columns(*subject),
                _term_from_columns(*predicate),
                _term_from_columns(*obj),
            )
        )
    node_ids, block_indexes = payload["node_ids"], payload["block_indexes"]
    summary_nodes = [_term_from_columns(*columns) for columns in payload["summary_nodes"]]
    for packed in (node_ids, block_indexes):
        if not isinstance(packed, array) or packed.typecode != "i":
            raise TypeError(f"representative map is not a packed int array: {type(packed)}")
    if node_ids and not (
        0 <= min(node_ids)
        and max(node_ids) < len(dictionary)
        and 0 <= min(block_indexes)
        and max(block_indexes) < len(summary_nodes)
    ):
        raise ValueError("representative map points outside the dictionary or node table")
    source_statistics = payload.get("source_statistics")
    return Summary.from_ids(
        payload["kind"],
        graph,
        node_ids,
        block_indexes,
        summary_nodes,
        dictionary.decode_table,
        source_statistics=(
            GraphStatistics(**source_statistics) if source_statistics is not None else None
        ),
        source_name=payload.get("source_name", ""),
    )


def _derived_count(saturation_state: Optional[Dict[str, object]]) -> int:
    """Length of the ``G∞`` derived-row log in a saturator state (0: none)."""
    return len(saturation_state["_derived"]) if saturation_state is not None else 0


class GraphSnapshot(NamedTuple):
    """Everything needed to warm-start one catalog entry."""

    name: str
    version: int
    store: TripleStore
    maintainer_state: Dict[str, object]
    statistics: Optional[CardinalityStatistics]
    summaries: Dict[str, Summary]
    #: The incremental saturator's state (schema maps + derived-row log),
    #: when the graph's ``G∞`` cache was checkpointed — lets the restarted
    #: entry rehydrate the saturated store without applying a single rule.
    saturation_state: Optional[Dict[str, object]] = None
    saturation_statistics: Optional[CardinalityStatistics] = None


class PersistentCatalog:
    """One SQLite file durably backing a :class:`GraphCatalog`.

    All methods are thread-safe (a single connection serialized by an
    internal lock — persistence writes are not the serving hot path), and
    every graph-level mutation is one transaction.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._lock = threading.RLock()
        self._checkpoints = telemetry.counter("persistence.checkpoints")
        self._appends = telemetry.counter("persistence.appends")
        self._write_seconds = telemetry.histogram("persistence.write.seconds")
        self._artifacts_skipped = telemetry.counter("persistence.artifacts.skipped")
        #: ``graph -> rows currently persisted in saturation_rows``, so the
        #: per-ingest append path never re-counts the (potentially
        #: ``O(|G∞|)``-sized) durable derived log.  Maintained under the
        #: lock, populated lazily with one COUNT per graph, and dropped on
        #: any failed write (the next append re-counts).
        self._saturation_counts: Dict[str, int] = {}
        #: ``graph -> rows appended to graph_triples since this process last
        #: rewrote the graph in full`` (absent: unknown — a graph this
        #: process only opened).  Zero is what lets :meth:`refresh_artifacts`
        #: skip rewriting rows that are already durable.  Maintained under
        #: the lock, dropped on any failed write.
        self._tail_rows: Dict[str, int] = {}
        try:
            self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
                self.path, check_same_thread=False
            )
        except sqlite3.Error as error:
            raise PersistenceError(f"cannot open catalog file {self.path!r}: {error}")
        connection = self._connection
        try:
            connection.execute("PRAGMA busy_timeout = 10000")
            # refuse to adopt a foreign SQLite database: silently creating
            # catalog tables inside e.g. a per-graph store file would both
            # mutate that file and mask the misconfiguration as an empty
            # catalog
            existing_tables = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            if existing_tables and "catalog_meta" not in existing_tables:
                raise PersistenceError(
                    f"{self.path!r} is an SQLite database but not a catalog file "
                    f"(no catalog_meta table; found: {', '.join(sorted(existing_tables))})"
                )
            # check the version BEFORE applying any DDL: a file written by
            # a different schema must be refused untouched, not first
            # mutated with this build's tables and then rejected
            stored = None
            if "catalog_meta" in existing_tables:
                stored = connection.execute(
                    "SELECT value FROM catalog_meta WHERE key = 'schema_version'"
                ).fetchone()
                if stored is not None and not (
                    MIN_SUPPORTED_SCHEMA_VERSION <= int(stored[0]) <= SCHEMA_VERSION
                ):
                    raise PersistenceError(
                        f"catalog file {self.path!r} has schema version {stored[0]}, "
                        f"this build reads versions "
                        f"{MIN_SUPPORTED_SCHEMA_VERSION}..{SCHEMA_VERSION}"
                    )
            connection.executescript(_SCHEMA_SQL)
            if stored is None:
                connection.execute(
                    "INSERT INTO catalog_meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif int(stored[0]) != SCHEMA_VERSION:
                # the DDL above is purely additive, so an old readable file
                # is upgraded in place (its row checkpoints stay valid)
                connection.execute(
                    "UPDATE catalog_meta SET value = ? WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION),),
                )
            connection.commit()
        except PersistenceError:
            connection.close()
            self._connection = None
            raise
        except sqlite3.Error as error:
            connection.close()
            self._connection = None
            raise PersistenceError(f"{self.path!r} is not a catalog file: {error}")

    # ------------------------------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        if self._connection is None:
            raise PersistenceError("the persistent catalog has been closed")
        return self._connection

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "PersistentCatalog":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def graph_names(self) -> List[str]:
        with self._lock:
            rows = self._conn().execute("SELECT name FROM graphs ORDER BY name").fetchall()
        return [row[0] for row in rows]

    def _artifact_rows(
        self,
        entry,
        saturation_state: Optional[Dict[str, object]],
        include_saturation_statistics: bool = True,
    ) -> Iterator[Tuple[str, int, bytes]]:
        """The artifact payloads of *entry* at its current version.

        *saturation_state* is the caller's one-per-transaction snapshot of
        ``entry.saturation_state()`` — re-reading it here could observe a
        ``G∞`` build that completed mid-transaction and persist an
        artifact whose ``derived_count`` disagrees with the
        ``saturation_rows`` the caller wrote.

        The saturated store's cardinality profile (distinct-id sets sized
        like ``G∞``) only rides along when *include_saturation_statistics*
        — full checkpoints; the per-ingest append path skips it to stay
        delta-sized, at the cost of one profile scan on the first
        saturated evaluation after a write-through-only restart.
        """
        yield (
            "maintainer",
            entry.version,
            pickle.dumps(entry.maintainer_state(), protocol=_PICKLE_PROTOCOL),
        )
        statistics = entry.cached_statistics()
        if statistics is not None:
            yield (
                "statistics",
                entry.version,
                pickle.dumps(statistics, protocol=_PICKLE_PROTOCOL),
            )
        if saturation_state is not None:
            # the derived-row log lives in its own appendable table; the
            # artifact carries the (small) schema maps plus the log length,
            # which load_graph uses as a torn-state check
            payload = {key: value for key, value in saturation_state.items() if key != "_derived"}
            payload["derived_count"] = len(saturation_state["_derived"])
            yield (
                "saturation",
                entry.version,
                pickle.dumps(payload, protocol=_PICKLE_PROTOCOL),
            )
            saturation_statistics = (
                entry.saturation_cached_statistics() if include_saturation_statistics else None
            )
            if saturation_statistics is not None:
                yield (
                    "saturation_statistics",
                    entry.version,
                    pickle.dumps(saturation_statistics, protocol=_PICKLE_PROTOCOL),
                )
        for kind, summary in entry.cached_summaries().items():
            yield (
                f"summary:{kind}",
                entry.version,
                pickle.dumps(
                    _pack_summary(summary, entry.store.dictionary), protocol=_PICKLE_PROTOCOL
                ),
            )

    def _write_dictionary_rows(
        self, connection: sqlite3.Connection, name: str, dictionary: Dictionary, start_id: int
    ) -> None:
        rows = []
        for term, identifier in dictionary.items():
            if identifier < start_id:
                continue
            kind, value, datatype, language = _term_columns(term)
            rows.append((name, identifier, kind, value, datatype, language))
        if rows:
            connection.executemany(
                "INSERT INTO dictionary_terms (graph, id, kind, value, datatype, language) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                rows,
            )

    def _replace_artifacts(
        self,
        connection: sqlite3.Connection,
        entry,
        saturation_state: Optional[Dict[str, object]],
        include_saturation_statistics: bool = True,
    ) -> None:
        connection.execute("DELETE FROM artifacts WHERE graph = ?", (entry.name,))
        connection.executemany(
            "INSERT INTO artifacts (graph, name, version, payload) VALUES (?, ?, ?, ?)",
            [
                (entry.name, name, version, payload)
                for name, version, payload in self._artifact_rows(
                    entry, saturation_state, include_saturation_statistics
                )
            ],
        )

    def save_graph(self, entry) -> None:
        """Durably (re)write *entry* completely, in one transaction.

        Callers must hold the entry's lock (either side for a quiescent
        entry, the read side is enough — nothing here mutates the entry).
        """
        write_start = perf_counter()
        with self._lock:
            connection = self._conn()
            # one snapshot per transaction: a concurrent (read-locked)
            # saturated query may publish the G∞ state mid-checkpoint, and
            # the rows table and the artifact must agree on one view
            saturation_state = entry.saturation_state()
            try:
                with connection:  # one transaction, rolled back on error
                    connection.execute("DELETE FROM graphs WHERE name = ?", (entry.name,))
                    for table in _GRAPH_TABLES:
                        connection.execute(f"DELETE FROM {table} WHERE graph = ?", (entry.name,))
                    connection.execute(
                        "INSERT INTO graphs (name, version) VALUES (?, ?)",
                        (entry.name, entry.version),
                    )
                    self._write_dictionary_rows(connection, entry.name, entry.store.dictionary, 0)
                    if getattr(entry.store, "supports_column_snapshot", False):
                        # columnar store: one packed blob per column, no
                        # per-row SQL at all — the warm-start fast path
                        for kind in TripleKind:
                            count, s_bytes, p_bytes, o_bytes = entry.store.column_bytes(kind)
                            connection.execute(
                                "INSERT INTO graph_columns "
                                "(graph, kind, rows, byteorder, s, p, o) "
                                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                                (
                                    entry.name,
                                    kind.value,
                                    count,
                                    sys.byteorder,
                                    s_bytes,
                                    p_bytes,
                                    o_bytes,
                                ),
                            )
                    else:
                        for kind in TripleKind:
                            for batch in entry.store.scan_batches(kind):
                                connection.executemany(
                                    "INSERT INTO graph_triples (graph, kind, s, p, o) "
                                    "VALUES (?, ?, ?, ?, ?)",
                                    [
                                        (entry.name, kind.value, row[0], row[1], row[2])
                                        for row in batch
                                    ],
                                )
                    if saturation_state is not None:
                        self._insert_saturation_rows(
                            connection, entry.name, saturation_state["_derived"]
                        )
                    self._replace_artifacts(connection, entry, saturation_state)
            except sqlite3.Error as error:
                self._saturation_counts.pop(entry.name, None)
                self._tail_rows.pop(entry.name, None)
                raise PersistenceError(f"checkpoint of graph {entry.name!r} failed: {error}")
            self._saturation_counts[entry.name] = _derived_count(saturation_state)
            self._tail_rows[entry.name] = 0
        self._checkpoints.inc()
        self._write_seconds.observe(perf_counter() - write_start)

    def refresh_artifacts(self, entry) -> bool:
        """Replace *entry*'s artifacts and version; leave its rows alone.

        The checkpoint of an entry whose durable rows are already current:
        this process wrote the graph in full and has appended nothing since
        (a cold build's ``register()`` then ``checkpoint()``), so only the
        summaries cached in between are missing from the file.  Returns
        ``False`` without writing when that cannot be shown — tail rows
        exist or their count is unknown (a graph this process only opened),
        the dictionary grew, or the durable ``G∞`` log is not the live one
        — and the caller falls back to :meth:`save_graph`.  Same locking
        contract as :meth:`save_graph`; a ``_persist_dirty`` entry must not
        come here.
        """
        write_start = perf_counter()
        with self._lock:
            connection = self._conn()
            saturation_state = entry.saturation_state()
            if self._tail_rows.get(entry.name) != 0 or self._saturation_counts.get(
                entry.name
            ) != _derived_count(saturation_state):
                return False
            try:
                with connection:
                    persisted_terms = connection.execute(
                        "SELECT COUNT(*) FROM dictionary_terms WHERE graph = ?",
                        (entry.name,),
                    ).fetchone()[0]
                    if persisted_terms != len(entry.store.dictionary):
                        return False
                    connection.execute(
                        "UPDATE graphs SET version = ? WHERE name = ?",
                        (entry.version, entry.name),
                    )
                    self._replace_artifacts(connection, entry, saturation_state)
            except sqlite3.Error as error:
                raise PersistenceError(f"checkpoint of graph {entry.name!r} failed: {error}")
        self._checkpoints.inc()
        self._write_seconds.observe(perf_counter() - write_start)
        return True

    def _insert_saturation_rows(
        self, connection: sqlite3.Connection, name: str, derived: Iterable[Tuple[str, int, int, int]]
    ) -> None:
        connection.executemany(
            "INSERT INTO saturation_rows (graph, kind, s, p, o) VALUES (?, ?, ?, ?, ?)",
            [(name, kind_value, s, p, o) for kind_value, s, p, o in derived],
        )

    def append_update(self, entry, rows: List[Tuple[TripleKind, EncodedTriple]]) -> None:
        """Atomically append one ``add_triples`` batch and refresh artifacts.

        Runs inside the entry's exclusive write lock (it is the
        write-through hook of :meth:`CatalogEntry.add_triples`), so the
        entry state it serializes cannot move underneath it.  Only the new
        dictionary ids, the inserted rows and the ``G∞`` derived rows the
        batch entailed are appended — the incremental checkpoint stays
        proportional to the delta; the artifacts (maintainer maps,
        statistics, the freshly snapshotted weak summary, the saturator's
        schema maps) are replaced wholesale — they are the price of a warm
        start that rebuilds nothing.
        """
        # snapshot the weak summary first so it rides along in the same
        # checkpoint: the incremental maintainer makes this summary-sized
        # work, and a warm-started process then guards its first query
        # without even a snapshot pass (lazy-init mutation is legal here —
        # the entry's init lock serializes it, and we are the only writer)
        entry.summary("weak")
        write_start = perf_counter()
        with self._lock:
            connection = self._conn()
            saturation_state = entry.saturation_state()
            try:
                with connection:
                    persisted = connection.execute(
                        "SELECT COUNT(*) FROM dictionary_terms WHERE graph = ?",
                        (entry.name,),
                    ).fetchone()[0]
                    self._write_dictionary_rows(
                        connection, entry.name, entry.store.dictionary, persisted
                    )
                    connection.executemany(
                        "INSERT INTO graph_triples (graph, kind, s, p, o) VALUES (?, ?, ?, ?, ?)",
                        [(entry.name, kind.value, row[0], row[1], row[2]) for kind, row in rows],
                    )
                    if saturation_state is not None:
                        derived = saturation_state["_derived"]
                        appended = entry.saturation_appended_rows()
                        persisted_derived = self._saturation_counts.get(entry.name)
                        if persisted_derived is None:
                            # one COUNT per graph per process lifetime; every
                            # later append stays delta-sized
                            persisted_derived = connection.execute(
                                "SELECT COUNT(*) FROM saturation_rows WHERE graph = ?",
                                (entry.name,),
                            ).fetchone()[0]
                        if persisted_derived + len(appended) == len(derived):
                            self._insert_saturation_rows(connection, entry.name, appended)
                        else:
                            # the durable log lags the live one (the G∞ cache
                            # was seeded between checkpoints): rewrite it whole
                            connection.execute(
                                "DELETE FROM saturation_rows WHERE graph = ?", (entry.name,)
                            )
                            self._insert_saturation_rows(connection, entry.name, derived)
                    elif self._saturation_counts.get(entry.name) != 0:
                        # a stale log may linger (e.g. the artifact failed to
                        # load); skip the DELETE once the log is known empty
                        connection.execute(
                            "DELETE FROM saturation_rows WHERE graph = ?", (entry.name,)
                        )
                    updated = connection.execute(
                        "UPDATE graphs SET version = ? WHERE name = ?",
                        (entry.version, entry.name),
                    )
                    if updated.rowcount == 0:
                        connection.execute(
                            "INSERT INTO graphs (name, version) VALUES (?, ?)",
                            (entry.name, entry.version),
                        )
                    self._replace_artifacts(
                        connection, entry, saturation_state, include_saturation_statistics=False
                    )
            except sqlite3.Error as error:
                self._saturation_counts.pop(entry.name, None)
                self._tail_rows.pop(entry.name, None)
                raise PersistenceError(f"incremental checkpoint of {entry.name!r} failed: {error}")
            self._saturation_counts[entry.name] = _derived_count(saturation_state)
            if entry.name in self._tail_rows:
                self._tail_rows[entry.name] += len(rows)
        self._appends.inc()
        self._write_seconds.observe(perf_counter() - write_start)

    def delete_graph(self, name: str) -> None:
        """Forget *name* durably (no-op when it was never persisted)."""
        with self._lock:
            self._saturation_counts.pop(name, None)
            self._tail_rows.pop(name, None)
            connection = self._conn()
            try:
                with connection:
                    connection.execute("DELETE FROM graphs WHERE name = ?", (name,))
                    for table in _GRAPH_TABLES:
                        connection.execute(f"DELETE FROM {table} WHERE graph = ?", (name,))
            except sqlite3.Error as error:
                raise PersistenceError(f"dropping graph {name!r} failed: {error}")

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_graph(
        self, name: str, store_factory: Callable[[], TripleStore]
    ) -> GraphSnapshot:
        """Rebuild one graph's warm-start snapshot from the file."""
        with self._lock:
            connection = self._conn()
            graph_row = connection.execute(
                "SELECT version FROM graphs WHERE name = ?", (name,)
            ).fetchone()
            if graph_row is None:
                raise PersistenceError(f"graph {name!r} is not in catalog file {self.path!r}")
            version = int(graph_row[0])
            term_rows = connection.execute(
                "SELECT id, kind, value, datatype, language FROM dictionary_terms "
                "WHERE graph = ? ORDER BY id",
                (name,),
            ).fetchall()
            triple_rows = connection.execute(
                "SELECT kind, s, p, o FROM graph_triples WHERE graph = ? ORDER BY rowid",
                (name,),
            ).fetchall()
            column_rows = connection.execute(
                "SELECT kind, rows, byteorder, s, p, o FROM graph_columns WHERE graph = ?",
                (name,),
            ).fetchall()
            artifact_rows = connection.execute(
                "SELECT name, version, payload FROM artifacts WHERE graph = ?",
                (name,),
            ).fetchall()
            saturation_row_data = connection.execute(
                "SELECT kind, s, p, o FROM saturation_rows WHERE graph = ? ORDER BY rowid",
                (name,),
            ).fetchall()

        dictionary = Dictionary()
        for position, (identifier, kind, value, datatype, language) in enumerate(term_rows):
            if identifier != position:
                raise PersistenceError(
                    f"dictionary of graph {name!r} is not dense at id {identifier} "
                    f"(expected {position}) — the catalog file is corrupt"
                )
            dictionary.encode(_term_from_columns(kind, value, datatype, language))

        store = store_factory()
        store.dictionary = dictionary
        if column_rows and getattr(store, "supports_column_snapshot", False):
            # blob fast path: three frombytes calls per table, no per-row
            # work and no index / dedup-set build (both stay deferred)
            for kind_value, count, byteorder, s_bytes, p_bytes, o_bytes in column_rows:
                loaded = store.load_column_bytes(
                    _KIND_BY_VALUE[kind_value], s_bytes, p_bytes, o_bytes, byteorder=byteorder
                )
                if loaded != count:
                    raise PersistenceError(
                        f"column snapshot of graph {name!r} ({kind_value}) holds {loaded} "
                        f"rows, expected {count} — the catalog file is corrupt"
                    )
        elif column_rows:
            # a column snapshot loaded into a store without blob adoption
            # (e.g. the sqlite backend): unpack the blobs into plain rows
            triple_rows = [
                (kind_value, s, p, o)
                for kind_value, _count, byteorder, s_bytes, p_bytes, o_bytes in column_rows
                for s, p, o in zip(
                    _unpack_column(s_bytes, byteorder),
                    _unpack_column(p_bytes, byteorder),
                    _unpack_column(o_bytes, byteorder),
                )
            ] + triple_rows
        if triple_rows:
            store._insert_rows(
                [(_KIND_BY_VALUE[kind], EncodedTriple(s, p, o)) for kind, s, p, o in triple_rows]
            )
        ensure_indexes = getattr(store, "ensure_summarization_indexes", None)
        if callable(ensure_indexes):
            ensure_indexes()

        maintainer_state: Optional[Dict[str, object]] = None
        statistics: Optional[CardinalityStatistics] = None
        summaries: Dict[str, Summary] = {}
        saturation_payload: Optional[Dict[str, object]] = None
        saturation_statistics: Optional[CardinalityStatistics] = None
        for artifact_name, artifact_version, payload in artifact_rows:
            if artifact_version != version:
                continue  # stale artifact from an interrupted lineage
            if artifact_name.startswith("summary:"):
                # expendable: a payload that does not decode (a layout older
                # than the packed id arrays, a torn blob) is skipped — the
                # entry rebuilds that summary on first use and the next
                # checkpoint rewrites the artifact
                try:
                    summaries[artifact_name.split(":", 1)[1]] = _unpack_summary(
                        pickle.loads(payload), dictionary
                    )
                except Exception:  # noqa: BLE001 - any undecodable payload
                    self._artifacts_skipped.inc()
                continue
            try:
                value = pickle.loads(payload)
            except Exception as error:  # noqa: BLE001 - surface as PersistenceError
                raise PersistenceError(
                    f"artifact {artifact_name!r} of graph {name!r} is unreadable: {error}"
                )
            if artifact_name == "maintainer":
                maintainer_state = value
            elif artifact_name == "statistics":
                statistics = value
            elif artifact_name == "saturation":
                saturation_payload = value
            elif artifact_name == "saturation_statistics":
                saturation_statistics = value
        if not isinstance(maintainer_state, dict):
            raise PersistenceError(
                f"graph {name!r} has no weak-summary maintainer state at version {version} "
                f"— the catalog file is corrupt"
            )
        saturation_state: Optional[Dict[str, object]] = None
        if saturation_payload is not None:
            derived = [
                (kind_value, s, p, o) for kind_value, s, p, o in saturation_row_data
            ]
            if len(derived) == saturation_payload.pop("derived_count", -1):
                saturation_state = dict(saturation_payload)
                saturation_state["_derived"] = derived
            else:
                # the derived log and the schema maps disagree (an older
                # lineage's rows survived a partial rewrite): the G∞ cache
                # is expendable — drop it and let the entry rebuild lazily
                saturation_statistics = None
        return GraphSnapshot(
            name=name,
            version=version,
            store=store,
            maintainer_state=maintainer_state,
            statistics=statistics,
            summaries=summaries,
            saturation_state=saturation_state,
            saturation_statistics=saturation_statistics,
        )
