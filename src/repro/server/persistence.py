"""The persistent catalog file behind :meth:`GraphCatalog.open`.

The paper's premise is a summary built once and exploited by a long-lived
service; this module makes the service's state *survive the process*.  A
:class:`PersistentCatalog` is one SQLite file holding, per registered graph,
a **checkpoint** and a **row log**.

The checkpoint (:meth:`~PersistentCatalog.save_graph`, or
:meth:`~PersistentCatalog.refresh_artifacts` when only the artifacts moved)
stores every fact once, packed, each blob through :mod:`zlib` at level 6:

* the **dictionary** in ``dictionary_chunks`` — id-ordered, front-coded
  chunks (:data:`repro.model.dictionary.TermChunk`), one row per chunk,
  read back as the N-Triples texts the dictionary keeps.  Term objects are never pickled:
  their memoized hashes are salted per process, and a hash smuggled across
  processes would corrupt every dict they key;
* the **encoded triples** in ``graph_columns`` — one row per table holding
  its three id columns as :meth:`TripleStore.column_bytes` packs them —
  4-byte ids in the writer's byte order, the bytes a cluster worker maps —
  whatever backend serves the graph, stored as byte planes (byte 0 of every
  id, then byte 1, ...);
* the **artifacts** in ``artifacts`` — the pruning graph of every summary
  kind cached at checkpoint time, as packed term triples, all tagged with
  the checkpoint's entry version: exactly what a warm start's guard reads.
  The node -> representative provenance is not stored: it is derived state,
  like the cardinality statistics every process reads off the indexes of
  the rows it loads, the summary maintainer it primes on first need (a
  ``summary()`` call, never a guard) and ``G∞`` it builds on its first
  saturated query (a row of any other name is never decoded and disappears
  with the next checkpoint).  Summary artifacts are *expendable*: one that
  does not decode, or names no summary kind, is skipped, counted and
  rebuilt on first use.

The log is what :meth:`~PersistentCatalog.append_update` — the write-through
hook of :meth:`CatalogEntry.add_triples` — writes, and it is delta-sized:
one small term chunk for the batch's new dictionary ids, the inserted rows
in ``graph_triples``, the entry version in ``graphs``.  No artifact is
touched there.  :meth:`~PersistentCatalog.load_graph` hands back the
checkpointed state *and* the logged rows (:attr:`GraphSnapshot.tail_rows`);
:meth:`GraphCatalog.open` feeds them through the same incremental
maintenance an ingest runs, so the warm state is the checkpoint refined by
the log and an unclean shutdown costs a replay proportional to the tail.

Durability discipline
---------------------
Every graph-level write is **one SQLite transaction**: a reader (or a crash)
sees the previous state or the new one, never a torn mix, and an
acknowledged ingest batch is durable the moment its append commits.  The
schema carries a version (``schema_version`` in ``catalog_meta``), and a
file of any other version raises :class:`~repro.errors.PersistenceError`
untouched, naming the route to this one.  A blob that does not inflate or
decode is a :class:`~repro.errors.PersistenceError` (dictionary, columns)
or a skipped summary, never a bare ``zlib`` / ``pickle`` traceback.

The payloads use :mod:`pickle` (stdlib, compact, fast) over structures that
contain no code and no Term objects.  Treat the catalog file like a database
file: open catalogs you wrote — unpickling an untrusted file can execute
arbitrary code.
"""

from __future__ import annotations

import pickle
import sqlite3
import sys
import threading
import zlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro import telemetry
from repro.core.builders import normalize_kind
from repro.errors import PersistenceError
from repro.model.dictionary import (
    Dictionary,
    EncodedTriple,
    pack_term,
    pack_term_chunks,
    unpack_term,
    unpack_terms,
)
from repro.model.graph import RDFGraph
from repro.model.triple import Triple, TripleKind
from repro.store.base import ID_BYTES, TripleStore

__all__ = ["GraphSnapshot", "PersistentCatalog", "SCHEMA_VERSION"]

#: Bump on any incompatible change to the tables or payloads.  Version 6: the
#: packed checkpoint + row log, byte-plane id columns, front-coded term chunks.
SCHEMA_VERSION = 6

_PICKLE_PROTOCOL = 4

#: Every blob goes through zlib at this level.  The id columns are
#: :data:`~repro.model.dictionary.ID_TYPECODE`; dictionary chunking is
#: :data:`repro.model.dictionary.TERM_CHUNK`.
_ZLIB_LEVEL = 6

#: Copied into every new file verbatim, comments included (``sqlite_master``),
#: so it stays as written: no build writes a ``saturation`` artifact any more.
_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS catalog_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS graphs (
    name    TEXT PRIMARY KEY,
    version INTEGER NOT NULL            -- the entry version of the last durable write
);
CREATE TABLE IF NOT EXISTS dictionary_chunks (
    graph TEXT NOT NULL,                -- the checkpoint's chunks, then one
    start INTEGER NOT NULL,             --   small chunk per logged batch;
    count INTEGER NOT NULL,             --   ids [start, start + count)
    terms BLOB NOT NULL,                -- zlib(pickle(TermChunk))
    PRIMARY KEY (graph, start)
);
CREATE TABLE IF NOT EXISTS graph_triples (
    graph TEXT NOT NULL,                -- the row log: rows inserted since the
    kind  TEXT NOT NULL,                --   checkpoint, in insertion order
    s INTEGER NOT NULL,                 --   (kind is TripleKind.value)
    p INTEGER NOT NULL,
    o INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_graph_triples_graph ON graph_triples(graph);
CREATE TABLE IF NOT EXISTS graph_columns (
    graph     TEXT NOT NULL,            -- the checkpoint's rows: per column
    kind      TEXT NOT NULL,            --   zlib of its 4-byte ids' planes
    rows      INTEGER NOT NULL,
    byteorder TEXT NOT NULL,            -- 'little' | 'big' (the writer's native)
    s BLOB NOT NULL,
    p BLOB NOT NULL,
    o BLOB NOT NULL,
    PRIMARY KEY (graph, kind)
);
CREATE TABLE IF NOT EXISTS artifacts (
    graph   TEXT NOT NULL,
    name    TEXT NOT NULL,              -- summary:<kind> | saturation
    version INTEGER NOT NULL,           -- the entry version checkpointed
    payload BLOB NOT NULL,              -- zlib(pickle(...))
    PRIMARY KEY (graph, name)
);
"""

#: Per-graph tables cleared wholesale on rewrite / delete.
_GRAPH_TABLES = ("dictionary_chunks", "graph_triples", "graph_columns", "artifacts")

_KIND_BY_VALUE = {kind.value: kind for kind in TripleKind}


# ----------------------------------------------------------------------
# blob codecs (structural — no Term object ever serialized)
# ----------------------------------------------------------------------
def _pack(value: object) -> bytes:
    return zlib.compress(pickle.dumps(value, protocol=_PICKLE_PROTOCOL), _ZLIB_LEVEL)


def _unpack(blob: bytes) -> object:
    return pickle.loads(zlib.decompress(blob))


def _pack_column(column: bytes) -> bytes:
    """A :meth:`TripleStore.column_bytes` column as its byte planes — byte 0
    of every id, then byte 1, ... — through zlib."""
    return zlib.compress(b"".join(column[b::ID_BYTES] for b in range(ID_BYTES)), _ZLIB_LEVEL)


def _unpack_column(blob: bytes, rows: int) -> bytearray:
    """The id bytes of a *rows*-row column :func:`_pack_column` packed."""
    planes = zlib.decompress(blob)
    if len(planes) != ID_BYTES * rows:
        raise ValueError(f"a {rows}-row column of byte planes inflates to {len(planes)} bytes")
    column = bytearray(len(planes))
    for plane in range(ID_BYTES):
        column[plane::ID_BYTES] = planes[plane * rows : (plane + 1) * rows]
    return column


def _pack_summary(graph: RDFGraph) -> Dict[str, object]:
    """A pruning graph as packed term tuples, sorted so that equal graphs
    give equal bytes whatever the process's hash seed."""
    triples = [
        (pack_term(t.subject), pack_term(t.predicate), pack_term(t.object)) for t in graph
    ]
    return {"graph_name": graph.name, "triples": sorted(triples, key=str)}


def _unpack_summary(payload: Dict[str, object]) -> RDFGraph:
    """The pruning graph of a ``summary:<kind>`` payload.  Raises
    (``KeyError`` / ``TypeError`` / ``ValueError`` /
    :class:`~repro.errors.DictionaryError`) on a payload that holds no
    well-formed graph — the caller treats summary artifacts as expendable."""
    graph = RDFGraph(name=payload.get("graph_name", ""))
    for subject, predicate, obj in payload["triples"]:
        graph.add(Triple(unpack_term(subject), unpack_term(predicate), unpack_term(obj)))
    return graph


class GraphSnapshot(NamedTuple):
    """Everything needed to warm-start one catalog entry."""

    name: str
    #: The entry version of the last durable write (checkpoint or append).
    version: int
    #: Holds the checkpoint's rows; :attr:`tail_rows` are not inserted yet.
    store: TripleStore
    #: The pruning graph of every summary kind cached at the checkpoint.
    pruning_graphs: Optional[Dict[str, RDFGraph]] = None
    #: The version everything above was checkpointed at, and the rows logged
    #: since, in insertion order — the caller replays them.
    checkpoint_version: int = 0
    tail_rows: Sequence[Tuple[TripleKind, EncodedTriple]] = ()
    #: Read from columns in the other byte order: the graph's first durable
    #: write must be a full rewrite.
    rewrite: bool = False


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
        #: ``graph -> (dictionary ids persisted, rows logged since the
        #: checkpoint)`` for every graph this process loaded or wrote, so an
        #: append never counts either in the file.  Maintained under the
        #: lock, dropped on any failed write (and then re-read once).
        self._durable: Dict[str, Tuple[int, int]] = {}
        try:
            self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
                self.path, check_same_thread=False
            )
        except sqlite3.Error as error:
            raise PersistenceError(f"cannot open catalog file {self.path!r}: {error}")
        connection = self._connection
        try:
            connection.execute("PRAGMA busy_timeout = 10000")
            # a new file gets 1 KiB pages (an existing one keeps its own):
            # every packed blob rounds up to whole pages, and at SQLite's
            # 4 KiB that rounding alone moved a 300 KB checkpoint by ±1.5 %
            connection.execute("PRAGMA page_size = 1024")
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
            # check the version BEFORE any DDL: a file of another one must be
            # refused untouched, not first given this build's tables, then rejected
            if "catalog_meta" in existing_tables:
                stored = connection.execute(
                    "SELECT value FROM catalog_meta WHERE key = 'schema_version'"
                ).fetchone()
                if stored is not None and stored[0] != str(SCHEMA_VERSION):
                    raise PersistenceError(  # the route: export with a build that reads it
                        f"catalog file {self.path!r} has schema version {stored[0]}, this build "
                        f"reads version {SCHEMA_VERSION} only: export each graph as N-Triples "
                        "with a build that reads it (schema 5: at or before commit 7362db4; "
                        "1..4: at or before acca3ad) — repro.io.ntriples.dump_ntriples("
                        "GraphCatalog.open(FILE).entry(NAME).to_graph(), NAME.nt) — then run "
                        "`repro serve --catalog NEW --load NAME=NAME.nt`"
                    )
            connection.executescript(_SCHEMA_SQL)
            connection.execute(
                "INSERT OR REPLACE INTO catalog_meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            connection.commit()
        except (PersistenceError, sqlite3.Error) as error:
            connection.close()
            self._connection = None
            if isinstance(error, PersistenceError):
                raise
            raise PersistenceError(f"{self.path!r} is not a catalog file: {error}")
        telemetry.gauge("persistence.tail.rows").add_callback(self._tail_total)

    # ------------------------------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        if self._connection is None:
            raise PersistenceError("the persistent catalog has been closed")
        return self._connection

    def close(self) -> None:
        telemetry.gauge("persistence.tail.rows").remove_callback(self._tail_total)
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "PersistentCatalog":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def graph_names(self) -> List[str]:
        with self._lock:
            rows = self._conn().execute("SELECT name FROM graphs ORDER BY name").fetchall()
        return [row[0] for row in rows]

    def tail_rows(self, name: str) -> Optional[int]:
        """Rows of *name* logged since its last checkpoint — what a reopen
        right now would replay (``None``: not a graph this process knows).
        One dict read, deliberately outside the lock: a statistics request
        must not queue behind a checkpoint that holds it for a whole write."""
        durable = self._durable.get(name)
        return durable[1] if durable is not None else None

    def _tail_total(self) -> int:
        """The ``persistence.tail.rows`` sample: :meth:`tail_rows` summed
        over the graphs (lock-free, as :meth:`tail_rows` is)."""
        return sum(tail for _terms, tail in list(self._durable.values()))

    def _remember(self, name: str, terms: int, tail: int) -> None:
        self._durable[name] = (terms, tail)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _replace_artifacts(self, connection: sqlite3.Connection, entry) -> None:
        """The artifact payloads of *entry* at its current version."""
        connection.execute("DELETE FROM artifacts WHERE graph = ?", (entry.name,))
        connection.executemany(
            "INSERT INTO artifacts (graph, name, version, payload) VALUES (?, ?, ?, ?)",
            [
                (entry.name, f"summary:{kind}", entry.version, _pack(_pack_summary(graph)))
                for kind, graph in entry.cached_pruning_graphs().items()
            ],
        )

    def _write_term_chunks(
        self, connection: sqlite3.Connection, name: str, dictionary: Dictionary, start: int
    ) -> None:
        """Persist dictionary ids ``[start, len)`` as packed chunk rows."""
        if start > len(dictionary):
            raise PersistenceError(
                f"catalog file holds {start} dictionary ids of graph {name!r}, "
                f"the live dictionary only {len(dictionary)}"
            )
        rows = []
        for chunk in pack_term_chunks(dictionary, start):
            rows.append((name, start, len(chunk[0]), _pack(chunk)))  # one kind per term
            start += len(chunk[0])
        connection.executemany(
            "INSERT INTO dictionary_chunks (graph, start, count, terms) VALUES (?, ?, ?, ?)", rows
        )

    def _delete_rows(self, connection: sqlite3.Connection, name: str) -> None:
        connection.execute("DELETE FROM graphs WHERE name = ?", (name,))
        for table in _GRAPH_TABLES:
            connection.execute(f"DELETE FROM {table} WHERE graph = ?", (name,))

    @contextmanager
    def _transaction(
        self, name: str, action: str, counter: Optional[telemetry.Counter] = None
    ) -> Iterator[sqlite3.Connection]:
        """One transaction on the file, under the lock.  A failed one
        forgets *name*'s counts and raises ``PersistenceError("<action>
        '<name>' failed: <error>")``; a *counter* counts a committed one and
        the write histogram times it."""
        write_start = perf_counter()
        with self._lock:
            connection = self._conn()
            try:
                with connection:  # rolled back on error
                    yield connection
            except sqlite3.Error as error:
                self._durable.pop(name, None)
                raise PersistenceError(f"{action} {name!r} failed: {error}")
        if counter is not None:
            counter.inc()
            self._write_seconds.observe(perf_counter() - write_start)

    def save_graph(self, entry) -> None:
        """Checkpoint *entry* completely, in one transaction (empties its log).

        Callers must hold the entry's lock (either side for a quiescent
        entry, the read side is enough — nothing here mutates the entry).
        """
        name, dictionary = entry.name, entry.store.dictionary
        with self._transaction(name, "checkpoint of graph", self._checkpoints) as connection:
            self._delete_rows(connection, name)
            connection.execute(
                "INSERT INTO graphs (name, version) VALUES (?, ?)", (name, entry.version)
            )
            self._write_term_chunks(connection, name, dictionary, 0)
            for kind in TripleKind:
                count, *columns = entry.store.column_bytes(kind)
                connection.execute(
                    "INSERT INTO graph_columns (graph, kind, rows, byteorder, s, p, o) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (name, kind.value, count, sys.byteorder, *map(_pack_column, columns)),
                )
            self._replace_artifacts(connection, entry)
            self._remember(name, len(dictionary), 0)

    def refresh_artifacts(self, entry) -> bool:
        """Replace *entry*'s artifacts and version; leave its rows alone.

        The checkpoint of an entry whose checkpointed rows are already
        current: nothing was logged and the dictionary did not grow since
        this process loaded or wrote the graph in full (a cold build's
        ``register()`` then ``checkpoint()``), so only what was cached in
        between is missing from the file.  Returns ``False`` without writing
        when that cannot be shown, and the caller falls back to
        :meth:`save_graph`.  Same locking contract as :meth:`save_graph`; a
        ``_persist_dirty`` entry must not come here.
        """
        with self._lock:
            if self._durable.get(entry.name) != (len(entry.store.dictionary), 0):
                return False
            with self._transaction(entry.name, "checkpoint of graph", self._checkpoints) as connection:
                connection.execute(
                    "UPDATE graphs SET version = ? WHERE name = ?", (entry.version, entry.name)
                )
                self._replace_artifacts(connection, entry)
        return True

    def append_update(self, entry, rows: List[Tuple[TripleKind, EncodedTriple]]) -> None:
        """Atomically log one ``add_triples`` batch.

        Runs inside the entry's exclusive write lock (it is the
        write-through hook of :meth:`CatalogEntry.add_triples`).  Only the
        delta is written — a term chunk for the new dictionary ids, the
        inserted rows, the version; every artifact stays as checkpointed,
        and a reopen reproduces the live state by replaying the logged rows
        onto it.
        """
        name, dictionary = entry.name, entry.store.dictionary
        with self._transaction(name, "append to the log of", self._appends) as connection:
            terms, tail = self._durable.get(name) or (
                connection.execute(
                    "SELECT COALESCE(SUM(count), 0) FROM dictionary_chunks WHERE graph = ?",
                    (name,),
                ).fetchone()[0],
                connection.execute(
                    "SELECT COUNT(*) FROM graph_triples WHERE graph = ?", (name,)
                ).fetchone()[0],
            )
            self._write_term_chunks(connection, name, dictionary, terms)
            connection.executemany(
                "INSERT INTO graph_triples (graph, kind, s, p, o) VALUES (?, ?, ?, ?, ?)",
                [(name, kind.value, row[0], row[1], row[2]) for kind, row in rows],
            )
            connection.execute(
                "INSERT OR REPLACE INTO graphs (name, version) VALUES (?, ?)",
                (name, entry.version),
            )
            self._remember(name, len(dictionary), tail + len(rows))

    def delete_graph(self, name: str) -> None:
        """Forget *name* durably (no-op when it was never persisted)."""
        with self._lock:
            self._durable.pop(name, None)
            with self._transaction(name, "dropping graph") as connection:
                self._delete_rows(connection, name)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_graph(
        self, name: str, store_factory: Callable[[], TripleStore]
    ) -> GraphSnapshot:
        """One graph's checkpointed state plus the rows logged since."""
        with self._lock:
            connection = self._conn()

            def select(statement: str) -> List[tuple]:
                return connection.execute(statement, (name,)).fetchall()

            graph_rows = select("SELECT version FROM graphs WHERE name = ?")
            if not graph_rows:
                raise PersistenceError(f"graph {name!r} is not in catalog file {self.path!r}")
            version = int(graph_rows[0][0])
            chunk_rows = select(
                "SELECT start, count, terms FROM dictionary_chunks WHERE graph = ? ORDER BY start"
            )
            column_rows = select(
                "SELECT kind, rows, byteorder, s, p, o FROM graph_columns WHERE graph = ?"
            )
            log_rows = select("SELECT kind, s, p, o FROM graph_triples WHERE graph = ? ORDER BY rowid")
            artifact_rows = select("SELECT name, version, payload FROM artifacts WHERE graph = ?")

        dictionary = Dictionary()
        store = store_factory()
        store.dictionary = dictionary
        # one checkpoint replaces every artifact of the graph in one
        # transaction, so they all carry its version (with none there is
        # nothing a wrong version could make look fresh)
        pruning_graphs: Dict[str, RDFGraph] = {}
        checkpoint_version = artifact_rows[0][1] if artifact_rows else version
        try:
            tail_rows = [
                (_KIND_BY_VALUE[kind], EncodedTriple(s, p, o)) for kind, s, p, o in log_rows
            ]
            for start, count, blob in chunk_rows:
                dense = start == len(dictionary)
                if not dense or unpack_terms(_unpack(blob), dictionary) != start + count:
                    raise PersistenceError(f"the dictionary is not dense at id {start}")
            for kind_value, count, byteorder, *blobs in column_rows:
                # a memory store adopts the columns, its index build deferred
                loaded = store.load_column_bytes(
                    _KIND_BY_VALUE[kind_value],
                    *(_unpack_column(blob, count) for blob in blobs),
                    byteorder=byteorder,
                )
                if loaded != count:
                    raise PersistenceError(
                        f"the {kind_value} columns hold {loaded} rows, expected {count}"
                    )
            for artifact_name, _version, payload in artifact_rows:
                if artifact_name.startswith("summary:"):
                    # expendable: a payload that does not decode (a torn
                    # blob) or names no summary kind is skipped — the entry
                    # rebuilds that summary on first use and the next
                    # checkpoint rewrites the artifact
                    try:
                        kind = normalize_kind(artifact_name.split(":", 1)[1])
                        pruning_graphs[kind] = _unpack_summary(_unpack(payload))
                    except Exception:  # noqa: BLE001 - any undecodable payload
                        self._artifacts_skipped.inc()
            ensure_indexes = getattr(store, "ensure_summarization_indexes", None)
            if callable(ensure_indexes):
                ensure_indexes()
        except Exception as error:  # noqa: BLE001 - zlib / pickle / codec / log kind / index errors
            store.close()
            raise PersistenceError(
                f"graph {name!r} in catalog file {self.path!r} is unreadable "
                f"(dictionary, columns or log): {error}"
            )
        # counted only once decoded: a refused graph must not feed the gauge
        self._remember(name, len(dictionary), len(tail_rows))
        return GraphSnapshot(
            name=name,
            version=version,
            store=store,
            pruning_graphs=pruning_graphs,
            checkpoint_version=checkpoint_version,
            tail_rows=tail_rows,
            rewrite=any(row[2] != sys.byteorder for row in column_rows),
        )
