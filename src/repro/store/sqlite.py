"""SQLite-backed encoded triple store.

The paper's prototype stores the encoded graph in PostgreSQL tables and
drives summarization through SQL queries.  PostgreSQL is not available in
this environment; the standard-library ``sqlite3`` module provides the same
relational substrate (tables + indexes + SQL selection), which is what the
algorithms actually rely on.  The schema mirrors the paper's layout:

* ``data_triples(s, p, o)``   — the encoded data component ``D_G``;
* ``type_triples(s, p, o)``   — the encoded type component ``T_G``;
* ``schema_triples(s, p, o)`` — the encoded schema component ``S_G``;
* ``dictionary(id, value)``   — integer ↔ lexical form mapping (persisted on
  :meth:`persist_dictionary`, primarily for debugging and decoding outside
  the process).

Thread-safety and the write-lock discipline
-------------------------------------------
The store is safe to read from many threads at once and to write from any
thread, under the following discipline (what the serving layer's per-entry
read/write locks enforce):

* **Writes are serialized.**  Every mutating path (``_insert_rows``,
  ``persist_dictionary``, ``ensure_summarization_indexes``) and the
  existence probes of the insert path run on the single *write connection*
  under the store's internal write lock.  Callers must additionally ensure
  no reads overlap an in-flight logical batch (an insert plus its derived
  bookkeeping) if they need batch atomicity — SQLite guarantees statement
  atomicity, not catalog-level invariants; the catalog entry's exclusive
  lock is what provides that.
* **File-backed stores read in parallel.**  Each reader thread lazily opens
  its own connection to the database file (WAL journal mode, so readers
  never block the writer), and the C library releases the GIL while a
  statement runs — concurrent ``select``/``select_many`` calls genuinely
  overlap.  Read connections only observe committed data; every write path
  commits before returning.
* **In-memory stores are serialized.**  A ``":memory:"`` database is
  private to its connection (a second connection would see an empty
  database), so all access funnels through the write connection under the
  internal lock, and result sets are materialized before the lock is
  released — correct from any number of threads, just without read
  parallelism.  Use a file path when concurrent throughput matters.
"""

from __future__ import annotations

import sqlite3
import threading
import weakref
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import StoreClosedError, StoreError
from repro.model.dictionary import EncodedTriple
from repro.model.triple import TripleKind
from repro.store.base import TripleStore

__all__ = ["SQLiteStore"]

_TABLE_FOR_KIND = {
    TripleKind.DATA: "data_triples",
    TripleKind.TYPE: "type_triples",
    TripleKind.SCHEMA: "schema_triples",
}

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS data_triples   (s INTEGER NOT NULL, p INTEGER NOT NULL, o INTEGER NOT NULL);
CREATE TABLE IF NOT EXISTS type_triples   (s INTEGER NOT NULL, p INTEGER NOT NULL, o INTEGER NOT NULL);
CREATE TABLE IF NOT EXISTS schema_triples (s INTEGER NOT NULL, p INTEGER NOT NULL, o INTEGER NOT NULL);
CREATE TABLE IF NOT EXISTS dictionary     (id INTEGER PRIMARY KEY, value TEXT NOT NULL);
CREATE INDEX IF NOT EXISTS idx_data_spo ON data_triples(s, p, o);
CREATE INDEX IF NOT EXISTS idx_data_ps  ON data_triples(p, s);
CREATE INDEX IF NOT EXISTS idx_data_po  ON data_triples(p, o);
CREATE INDEX IF NOT EXISTS idx_data_o   ON data_triples(o);
CREATE INDEX IF NOT EXISTS idx_type_s   ON type_triples(s);
CREATE INDEX IF NOT EXISTS idx_type_o   ON type_triples(o);
CREATE INDEX IF NOT EXISTS idx_schema_p ON schema_triples(p);
"""

#: SQLite's default variable limit is 999; keep chunks comfortably under it.
_IN_CHUNK = 500

#: How long (ms) any connection waits on a competing lock before erroring.
_BUSY_TIMEOUT_MS = 10_000


def _where(
    subject: Optional[int], predicate: Optional[int], obj: Optional[int]
) -> Tuple[str, List[int]]:
    """The ``WHERE`` clause (or ``""``) and parameters of an id pattern."""
    bound = [(column, value) for column, value in (("s", subject), ("p", predicate), ("o", obj)) if value is not None]
    if not bound:
        return "", []
    clause = " AND ".join(f"{column} = ?" for column, _value in bound)
    return f" WHERE {clause}", [value for _column, value in bound]


def _discard_reader(readers: List, lock: threading.Lock, connection) -> None:
    """Finalizer for a per-thread read connection: close it when its owning
    thread is collected (module-level so the finalizer does not keep the
    store itself alive)."""
    with lock:
        try:
            readers.remove(connection)
        except ValueError:
            pass  # close() already took it
    try:
        connection.close()
    except sqlite3.Error:  # pragma: no cover - best-effort cleanup
        pass


class SQLiteStore(TripleStore):
    """A :class:`TripleStore` persisting encoded triples in SQLite.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (default) for an in-process
        transient database.  File-backed stores serve concurrent readers
        from per-thread connections; in-memory stores serialize all access
        (see the module docstring for the locking discipline).
    batch_size:
        Number of rows per ``executemany`` batch when loading; plays the role
        of the JDBC fetch size tuned in the paper's experiments.
    """

    def __init__(self, path: str = ":memory:", batch_size: int = 100_000):
        super().__init__()
        if batch_size <= 0:
            raise StoreError("batch_size must be positive")
        path = str(path) if not isinstance(path, str) else path
        self.path = path
        self.batch_size = batch_size
        # a private in-memory database cannot be shared across connections,
        # so everything funnels through the write connection under the lock
        self._serialized = path == ":memory:" or path.startswith("file:")
        self._lock = threading.RLock()
        self._local = threading.local()
        self._readers: List[sqlite3.Connection] = []
        self._readers_lock = threading.Lock()
        # check_same_thread=False: the connection is used from whichever
        # thread holds the write lock (and, serialized, by readers too)
        self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
            path, check_same_thread=False
        )
        self._connection.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
        if not self._serialized:
            # WAL lets per-thread readers proceed while the writer commits
            self._connection.execute("PRAGMA journal_mode = WAL")
        self._connection.executescript(_SCHEMA_SQL)
        self._connection.commit()

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        connection = self._connection
        if connection is None:
            raise StoreClosedError("the SQLite store has been closed")
        return connection

    def _reader(self) -> sqlite3.Connection:
        """This thread's read connection (file-backed stores only).

        Each connection is registered for :meth:`close` **and** tied to its
        owning thread's lifetime with a finalizer: a server that reads from
        short-lived handler threads (one per HTTP connection) must not
        accumulate one descriptor per thread that ever existed.
        """
        if self._connection is None:
            raise StoreClosedError("the SQLite store has been closed")
        connection = getattr(self._local, "connection", None)
        if connection is None:
            # check_same_thread=False only so close()/the finalizer can shut
            # it down from another thread; each reader is otherwise
            # thread-private
            connection = sqlite3.connect(self.path, check_same_thread=False)
            connection.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
            with self._readers_lock:
                if self._connection is None:
                    connection.close()
                    raise StoreClosedError("the SQLite store has been closed")
                self._readers.append(connection)
            self._local.connection = connection
            weakref.finalize(
                threading.current_thread(),
                _discard_reader,
                self._readers,
                self._readers_lock,
                connection,
            )
        return connection

    def _execute_read(self, sql: str, parameters: Iterable = ()) -> List[Tuple[int, int, int]]:
        """Run a read statement and materialize its rows.

        Serialized stores run on the write connection under the lock (the
        materialization keeps cursor iteration out of the critical
        section); file-backed stores run on this thread's own connection,
        fully in parallel with other readers.
        """
        if self._serialized:
            with self._lock:
                return self._conn().execute(sql, parameters).fetchall()
        return self._reader().execute(sql, parameters).fetchall()

    def _insert_rows(self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]) -> None:
        with self._lock:
            connection = self._conn()
            buffers = {kind: [] for kind in _TABLE_FOR_KIND}
            flushed = 0

            def flush() -> None:
                nonlocal flushed
                for kind, buffer in buffers.items():
                    if buffer:
                        connection.executemany(
                            f"INSERT INTO {_TABLE_FOR_KIND[kind]} (s, p, o) VALUES (?, ?, ?)",
                            buffer,
                        )
                        flushed += len(buffer)
                        buffer.clear()

            pending = 0
            for kind, row in rows:
                buffers[kind].append((row[0], row[1], row[2]))
                pending += 1
                if pending >= self.batch_size:
                    flush()
                    pending = 0
            flush()
            connection.commit()

    # ------------------------------------------------------------------
    def _scan(self, kind: TripleKind) -> Iterator[EncodedTriple]:
        """Row-wise table scan.

        File-backed stores stream from this thread's own reader cursor (a
        multi-million-row scan never materializes the whole table);
        serialized (in-memory) stores materialize under the lock, the same
        trade :meth:`scan_batches` makes.
        """
        sql = f"SELECT s, p, o FROM {_TABLE_FOR_KIND[kind]} ORDER BY rowid"
        if self._serialized:
            with self._lock:
                rows = self._conn().execute(sql).fetchall()
            for subject, predicate, obj in rows:
                yield EncodedTriple(subject, predicate, obj)
            return
        for subject, predicate, obj in self._reader().execute(sql):
            yield EncodedTriple(subject, predicate, obj)

    def scan_data(self) -> Iterator[EncodedTriple]:
        return self._scan(TripleKind.DATA)

    def scan_types(self) -> Iterator[EncodedTriple]:
        return self._scan(TripleKind.TYPE)

    def scan_schema(self) -> Iterator[EncodedTriple]:
        return self._scan(TripleKind.SCHEMA)

    def scan_batches(
        self, kind: TripleKind, batch_size: int = 50_000
    ) -> Iterator[List[EncodedTriple]]:
        """Scan the *kind* table with ``fetchmany`` chunks.

        Fetching *batch_size* rows per cursor round-trip (instead of one row
        per ``__next__``) is what keeps the table scan itself from being the
        bottleneck of the encoded summarization passes.  The raw SQLite rows
        are yielded as-is: they are plain ``(s, p, o)`` tuples, which is all
        the integer pipeline needs.  On a serialized (in-memory) store the
        whole result is materialized under the lock first, so a slow
        consumer never holds other threads up.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        sql = f"SELECT s, p, o FROM {_TABLE_FOR_KIND[kind]} ORDER BY rowid"
        if self._serialized:
            with self._lock:
                rows = self._conn().execute(sql).fetchall()
            for start in range(0, len(rows), batch_size):
                yield rows[start : start + batch_size]
            return
        cursor = self._reader().execute(sql)
        cursor.arraysize = batch_size
        while True:
            rows = cursor.fetchmany(batch_size)
            if not rows:
                break
            yield rows

    def select(
        self,
        kind: TripleKind,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Iterator[EncodedTriple]:
        where, parameters = _where(subject, predicate, obj)
        rows = self._execute_read(
            f"SELECT s, p, o FROM {_TABLE_FOR_KIND[kind]}{where}", parameters
        )
        for row_subject, row_predicate, row_object in rows:
            yield EncodedTriple(row_subject, row_predicate, row_object)

    def select_many(
        self,
        kind: TripleKind,
        subjects: Optional[Iterable[int]] = None,
        predicate: Optional[int] = None,
        objects: Optional[Iterable[int]] = None,
    ) -> List[Tuple[int, int, int]]:
        """Batched selection: chunked ``IN (...)`` statements on one column.

        The id collection is pushed into SQL in chunks under the parameter
        limit; when both *subjects* and *objects* are given, the smaller
        collection goes into the ``IN`` clause and the other is applied as a
        Python-side set filter — either way the call costs
        ``ceil(n / chunk)`` statements, never one probe per id.  Rows come
        back as plain ``(s, p, o)`` tuples (the integer pipeline's format).
        """
        table = _TABLE_FOR_KIND[kind]
        base_clauses: List[str] = []
        base_parameters: List[int] = []
        if predicate is not None:
            base_clauses.append("p = ?")
            base_parameters.append(predicate)

        subject_list = None if subjects is None else list(subjects)
        object_list = None if objects is None else list(objects)
        if subject_list is None and object_list is None:
            where = f" WHERE {' AND '.join(base_clauses)}" if base_clauses else ""
            return self._execute_read(f"SELECT s, p, o FROM {table}{where}", base_parameters)

        if subject_list is not None and (
            object_list is None or len(subject_list) <= len(object_list)
        ):
            in_column, in_values = "s", subject_list
            filter_column, filter_set = 2, None if object_list is None else set(object_list)
        else:
            in_column, in_values = "o", object_list  # type: ignore[assignment]
            filter_column, filter_set = 0, None if subject_list is None else set(subject_list)

        out: List[Tuple[int, int, int]] = []
        for start in range(0, len(in_values), _IN_CHUNK):
            chunk = in_values[start : start + _IN_CHUNK]
            placeholders = ", ".join("?" for _ in chunk)
            clauses = base_clauses + [f"{in_column} IN ({placeholders})"]
            fetched = self._execute_read(
                f"SELECT s, p, o FROM {table} WHERE {' AND '.join(clauses)}",
                base_parameters + chunk,
            )
            if filter_set is None:
                out.extend(fetched)
            else:
                out.extend(row for row in fetched if row[filter_column] in filter_set)
        return out

    def _existing_rows(self, kind: TripleKind, rows):
        """Batched existence check: one row-value ``IN`` query per chunk.

        Chunks stay under SQLite's default 999-parameter limit (3 parameters
        per triple), so a 10k-triple dedup costs ~31 statements instead of
        10k single-row probes (row-value syntax: SQLite >= 3.15).  Runs on the
        write connection under the lock — it is part of the insert path and
        must see the store exactly as the insert will leave it.
        """
        table = _TABLE_FOR_KIND[kind]
        present = set()
        chunk_size = 300
        with self._lock:
            connection = self._conn()
            for start in range(0, len(rows), chunk_size):
                chunk = rows[start : start + chunk_size]
                placeholders = ", ".join("(?, ?, ?)" for _ in chunk)
                parameters: List[int] = []
                for row in chunk:
                    parameters.extend((row[0], row[1], row[2]))
                cursor = connection.execute(
                    f"SELECT s, p, o FROM {table} WHERE (s, p, o) IN (VALUES {placeholders})",
                    parameters,
                )
                present.update((s, p, o) for s, p, o in cursor)
        return present

    def count(self, kind: TripleKind) -> int:
        rows = self._execute_read(f"SELECT COUNT(*) FROM {_TABLE_FOR_KIND[kind]}")
        return int(rows[0][0])

    def count_rows(
        self,
        kind: TripleKind,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> int:
        where, parameters = _where(subject, predicate, obj)
        rows = self._execute_read(f"SELECT COUNT(*) FROM {_TABLE_FOR_KIND[kind]}{where}", parameters)
        return int(rows[0][0])

    def cardinalities(self, kind: TripleKind):
        table = _TABLE_FOR_KIND[kind]
        ((subjects, objects),) = self._execute_read(
            f"SELECT COUNT(DISTINCT s), COUNT(DISTINCT o) FROM {table}"
        )
        grouped = self._execute_read(
            f"SELECT p, COUNT(*), COUNT(DISTINCT s), COUNT(DISTINCT o) FROM {table} GROUP BY p"
        )
        return subjects, objects, {row[0]: tuple(row[1:]) for row in grouped}

    def distinct_properties(self, kind: TripleKind) -> List[int]:
        rows = self._execute_read(
            f"SELECT DISTINCT p FROM {_TABLE_FOR_KIND[kind]} ORDER BY p"
        )
        return [row[0] for row in rows]

    # ------------------------------------------------------------------
    # SQL join pushdown (the paper's run-it-in-the-RDBMS architecture)
    # ------------------------------------------------------------------
    #: Advertises :meth:`execute_join` to the encoded evaluator's
    #: ``strategy="sql"`` — the whole BGP join compiled into one SELECT.
    supports_sql_join = True

    #: Table names by :class:`TripleKind`, for SQL generation by callers.
    SQL_TABLE_FOR_KIND = dict(_TABLE_FOR_KIND)

    def execute_join(self, sql: str, parameters: Iterable = ()) -> List[Tuple]:
        """Run one (read-only) join statement and materialize its rows.

        This is the GIL-friendly evaluation path: the entire join runs
        inside SQLite's C engine — on a file-backed store from this
        thread's own read connection — so concurrent queries genuinely
        overlap on multi-core hosts instead of interleaving Python
        bytecode.
        """
        return self._execute_read(sql, parameters)

    # ------------------------------------------------------------------
    def load_graph(self, graph) -> int:
        """Bulk-load *graph*, then refresh the summarization index pass."""
        count = super().load_graph(graph)
        self.ensure_summarization_indexes()
        return count

    def ensure_summarization_indexes(self) -> None:
        """Composite-index pass for the summarization workload.

        Guarantees the two composite indexes the selection patterns rely on
        and re-``ANALYZE``s so the query planner sees post-load table shapes
        (:meth:`load_graph` runs this after every bulk load):

        * ``data_triples(s, p, o)`` — a covering index for subject-anchored
          lookups, so ``select(subject=...)`` never touches the base table;
        * ``data_triples(p, s)`` — property-anchored access, the pattern of
          per-property passes (``dpSrc`` / ``dpTarg`` maintenance);
        * ``data_triples(p, o)`` — the object-anchored dual, which the
          hash-join executor's batched object-side fetches rely on (also
          covers databases persisted before the index joined the schema).

        Idempotent; cheap when the indexes already exist.
        """
        with self._lock:
            connection = self._conn()
            connection.executescript(
                """
                CREATE INDEX IF NOT EXISTS idx_data_spo ON data_triples(s, p, o);
                CREATE INDEX IF NOT EXISTS idx_data_ps  ON data_triples(p, s);
                CREATE INDEX IF NOT EXISTS idx_data_po  ON data_triples(p, o);
                ANALYZE;
                """
            )
            connection.commit()

    # ------------------------------------------------------------------
    def persist_dictionary(self) -> int:
        """Write the in-memory dictionary to the ``dictionary`` table.

        Returns the number of persisted entries.  Existing rows are replaced,
        so the call is idempotent.
        """
        with self._lock:
            connection = self._conn()
            connection.execute("DELETE FROM dictionary")
            rows = list(enumerate(self.dictionary.texts))
            connection.executemany("INSERT INTO dictionary (id, value) VALUES (?, ?)", rows)
            connection.commit()
            return len(rows)

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None
        with self._readers_lock:
            readers, self._readers = self._readers, []
        for connection in readers:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - best-effort cleanup
                pass
