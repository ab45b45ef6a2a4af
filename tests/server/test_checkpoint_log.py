"""The catalog file as a checkpoint plus a row log.

A reopened catalog is its checkpoint refined by the rows logged since.  These
tests pin that the refinement reproduces the never-restarted state exactly
(a generated crash-recovery differential), that the append path is delta-sized
and forces no build, that files of the older schemas and layouts are refused
untouched, that damaged blobs surface typed, and that the length of the
un-checkpointed tail is visible from outside.
"""

import pickle
import shutil
import sqlite3
import sys
import zlib
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import telemetry
from repro.core.isomorphism import graphs_isomorphic
from repro.errors import PersistenceError, StoreClosedError
from repro.model.dictionary import Dictionary, pack_terms
from repro.model.graph import RDFGraph
from repro.model.namespaces import (
    EX,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from repro.model.terms import Literal
from repro.model.triple import Triple, TripleKind
from repro.queries.parser import parse_query
from repro.schema.encoded_saturation import IncrementalSaturator
from repro.schema.saturation import saturate
from repro.server.http import ServerApp
from repro.server.persistence import (
    _SCHEMA_SQL,
    SCHEMA_VERSION,
    PersistentCatalog,
    _unpack_column,
)
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.store.base import ID_BYTES
from repro.store.memory import MemoryStore


def _sql(path, statement, parameters=()):
    connection = sqlite3.connect(path)
    try:
        with connection:
            return connection.execute(statement, parameters).fetchall()
    finally:
        connection.close()


# ----------------------------------------------------------------------
# crash recovery: reopened == never restarted
# ----------------------------------------------------------------------
_RESOURCES = [EX.term(f"r{i}") for i in range(10)]
_PROPERTIES = [EX.term(f"p{i}") for i in range(4)]
_CLASSES = [EX.term(f"C{i}") for i in range(3)]
_OBJECTS = _RESOURCES + [Literal(f"v{i}") for i in range(3)]

_triple = st.one_of(
    st.builds(
        Triple, st.sampled_from(_RESOURCES), st.sampled_from(_PROPERTIES), st.sampled_from(_OBJECTS)
    ),
    st.builds(Triple, st.sampled_from(_RESOURCES), st.just(RDF_TYPE), st.sampled_from(_CLASSES)),
    st.builds(
        Triple, st.sampled_from(_CLASSES), st.just(RDFS_SUBCLASSOF), st.sampled_from(_CLASSES)
    ),
    st.builds(
        Triple,
        st.sampled_from(_PROPERTIES),
        st.just(RDFS_SUBPROPERTYOF),
        st.sampled_from(_PROPERTIES),
    ),
    st.builds(
        Triple,
        st.sampled_from(_PROPERTIES),
        st.sampled_from([RDFS_DOMAIN, RDFS_RANGE]),
        st.sampled_from(_CLASSES),
    ),
    # terms no dictionary has seen yet
    st.builds(
        lambda i, prop, j: Triple(EX.term(f"new{i}"), prop, Literal(f"fresh {j}", language="en")),
        st.integers(0, 5),
        st.sampled_from(_PROPERTIES),
        st.integers(0, 5),
    ),
)
_QUERIES = [
    parse_query(f"SELECT ?x ?y WHERE {{ ?x <{prop.value}> ?y . }}") for prop in _PROPERTIES
] + [
    parse_query(f"SELECT ?x WHERE {{ ?x <{RDF_TYPE.value}> <{cls.value}> . }}") for cls in _CLASSES
] + [
    parse_query(
        f"SELECT ?x ?z WHERE {{ ?x <{_PROPERTIES[0].value}> ?y . "
        f"?y <{_PROPERTIES[1].value}> ?z . }}"
    )
]


def _saturated_answers(catalog):
    service = QueryService(catalog, kind="weak")
    return [set(service.answer("g", query, saturated=True).answers) for query in _QUERIES]


def _table_rows(store):
    return {
        kind: [row for batch in store.scan_batches(kind) for row in batch] for kind in TripleKind
    }


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    base=st.lists(_triple, min_size=1, max_size=25),
    batches=st.lists(
        st.tuples(st.lists(_triple, min_size=1, max_size=8), st.booleans(), st.booleans()),
        min_size=1,
        max_size=5,
    ),
    checkpoint_after=st.integers(-1, 4),
)
def test_a_crashed_catalog_reopens_as_if_never_restarted(
    tmp_path_factory, recount, base, batches, checkpoint_after
):
    """*batches* are ``(triples, saturated query before, after)``; the durable
    catalog checkpoints after batch *checkpoint_after* (never, if out of range)
    and is abandoned — the file is copied as the last batch left it.  Whether
    or not ``G∞`` was live at the checkpoint, the reopened process has none
    until its first saturated query, which builds it once."""
    workdir = tmp_path_factory.mktemp("crash")
    path, image = str(workdir / "live.db"), str(workdir / "crashed.db")
    with GraphCatalog() as never, GraphCatalog.open(path) as durable:
        for catalog in (never, durable):
            catalog.register("g", graph=RDFGraph(base))
        for index, (triples, query_before, query_after) in enumerate(batches):
            if query_before:
                assert _saturated_answers(durable) == _saturated_answers(never)
            # (duplicates of what is there, and within the batch, are part of the input)
            assert durable.add_triples("g", triples) == never.add_triples("g", triples)
            if query_after:
                assert _saturated_answers(durable) == _saturated_answers(never)
            if index == checkpoint_after:
                durable.checkpoint()
            shutil.copyfile(path, image)  # the file as this acknowledged batch left it

        with GraphCatalog.open(image) as reopened:
            entry, reference = reopened.entry("g"), never.entry("g")
            assert entry.version == reference.version
            assert _table_rows(entry.store) == _table_rows(reference.store)
            # id for id — but for an ``rdf:type`` a saturated *query* minted after
            # the last logged batch: no row refers to it, and G∞ mints it again
            restored = pack_terms(entry.store.dictionary)
            live = pack_terms(reference.store.dictionary)
            assert restored == live[: len(restored)]
            assert live[len(restored) :] in ([], [("u", RDF_TYPE.value, None, None)])
            assert entry.statistics_index().as_dict() == recount(entry.store)
            assert entry.statistics_index() == reference.statistics_index()
            service = QueryService(reopened, kind="weak+strong")
            oracle = QueryService(never, kind="weak+strong")
            for query in _QUERIES:
                expected = set(oracle.answer("g", query).answers)
                assert set(service.answer("g", query).answers) == expected
            for kind in ("weak", "strong"):
                assert graphs_isomorphic(entry.summary(kind).graph, reference.summary(kind).graph)
            assert entry.saturation_metrics() is None
            assert entry.build_counters["saturation_builds"] == 0
            assert _saturated_answers(reopened) == _saturated_answers(never)
            maintained = entry.evaluator_for(saturated=True).store
            live_saturated = reference.evaluator_for(saturated=True).store
            assert set(maintained.to_graph()) == set(live_saturated.to_graph())
            assert entry.evaluator_for(saturated=True).statistics().as_dict() == recount(maintained)
            assert pack_terms(entry.store.dictionary) == pack_terms(reference.store.dictionary)

            counters = dict(entry.build_counters)
            # one priming serves weak and strong, unless the checkpoint covers both
            assert counters["prime_scans"] <= 1
            assert counters["summary_builds"] == 0
            assert counters["saturation_builds"] == 1


def test_reopen_after_clean_checkpoint_replays_and_builds_nothing(bsbm_small, tmp_path):
    path = str(tmp_path / "catalog.db")
    rows = telemetry.counter("persistence.replay.rows")
    with GraphCatalog.open(path) as catalog:
        catalog.register("g", graph=bsbm_small)
        catalog.add_triples("g", [Triple(EX.a, EX.p, EX.b)])
        catalog.checkpoint()
    before = rows.value
    with GraphCatalog.open(path) as reopened:
        assert rows.value == before and reopened.log_tail_rows("g") == 0
        QueryService(reopened).answer("g", _QUERIES[0])
        assert not any(reopened.entry("g").build_counters.values())


# ----------------------------------------------------------------------
# the append path
# ----------------------------------------------------------------------
def test_append_writes_the_delta_and_touches_no_artifact(bsbm_small, tmp_path, monkeypatch):
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("g", graph=bsbm_small)
        catalog.checkpoint()
        artifacts = _sql(path, "SELECT name, version, payload FROM artifacts ORDER BY name")
        chunks = _sql(path, "SELECT start, count FROM dictionary_chunks ORDER BY start")
        terms = len(entry.store.dictionary)
        assert chunks == [(0, terms)]
        counters = dict(entry.build_counters)

        # the whole dictionary is never walked, the file never counted
        monkeypatch.setattr(Dictionary, "items", lambda self: pytest.fail("walked the dictionary"))
        statements = []
        catalog._persistence._conn().set_trace_callback(statements.append)
        batch = [
            Triple(EX.term("d/s1"), EX.term("d/p"), Literal("one")),
            Triple(EX.term("d/s1"), RDF_TYPE, EX.term("d/C")),
            Triple(EX.term("d/s1"), EX.term("d/p"), Literal("one")),  # in-batch duplicate
        ]
        assert catalog.add_triples("g", batch) == 2
        assert catalog.add_triples("g", batch) == 0  # nothing fresh: nothing logged
        link = Triple(EX.term("d/s1"), EX.term("d/p"), EX.term("d/C"))  # known terms only
        assert catalog.add_triples("g", [link]) == 1
        catalog._persistence._conn().set_trace_callback(None)
        assert not [s for s in statements if "COUNT(" in s or "SUM(" in s or "artifacts" in s]

        assert _sql(path, "SELECT name, version, payload FROM artifacts ORDER BY name") == artifacts
        # one small chunk for the batch that minted terms, none for the one that did not
        assert _sql(path, "SELECT start, count FROM dictionary_chunks ORDER BY start") == [
            (0, terms),
            (terms, len(entry.store.dictionary) - terms),
        ]
        assert _sql(path, "SELECT COUNT(*) FROM graph_triples") == [(3,)]
        assert _sql(path, "SELECT version FROM graphs") == [(2,)]
        assert dict(entry.build_counters) == counters  # no snapshot forced on the ingest path
        assert catalog.log_tail_rows("g") == 3


def test_a_failed_append_forgets_its_counts_and_heals_by_full_rewrite(fig2, tmp_path, monkeypatch):
    path = str(tmp_path / "catalog.db")
    first = Triple(EX.term("wt/a"), EX.term("p1"), EX.term("wt/b"))
    second = Triple(EX.term("wt/c"), EX.term("p1"), EX.term("wt/d"))
    with GraphCatalog.open(path) as catalog:
        catalog.register("g", graph=fig2)
        real = PersistentCatalog._write_term_chunks

        def failing(self, connection, name, dictionary, start):
            real(self, connection, name, dictionary, start)  # rolled back with the rest
            raise sqlite3.OperationalError("disk full (simulated)")

        monkeypatch.setattr(PersistentCatalog, "_write_term_chunks", failing)
        with pytest.raises(PersistenceError, match="disk full"):
            catalog.add_triples("g", [first])
        monkeypatch.setattr(PersistentCatalog, "_write_term_chunks", real)
        assert catalog.entry("g")._persist_dirty and catalog.log_tail_rows("g") is None
        assert _sql(path, "SELECT COUNT(*) FROM graph_triples") == [(0,)]
        catalog.add_triples("g", [second])  # heals: a full rewrite, not an append
        assert catalog.log_tail_rows("g") == 0
    with GraphCatalog.open(path) as reopened:
        assert {first, second} <= set(reopened.entry("g").to_graph())

    # an append that finds no count in memory reads both from the file, once
    with GraphCatalog.open(path) as catalog:
        catalog._persistence._durable.clear()
        catalog.add_triples("g", [Triple(EX.term("wt/e"), EX.term("p1"), EX.term("wt/f"))])
        assert catalog.log_tail_rows("g") == 1
    with GraphCatalog.open(path) as reopened:
        assert len(reopened.entry("g").to_graph()) == len(fig2) + 3


# ----------------------------------------------------------------------
# packed layout
# ----------------------------------------------------------------------
def _planes(column):
    """*column*'s 4-byte ids as byte planes: byte 0 of every id, then byte 1, ..."""
    return b"".join(column[plane::4] for plane in range(4))


def test_columns_are_always_stored_as_the_stores_4_byte_ids(fig2, tmp_path):
    """The checkpoint is ``zlib`` of the byte planes of ``column_bytes`` — the
    very bytes a cluster image lays out — at width 4 whatever the ids, the
    column codec gives those bytes back, and so does a reopened memory
    store."""
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("g", graph=fig2)
        original = {kind.value: entry.store.column_bytes(kind) for kind in TripleKind}
    rows = _sql(path, "SELECT kind, rows, width, byteorder, layout, s, p, o FROM graph_columns")
    assert len(rows) == len(TripleKind)
    for kind_value, count, width, byteorder, layout, *blobs in rows:
        assert width == ID_BYTES == 4 and byteorder == sys.byteorder, kind_value
        assert layout == "planes", kind_value
        assert (count, *(_unpack_column(blob, count) for blob in blobs)) == original[kind_value]
        assert [zlib.decompress(blob) for blob in blobs] == [
            _planes(column) for column in original[kind_value][1:]
        ]
    with GraphCatalog.open(path) as reopened:
        restored = reopened.entry("g").store
        assert {kind.value: restored.column_bytes(kind) for kind in TripleKind} == original


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob[: len(blob) // 2],  # truncated
        lambda blob: blob[:-6] + bytes(6),  # garbled: the checksum fails
        lambda blob: zlib.compress(zlib.decompress(blob)[:-3]),  # inflates to a torn payload
        lambda blob: zlib.compress(zlib.decompress(blob)[:-1]),  # not a whole number of ids
        lambda blob: zlib.compress(zlib.decompress(blob)[:-4]),  # one id short of `rows`
        lambda blob: b"",
    ],
)
@pytest.mark.parametrize(
    "table, column, where",
    [
        ("dictionary_chunks", "terms", "1"),
        ("graph_columns", "s", "kind = 'data'"),
        ("graph_columns", "o", "kind = 'type'"),
    ],
)
def test_damaged_blobs_are_typed_errors(bsbm_small, tmp_path, table, column, where, damage):
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        catalog.register("g", graph=bsbm_small)
    ((blob,),) = _sql(path, f"SELECT {column} FROM {table} WHERE {where}")
    _sql(path, f"UPDATE {table} SET {column} = ? WHERE {where}", (damage(blob),))
    with pytest.raises(PersistenceError, match="unreadable|corrupt"):
        GraphCatalog.open(path)


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("kind", ["data", "type"])
def test_a_row_count_the_planes_disagree_with_is_a_typed_error(bsbm_small, tmp_path, kind, delta):
    """Byte planes are cut at ``rows``: a count that disagrees with the blob
    would re-interleave the wrong bytes into ids, so it is refused."""
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        catalog.register("g", graph=bsbm_small)
    _sql(path, "UPDATE graph_columns SET rows = rows + ? WHERE kind = ?", (delta, kind))
    with pytest.raises(PersistenceError, match="unreadable|corrupt"):
        GraphCatalog.open(path)


def test_a_new_file_is_stamped_schema_5_and_a_newer_one_is_refused_untouched(fig2, tmp_path):
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        catalog.register("g", graph=fig2)
    assert SCHEMA_VERSION == 5
    assert _sql(path, "SELECT value FROM catalog_meta WHERE key = 'schema_version'") == [("5",)]
    _sql(path, "UPDATE catalog_meta SET value = '6' WHERE key = 'schema_version'")
    with open(path, "rb") as handle:
        before = handle.read()
    with pytest.raises(PersistenceError, match="schema version 6"):
        GraphCatalog.open(path)
    with open(path, "rb") as handle:
        assert handle.read() == before


def _older_saturation_payload(store):
    """A ``saturation`` artifact as the schema-4 builds that checkpointed
    ``G∞`` wrote it: the saturator's schema maps and derived-row log."""
    saturator = IncrementalSaturator(store)
    saturator.build()
    base = {kind: set(rows) for kind, rows in _table_rows(store).items()}
    state = {
        key: getattr(saturator, key)
        for key in ("_direct", "_super_classes", "_super_properties", "_domains", "_ranges")
    }
    state.update(
        _schema_ids={k: v for k, v in saturator.vocabulary.items() if k != "type"},
        _type_id=saturator.vocabulary.get("type"),
        _derived=[
            (kind.value, *row)
            for kind, rows in _table_rows(saturator.target).items()
            for row in rows
            if row not in base[kind]
        ],
    )
    return zlib.compress(pickle.dumps(state, protocol=4), 1)


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob,
        lambda blob: blob[: len(blob) // 2],  # truncated
        lambda blob: blob[:-6] + bytes(6),  # garbled: the checksum fails
        lambda blob: b"",
    ],
    ids=["well-formed", "truncated", "garbled", "empty"],
)
def test_a_saturation_row_an_older_build_left_is_never_decoded(
    bsbm_small, tmp_path, recount, damage
):
    """Everything ``G∞`` is can be recomputed from the rows, so no state of
    it in the file — intact or torn — can keep the catalog from opening."""
    path = str(tmp_path / "catalog.db")
    query = parse_query(f"SELECT ?x ?c WHERE {{ ?x <{RDF_TYPE.value}> ?c . }}")
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("g", graph=bsbm_small)
        payload = _older_saturation_payload(entry.store)
    ((version,),) = _sql(path, "SELECT DISTINCT version FROM artifacts")
    _sql(path, "INSERT INTO artifacts VALUES ('g', 'saturation', ?, ?)", (version, damage(payload)))

    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        assert entry.saturation_metrics() is None
        service = QueryService(catalog, kind="weak")
        answers = service.answer("g", query, saturated=True).answers
        assert service.answer("g", query, saturated=True).answers == answers
        typings = {(t.subject, t.object) for t in saturate(entry.to_graph()) if t.predicate == RDF_TYPE}
        assert answers == typings
        assert entry.build_counters["saturation_builds"] == 1
        maintained = entry.evaluator_for(saturated=True).store
        assert set(maintained.to_graph()) == set(saturate(entry.to_graph()))
        assert entry.evaluator_for(saturated=True).statistics().as_dict() == recount(maintained)
        catalog.checkpoint()
    assert _sql(path, "SELECT name FROM artifacts WHERE name = 'saturation'") == []


def test_a_gap_between_term_chunks_is_a_typed_error(fig2, tmp_path):
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        catalog.register("g", graph=fig2)
        catalog.add_triples("g", [Triple(EX.term("gap/a"), EX.term("gap/p"), EX.term("gap/b"))])
    _sql(path, "UPDATE dictionary_chunks SET start = start + 1 WHERE start > 0")
    with pytest.raises(PersistenceError, match="not dense"):
        GraphCatalog.open(path)


def test_a_log_row_of_unknown_kind_is_a_typed_error_and_closes_its_store(fig2, tmp_path):
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        catalog.register("g", graph=fig2)
        catalog.add_triples("g", [Triple(EX.term("log/a"), EX.term("log/p"), EX.term("log/b"))])
    _sql(path, "UPDATE graph_triples SET kind = 'bogus'")
    stores = []

    def store_factory():
        stores.append(MemoryStore())
        return stores[-1]

    with PersistentCatalog(path) as persistence:
        with pytest.raises(PersistenceError, match="unreadable .*'bogus'"):
            persistence.load_graph("g", store_factory)
    (store,) = stores
    with pytest.raises(StoreClosedError):
        store.count(TripleKind.DATA)


# ----------------------------------------------------------------------
# files of the older schemas
# ----------------------------------------------------------------------
#: The DDL schema 4 shipped with, comments and all: id columns row-major.
_SCHEMA_4_SQL = """
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
    terms BLOB NOT NULL,                -- zlib(pickle([(kind, value, datatype, language)]))
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
    graph     TEXT NOT NULL,            -- the checkpoint's rows: one zlib'd
    kind      TEXT NOT NULL,            --   packed int array per column
    rows      INTEGER NOT NULL,
    byteorder TEXT NOT NULL,            -- 'little' | 'big' (the writer's native)
    s BLOB NOT NULL,
    p BLOB NOT NULL,
    o BLOB NOT NULL,
    width INTEGER NOT NULL DEFAULT 8,   -- bytes per id in s / p / o
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

#: The DDL schema 2 shipped with (schema 1: the same without graph_columns).
_SCHEMA_2_SQL = """
CREATE TABLE catalog_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE graphs (name TEXT PRIMARY KEY, version INTEGER NOT NULL);
CREATE TABLE dictionary_terms (
    graph TEXT NOT NULL, id INTEGER NOT NULL, kind TEXT NOT NULL, value TEXT NOT NULL,
    datatype TEXT, language TEXT, PRIMARY KEY (graph, id)
);
CREATE TABLE graph_triples (
    graph TEXT NOT NULL, kind TEXT NOT NULL,
    s INTEGER NOT NULL, p INTEGER NOT NULL, o INTEGER NOT NULL
);
CREATE INDEX idx_graph_triples_graph ON graph_triples(graph);
CREATE TABLE graph_columns (
    graph TEXT NOT NULL, kind TEXT NOT NULL, rows INTEGER NOT NULL, byteorder TEXT NOT NULL,
    s BLOB NOT NULL, p BLOB NOT NULL, o BLOB NOT NULL, PRIMARY KEY (graph, kind)
);
CREATE TABLE artifacts (
    graph TEXT NOT NULL, name TEXT NOT NULL, version INTEGER NOT NULL, payload BLOB NOT NULL,
    PRIMARY KEY (graph, name)
);
CREATE TABLE saturation_rows (
    graph TEXT NOT NULL, kind TEXT NOT NULL,
    s INTEGER NOT NULL, p INTEGER NOT NULL, o INTEGER NOT NULL
);
CREATE INDEX idx_saturation_rows_graph ON saturation_rows(graph);
"""


#: The byte order of a machine other than this one.
_FOREIGN = "big" if sys.byteorder == "little" else "little"


def _write_old_file(path, graph, schema, tail=7, byteorder=sys.byteorder, width=8):
    """A file as a schema-*schema* build left it: entry version 5, the last
    *tail* data rows appended behind the snapshot, artifacts nobody should
    decode.  Schema 2 stores raw 8-byte id columns; schemas 3 and 4 are the
    packed layout of a build that stored them row-major at *width* (8:
    ``zlib`` of int64s), under the DDL schema 4 shipped.  The columns are
    written in *byteorder*."""
    with MemoryStore() as store:
        store.load_graph(graph)
        tables = _table_rows(store)
        terms = pack_terms(store.dictionary)
    connection = sqlite3.connect(path)
    with connection:
        if schema >= 3:
            connection.executescript(_SCHEMA_4_SQL)
            connection.execute(
                "INSERT INTO dictionary_chunks VALUES ('g', 0, ?, ?)",
                (len(terms), zlib.compress(pickle.dumps(terms, protocol=4))),
            )
        else:
            ddl = _SCHEMA_2_SQL
            if schema == 1:
                columns_ddl = ddl.index("CREATE TABLE graph_columns")
                ddl = ddl[:columns_ddl] + ddl[ddl.index("CREATE TABLE artifacts") :]
            connection.executescript(ddl)
            connection.executemany(
                "INSERT INTO dictionary_terms VALUES ('g', ?, ?, ?, ?, ?)",
                [(identifier, *term) for identifier, term in enumerate(terms)],
            )
            connection.execute("INSERT INTO saturation_rows VALUES ('g', 'type', 1, 2, 3)")
        connection.execute("INSERT INTO catalog_meta VALUES ('schema_version', ?)", (str(schema),))
        connection.execute("INSERT INTO graphs VALUES ('g', 5)")
        logged = [(kind, row) for kind, rows in tables.items() for row in rows]
        if schema >= 2:
            cut = len(tables[TripleKind.DATA]) - tail
            logged = [(TripleKind.DATA, row) for row in tables[TripleKind.DATA][cut:]]
            tables[TripleKind.DATA] = tables[TripleKind.DATA][:cut]
            typecode = {8: "q", 4: "i"}[width]
            for kind, rows in tables.items():
                columns = [array(typecode, column) for column in zip(*rows)]
                columns = columns or [array(typecode) for _column in "spo"]
                if byteorder != sys.byteorder:
                    for column in columns:
                        column.byteswap()
                blobs = [column.tobytes() for column in columns]
                if schema >= 3:
                    connection.execute(
                        "INSERT INTO graph_columns (graph, kind, rows, byteorder, width, s, p, o) "
                        "VALUES ('g', ?, ?, ?, ?, ?, ?, ?)",
                        (kind.value, len(rows), byteorder, width, *map(zlib.compress, blobs)),
                    )
                else:
                    connection.execute(
                        "INSERT INTO graph_columns VALUES ('g', ?, ?, ?, ?, ?, ?)",
                        (kind.value, len(rows), byteorder, *blobs),
                    )
        connection.executemany(
            "INSERT INTO graph_triples VALUES ('g', ?, ?, ?, ?)",
            [(kind.value, *row) for kind, row in logged],
        )
        for name in ("maintainer", "statistics", "summary:weak", "saturation"):
            connection.execute(
                "INSERT INTO artifacts VALUES ('g', ?, 5, ?)",
                (name, pickle.dumps({"layout": "of another build"}, protocol=4)),
            )
    connection.close()


def _stamp_schema_5(path):
    """Open *path* as the last build that still read the older layouts did:
    this schema's DDL, the additive ``width`` / ``layout`` columns and the
    version stamp, every row left in its old layout until the graph's first
    durable write."""
    connection = sqlite3.connect(path)
    with connection:
        connection.executescript(_SCHEMA_SQL)
        present = {row[1] for row in connection.execute("PRAGMA table_info(graph_columns)")}
        for column in ("width INTEGER NOT NULL DEFAULT 8", "layout TEXT NOT NULL DEFAULT 'rows'"):
            if column.split()[0] not in present:
                connection.execute(f"ALTER TABLE graph_columns ADD COLUMN {column}")
        connection.execute("INSERT OR REPLACE INTO catalog_meta VALUES ('schema_version', '5')")
    connection.close()


def _file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("schema", [1, 2, 3, 4])
def test_an_older_file_is_refused_untouched(fig2, tmp_path, schema):
    """A file of an older schema is refused before anything is written to
    it, and the error names the upgrade: the last build that reads it."""
    path = str(tmp_path / "old.db")
    _write_old_file(path, fig2, schema, tail=2)
    before = _file_bytes(path)
    with pytest.raises(PersistenceError, match=f"schema version {schema}, .*acca3ad"):
        GraphCatalog.open(path)
    assert _file_bytes(path) == before


@pytest.mark.parametrize(
    "schema, width",
    [(1, 8), (2, 8), (4, 8), (4, 4)],
    ids=["dictionary-terms", "raw-width-8", "width-8", "row-major"],
)
def test_a_file_stamped_5_over_an_older_layout_is_refused_untouched(
    fig2, tmp_path, schema, width
):
    """A schema-5 stamp does not prove a schema-5 layout: the last build that
    read older files stamped them on open and left each graph per-term,
    raw, at width 8 or row-major until its first durable write.  Such a file
    is refused untouched, naming the upgrade."""
    path = str(tmp_path / "stamped.db")
    _write_old_file(path, fig2, schema, tail=2, width=width)
    _stamp_schema_5(path)
    before = _file_bytes(path)
    with pytest.raises(PersistenceError, match="older layout: .*acca3ad"):
        GraphCatalog.open(path)
    assert _file_bytes(path) == before


def test_columns_in_the_other_byte_order_read_back_and_are_rewritten_native(fig2, tmp_path):
    """Byte planes a machine of the other byte order wrote reopen to the very
    column bytes of the graph — and with no row logged, the next checkpoint
    still rewrites them as planes in this machine's order."""
    path = str(tmp_path / "foreign.db")
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("g", graph=fig2)
        original = {kind.value: entry.store.column_bytes(kind) for kind in TripleKind}
    for kind_value, (count, *columns) in original.items():
        swapped = []
        for column in columns:
            ids = array("I", column)
            ids.byteswap()
            swapped.append(zlib.compress(_planes(ids.tobytes())))
        _sql(
            path,
            "UPDATE graph_columns SET byteorder = ?, s = ?, p = ?, o = ? WHERE kind = ?",
            (_FOREIGN, *swapped, kind_value),
        )
    with GraphCatalog.open(path) as catalog:
        restored = catalog.entry("g").store
        assert {kind.value: restored.column_bytes(kind) for kind in TripleKind} == original
        catalog.checkpoint()
    rows = _sql(path, "SELECT kind, rows, width, byteorder, layout, s, p, o FROM graph_columns")
    assert {tuple(row[2:5]) for row in rows} == {(ID_BYTES, sys.byteorder, "planes")}
    for kind_value, count, _width, _byteorder, _layout, *blobs in rows:
        assert (count, *(_unpack_column(blob, count) for blob in blobs)) == original[kind_value]


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_the_tail_and_its_replay_are_visible_from_outside(fig2, tmp_path):
    path = str(tmp_path / "catalog.db")
    replayed = telemetry.counter("persistence.replay.rows")
    seconds = telemetry.histogram("persistence.replay.seconds")
    batch = "".join(
        f"<http://t.example/s{i}> <http://t.example/p> <http://t.example/o> .\n" for i in range(3)
    )

    def tail_of(app):
        status, payload = app.dispatch("GET", "/graphs/fig2/statistics", None)
        assert status == 200
        _status, text = app.metrics()
        gauge = "repro_persistence_tail_rows_fig2 "
        (line,) = [line for line in text.splitlines() if line.startswith(gauge)]
        assert int(line.split()[1]) == payload["log_tail_rows"]
        return payload["log_tail_rows"]

    with GraphCatalog.open(path) as catalog:
        catalog.register("fig2", graph=fig2)
        app = ServerApp(catalog, kind="weak")
        try:
            assert tail_of(app) == 0
            assert app.dispatch("POST", "/graphs/fig2/triples", {"triples": batch})[0] == 200
            assert tail_of(app) == 3
        finally:
            app.close()
    rows_before, replays_before = replayed.value, seconds.count
    with GraphCatalog.open(path) as catalog:
        assert replayed.value == rows_before + 3 and seconds.count == replays_before + 1
        app = ServerApp(catalog, kind="weak")
        try:
            assert tail_of(app) == 3  # still un-checkpointed: the next reopen replays it again
            catalog.checkpoint()
            assert tail_of(app) == 0
            _status, text = app.metrics()
            assert "repro_persistence_replay_rows_total" in text
            assert "repro_persistence_replay_seconds_count" in text
        finally:
            app.close()
        catalog.drop("fig2")
        assert "persistence.tail.rows.fig2" not in telemetry.REGISTRY
    with GraphCatalog() as memory:
        memory.register("fig2", graph=fig2)
        assert memory.log_tail_rows("fig2") is None
