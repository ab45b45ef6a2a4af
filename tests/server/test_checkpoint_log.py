"""The catalog file as a checkpoint plus a row log.

A reopened catalog is its checkpoint refined by the rows logged since.  These
tests pin that the refinement reproduces the never-restarted state exactly
(a generated crash-recovery differential), that the append path is delta-sized
and forces no build, that files of the older schemas open by their rows alone
and are rewritten, that damaged blobs surface typed, and that the length of
the un-checkpointed tail is visible from outside.
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
from repro.errors import PersistenceError
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
from repro.server.persistence import _SCHEMA_SQL, SCHEMA_VERSION, PersistentCatalog
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.service.workload import generate_mixed_workload
from repro.store.base import ID_BYTES
from repro.store.memory import MemoryStore

from oracles.term_partitions import term_summary


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
        QueryService(reopened, kind="weak").answer("g", _QUERIES[0])
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
def test_columns_are_always_stored_as_the_stores_4_byte_ids(fig2, tmp_path):
    """The checkpoint is ``zlib`` of ``column_bytes`` — the very bytes a
    cluster image lays out — at width 4 whatever the ids, and a reopened
    memory store hands the same bytes back."""
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("g", graph=fig2)
        original = {kind.value: entry.store.column_bytes(kind) for kind in TripleKind}
    rows = _sql(path, "SELECT kind, rows, width, byteorder, s, p, o FROM graph_columns")
    assert len(rows) == len(TripleKind)
    for kind_value, count, width, byteorder, *blobs in rows:
        assert width == ID_BYTES == 4 and byteorder == sys.byteorder, kind_value
        assert (count, *map(zlib.decompress, blobs)) == original[kind_value]
        assert all(len(zlib.decompress(blob)) == 4 * count for blob in blobs)
    with GraphCatalog.open(path) as reopened:
        restored = reopened.entry("g").store
        assert {kind.value: restored.column_bytes(kind) for kind in TripleKind} == original


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob[: len(blob) // 2],  # truncated
        lambda blob: blob[:-6] + bytes(6),  # garbled: the checksum fails
        lambda blob: zlib.compress(zlib.decompress(blob)[:-3]),  # inflates to a torn payload
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


# ----------------------------------------------------------------------
# files of the older schemas
# ----------------------------------------------------------------------
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


def _write_old_file(path, graph, schema, tail=7, top=None, byteorder=sys.byteorder, width=8):
    """A file as a schema-*schema* build left it: version 5, the last *tail*
    data rows appended behind the snapshot, artifacts nobody should decode.
    Schema 2 stores raw 8-byte id columns; schema 4 is the packed layout of
    a build that stored them at *width* (8: ``zlib`` of int64s).  The
    columns are written in *byteorder*, and a *top* id replaces the first
    data row's object in them."""
    with MemoryStore() as store:
        store.load_graph(graph)
        tables = _table_rows(store)
        terms = pack_terms(store.dictionary)
    connection = sqlite3.connect(path)
    with connection:
        if schema == 4:
            connection.executescript(_SCHEMA_SQL)
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
                if top is not None and kind is TripleKind.DATA:
                    columns[2][0] = top
                if byteorder != sys.byteorder:
                    for column in columns:
                        column.byteswap()
                blobs = [column.tobytes() for column in columns]
                if schema == 4:
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


@pytest.mark.parametrize("schema", [1, 2, 4])
def test_an_older_file_opens_by_its_rows_and_is_rewritten(bsbm_small, tmp_path, schema):
    """Schemas 1 and 2 open by their rows alone; a schema-4 file whose
    columns an older build stored at width 8 is narrowed on read.  Either
    way the first checkpoint rewrites the graph at width 4."""
    path = str(tmp_path / "old.db")
    _write_old_file(path, bsbm_small, schema)
    workload = generate_mixed_workload(bsbm_small, count=30, seed=2)
    with GraphCatalog() as scratch:
        scratch.register("g", graph=bsbm_small)
        oracle = QueryService(scratch, strategy="hash", prune=False)
        expected = [set(oracle.answer("g", item.query).answers) for item in workload]

    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        assert entry.version == 5 and set(entry.to_graph()) == set(bsbm_small)
        service = QueryService(catalog, kind="weak+strong", strategy="hash")
        answers = [service.answer("g", item.query) for item in workload]
        assert [set(answer.answers) for answer in answers] == expected
        assert any(answer.pruned for answer in answers)
        # both summaries rebuilt from the rows, by the one priming scan
        assert entry.build_counters == {
            "prime_scans": 1,
            "summary_builds": 0,
            "saturation_builds": 0,
        }
        # opened, not yet written: the old rows are still what the file holds
        if schema == 4:
            assert _sql(path, "SELECT DISTINCT width FROM graph_columns") == [(8,)]
        else:
            assert _sql(path, "SELECT COUNT(*) FROM dictionary_chunks") == [(0,)]
        catalog.checkpoint()
        assert catalog.log_tail_rows("g") == 0

    assert _sql(path, "SELECT value FROM catalog_meta WHERE key = 'schema_version'") == [
        (str(SCHEMA_VERSION),)
    ]
    legacy_tables = ("dictionary_terms", "saturation_rows") if schema < 4 else ()
    for table in ("graph_triples",) + legacy_tables:
        assert _sql(path, f"SELECT COUNT(*) FROM {table}") == [(0,)], table
    assert _sql(path, "SELECT DISTINCT width FROM graph_columns") == [(4,)]
    assert _sql(path, "SELECT COUNT(*) FROM dictionary_chunks") == [(1,)]
    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        service = QueryService(catalog, kind="weak+strong", strategy="hash")
        assert [set(service.answer("g", item.query).answers) for item in workload] == expected
        assert not any(entry.build_counters.values())


@pytest.mark.parametrize("schema", [2, 4])
def test_an_old_wide_id_that_does_not_fit_is_a_typed_error(fig2, tmp_path, schema):
    path = str(tmp_path / "old.db")
    _write_old_file(path, fig2, schema, tail=2, top=1 << 31)
    with pytest.raises(PersistenceError, match="past the 4-byte id range"):
        GraphCatalog.open(path)
    # the largest id that fits narrows like any other (here: to a dangling id)
    _write_old_file(str(tmp_path / "fits.db"), fig2, schema, tail=2, top=(1 << 31) - 1)
    with GraphCatalog.open(str(tmp_path / "fits.db")) as catalog:
        table = catalog.entry("g").store._tables[TripleKind.DATA]
        assert table.o_col[0] == (1 << 31) - 1


@pytest.mark.parametrize("schema, width", [(2, 8), (4, 8), (4, 4)])
def test_columns_in_the_other_byte_order_read_back_and_are_rewritten_native(
    fig2, tmp_path, schema, width
):
    """Raw schema-2 columns, a width-8 and a width-4 checkpoint, each written
    by a machine of the other byte order, reopen to the very column bytes
    of the graph — and with no row logged, the next checkpoint still
    rewrites them at width 4 in this machine's order."""
    path = str(tmp_path / "foreign.db")
    _write_old_file(path, fig2, schema, tail=0, byteorder=_FOREIGN, width=width)
    with MemoryStore() as store:
        store.load_graph(fig2)
        original = {kind.value: store.column_bytes(kind) for kind in TripleKind}
    with GraphCatalog.open(path) as catalog:
        restored = catalog.entry("g").store
        assert {kind.value: restored.column_bytes(kind) for kind in TripleKind} == original
        catalog.checkpoint()
    rows = _sql(path, "SELECT kind, rows, width, byteorder, s, p, o FROM graph_columns")
    assert {(width, byteorder) for _kind, _rows, width, byteorder, *_blobs in rows} == {
        (ID_BYTES, sys.byteorder)
    }
    for kind_value, count, _width, _byteorder, *blobs in rows:
        assert (count, *map(zlib.decompress, blobs)) == original[kind_value]


def test_an_older_file_is_rewritten_by_its_first_ingest(fig2, tmp_path):
    path = str(tmp_path / "old.db")
    _write_old_file(path, fig2, 2, tail=2)
    fresh = Triple(EX.term("up/a"), EX.term("up/p"), EX.term("up/b"))
    with GraphCatalog.open(path) as catalog:
        catalog.add_triples("g", [fresh])  # the write-through is a full rewrite
        assert catalog.log_tail_rows("g") == 0
        assert _sql(path, "SELECT COUNT(*) FROM dictionary_terms") == [(0,)]
        catalog.add_triples("g", [Triple(EX.term("up/c"), EX.term("up/p"), EX.term("up/b"))])
        assert catalog.log_tail_rows("g") == 1  # and from then on the log
    with GraphCatalog.open(path) as reopened:
        entry = reopened.entry("g")
        assert entry.version == 7 and len(entry.to_graph()) == len(fig2) + 2
        assert entry.build_counters["prime_scans"] == 0


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


def test_a_schema_3_file_opens_and_sheds_its_maintainer_row(bsbm_small, tmp_path):
    """A file as the last schema-3 build left it — a ``maintainer`` artifact
    beside the summaries, ``statistics`` / ``saturation_statistics`` rows
    from before those became derived state: none of them is decoded, the
    answers and prunings are the checkpointing process's own, nothing is
    built, and the next checkpoint leaves no such row behind."""
    path = str(tmp_path / "catalog.db")
    promoted = EX.term("typed-only")
    graph = RDFGraph(list(bsbm_small) + [Triple(promoted, RDF_TYPE, EX.term("Lonely"))])
    workload = generate_mixed_workload(bsbm_small, count=30, seed=2)
    saturated = parse_query(f"SELECT ?x WHERE {{ ?x <{RDF_TYPE.value}> <{EX.term('Lonely').value}> . }}")
    with GraphCatalog.open(path) as catalog:
        catalog.register("g", graph=graph)
        service = QueryService(catalog, kind="weak+strong", strategy="hash")
        expected = [service.answer("g", item.query) for item in workload]
        assert any(answer.pruned for answer in expected)
        service.answer("g", saturated, saturated=True)
        catalog.checkpoint()
        shared = catalog.entry("g").summary("weak").representative(promoted)

    ((version,),) = _sql(path, "SELECT DISTINCT version FROM artifacts")
    for name in ("maintainer", "statistics", "saturation_statistics"):
        _sql(path, "INSERT INTO artifacts VALUES ('g', ?, ?, ?)", (name, version, b"of another build"))
    _sql(path, "UPDATE catalog_meta SET value = '3' WHERE key = 'schema_version'")

    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        service = QueryService(catalog, kind="weak+strong", strategy="hash")
        answers = [service.answer("g", item.query) for item in workload]
        assert [set(answer.answers) for answer in answers] == [
            set(answer.answers) for answer in expected
        ]
        assert [answer.pruned for answer in answers] == [answer.pruned for answer in expected]
        assert set(service.answer("g", saturated, saturated=True).answers) == {(promoted,)}
        assert entry.build_counters == {
            "prime_scans": 0,
            "summary_builds": 0,
            "saturation_builds": 1,
        }
        # maintained from there on: the typed-only node leaves the shared Nτ
        catalog.add_triples("g", [Triple(promoted, EX.term("p-new"), Literal("v"))])
        for kind in ("weak", "strong"):
            oracle = term_summary(entry.to_graph(), kind)
            assert set(entry.summary(kind).graph) == set(oracle.graph)
            assert entry.summary(kind).representative_of == oracle.representative_of
        assert entry.summary("weak").representative(promoted) != shared
        assert entry.build_counters["prime_scans"] == 1
        catalog.checkpoint()

    assert _sql(path, "SELECT value FROM catalog_meta WHERE key = 'schema_version'") == [
        (str(SCHEMA_VERSION),)
    ]
    names = {name for (name,) in _sql(path, "SELECT name FROM artifacts")}
    assert names == {"summary:weak", "summary:strong"}
