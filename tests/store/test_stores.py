"""Tests for the MemoryStore and SQLiteStore backends (shared contract)."""

from operator import itemgetter

import pytest

from repro.errors import StoreClosedError, StoreError
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE, RDFS_SUBCLASSOF
from repro.model.terms import Literal, term_sort_key
from repro.model.triple import Triple, TripleKind
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore


BACKENDS = [MemoryStore, SQLiteStore]


def _sample_graph():
    return RDFGraph(
        [
            Triple(EX.r1, EX.author, EX.a1),
            Triple(EX.r1, EX.title, Literal("t1")),
            Triple(EX.r2, EX.title, Literal("t2")),
            Triple(EX.r1, RDF_TYPE, EX.Book),
            Triple(EX.Book, RDFS_SUBCLASSOF, EX.Publication),
        ]
    )


@pytest.fixture(params=BACKENDS, ids=["memory", "sqlite"])
def store(request):
    instance = request.param()
    yield instance
    instance.close()


class TestLoading:
    def test_load_graph_counts_triples(self, store):
        assert store.load_graph(_sample_graph()) == 5

    def test_rows_split_into_tables(self, store):
        store.load_graph(_sample_graph())
        assert store.count(TripleKind.DATA) == 3
        assert store.count(TripleKind.TYPE) == 1
        assert store.count(TripleKind.SCHEMA) == 1

    def test_load_triples_iterable(self, store):
        store.load_triples([Triple(EX.a, EX.p, EX.b)])
        assert store.count(TripleKind.DATA) == 1

    def test_statistics(self, store):
        store.load_graph(_sample_graph())
        statistics = store.statistics()
        assert statistics.total_rows == 5
        assert statistics.dictionary_size == len(store.dictionary)


class TestScansAndSelects:
    def test_scan_data_roundtrip(self, store):
        graph = _sample_graph()
        store.load_graph(graph)
        decoded = {store.decode_triple(row) for row in store.scan_data()}
        assert decoded == set(graph.data_triples)

    def test_scan_types_and_schema(self, store):
        graph = _sample_graph()
        store.load_graph(graph)
        assert {store.decode_triple(r) for r in store.scan_types()} == set(graph.type_triples)
        assert {store.decode_triple(r) for r in store.scan_schema()} == set(graph.schema_triples)

    def test_select_by_subject(self, store):
        store.load_graph(_sample_graph())
        subject_id = store.dictionary.encode_existing(EX.r1)
        rows = list(store.select(TripleKind.DATA, subject=subject_id))
        assert len(rows) == 2

    def test_select_by_predicate(self, store):
        store.load_graph(_sample_graph())
        predicate_id = store.dictionary.encode_existing(EX.title)
        rows = list(store.select(TripleKind.DATA, predicate=predicate_id))
        assert len(rows) == 2

    def test_select_combined(self, store):
        store.load_graph(_sample_graph())
        subject_id = store.dictionary.encode_existing(EX.r1)
        predicate_id = store.dictionary.encode_existing(EX.title)
        rows = list(store.select(TripleKind.DATA, subject=subject_id, predicate=predicate_id))
        assert len(rows) == 1

    def test_distinct_properties(self, store):
        store.load_graph(_sample_graph())
        properties = {
            store.decode_term(identifier)
            for identifier in store.distinct_properties(TripleKind.DATA)
        }
        assert properties == {EX.author, EX.title}

    def test_to_graph_roundtrip(self, store):
        graph = _sample_graph()
        store.load_graph(graph)
        assert set(store.to_graph()) == set(graph)


class TestLifecycle:
    def test_context_manager_closes(self):
        with MemoryStore() as store:
            store.load_graph(_sample_graph())
        with pytest.raises(StoreClosedError):
            list(store.scan_data())

    def test_sqlite_closed_raises(self):
        store = SQLiteStore()
        store.close()
        with pytest.raises(StoreClosedError):
            store.count(TripleKind.DATA)

    def test_memory_duplicate_rows_deduplicated(self):
        store = MemoryStore()
        graph = _sample_graph()
        store.load_graph(graph)
        store.load_graph(graph)
        assert store.count(TripleKind.DATA) == 3

    def test_sqlite_file_backend(self, tmp_path):
        path = tmp_path / "triples.db"
        store = SQLiteStore(path=str(path))
        store.load_graph(_sample_graph())
        store.persist_dictionary()
        store.close()
        assert path.exists()

    def test_sqlite_invalid_batch_size(self):
        with pytest.raises(StoreError):
            SQLiteStore(batch_size=0)

    def test_sqlite_persist_dictionary_is_idempotent(self):
        store = SQLiteStore()
        store.load_graph(_sample_graph())
        first = store.persist_dictionary()
        second = store.persist_dictionary()
        assert first == second


class TestBatchedInsertion:
    """insert_triples: the batched encode+insert path shared by the catalog."""

    def test_returns_rows_in_stored_order(self, fig2):
        triples = sorted(fig2)
        store = MemoryStore()
        rows = store.insert_triples(triples)
        assert len(rows) == len(triples)
        encoded = [row for _kind, row in rows]
        assert encoded == sorted(encoded, key=itemgetter(1, 2, 0))
        assert {store.decode_triple(row) for row in encoded} == set(triples)
        for kind, row in rows:
            assert kind is store.decode_triple(row).kind
        for kind in TripleKind:
            stored = [tuple(row) for batch in store.scan_batches(kind) for row in batch]
            assert stored == [tuple(row) for row_kind, row in rows if row_kind is kind]

    def test_load_graph_delegates_to_batch_path(self, fig2):
        direct = MemoryStore()
        direct.load_graph(fig2)
        batched = MemoryStore()
        batched.insert_triples(sorted(fig2))
        assert direct.statistics().total_rows == batched.statistics().total_rows

    def test_encode_triples_matches_encode_triple(self, fig2):
        from repro.model.dictionary import Dictionary

        triples = sorted(fig2)
        one = Dictionary()
        rows_single = [one.encode_triple(triple) for triple in triples]
        many = Dictionary()
        rows_batch = many.encode_triples(triples)
        assert list(map(one.decode_triple, rows_single)) == list(map(many.decode_triple, rows_batch))
        # a batch numbers its new terms in term order, not first-seen order
        assert list(many.decode_table) == sorted(many.decode_table, key=term_sort_key)
        assert list(one.decode_table) != list(many.decode_table)

    def test_incremental_inserts_share_dictionary_ids(self, fig2):
        triples = sorted(fig2)
        store = SQLiteStore()
        store.insert_triples(triples[: len(triples) // 2])
        before = len(store.dictionary)
        store.insert_triples(triples[len(triples) // 2 :])
        assert len(store.dictionary) >= before
        assert store.count(TripleKind.DATA) == len(fig2.data_triples)


class TestSelectShapesAndPostingLists:
    """Every bound select shape routes through an index (satellite bugfix)
    and iterates rows deterministically in insertion order."""

    def _loaded(self, store_class):
        store = store_class()
        triples = [
            Triple(EX.a, EX.p, EX.b),
            Triple(EX.a, EX.p, EX.c),
            Triple(EX.b, EX.p, EX.b),
            Triple(EX.a, EX.q, EX.b),
            Triple(EX.b, EX.q, EX.c),
        ]
        store.load_triples(triples)
        ids = {name: store.dictionary.encode_existing(getattr(EX, name)) for name in "abcpq"}
        return store, ids

    @pytest.mark.parametrize("store_class", [MemoryStore, SQLiteStore])
    def test_every_shape_filters_correctly(self, store_class):
        store, ids = self._loaded(store_class)
        rows = lambda **kw: {tuple(r) for r in store.select(TripleKind.DATA, **kw)}
        a, b, c, p, q = (ids[k] for k in "abcpq")
        assert rows(predicate=p) == {(a, p, b), (a, p, c), (b, p, b)}
        assert rows(subject=a, predicate=p) == {(a, p, b), (a, p, c)}
        assert rows(predicate=p, obj=b) == {(a, p, b), (b, p, b)}
        assert rows(subject=a, obj=b) == {(a, p, b), (a, q, b)}
        assert rows(subject=a, predicate=q, obj=b) == {(a, q, b)}
        assert rows(subject=a, predicate=p, obj=c) == {(a, p, c)}
        assert rows() == {(a, p, b), (a, p, c), (b, p, b), (a, q, b), (b, q, c)}
        store.close()

    def test_memory_select_is_insertion_ordered_per_shape(self):
        store, ids = self._loaded(MemoryStore)
        a, b, p = ids["a"], ids["b"], ids["p"]
        shapes = [
            dict(predicate=p),
            dict(subject=a),
            dict(obj=b),
            dict(subject=a, predicate=p),
            dict(predicate=p, obj=b),
            dict(subject=a, obj=b),
        ]
        for shape in shapes:
            listed = [tuple(r) for r in store.select(TripleKind.DATA, **shape)]
            assert listed == sorted(listed, key=lambda r: store._tables[TripleKind.DATA].rows.index(r))
            # repeated iteration yields the identical order
            assert listed == [tuple(r) for r in store.select(TripleKind.DATA, **shape)]

    def test_memory_bound_shapes_never_scan(self):
        """Bound shapes must touch only posting-list candidates."""
        store, ids = self._loaded(MemoryStore)
        table = store._tables[TripleKind.DATA]
        a, p, b = ids["a"], ids["p"], ids["b"]
        assert table._candidate_positions(None, p, None) is not None
        assert table._candidate_positions(a, p, None) is not None
        assert table._candidate_positions(None, p, b) is not None
        assert table._candidate_positions(a, None, b) is not None
        assert table._candidate_positions(a, None, None) is not None
        assert table._candidate_positions(None, None, b) is not None
        # composite lists are exact: no post-filter survivors dropped
        assert len(list(store.select(TripleKind.DATA, subject=a, predicate=p))) == 2
        # only the fully unbound shape scans
        assert table._candidate_positions(None, None, None) is None

    @pytest.mark.parametrize("store_class", [MemoryStore, SQLiteStore])
    def test_select_many_matches_per_value_selects(self, store_class):
        store, ids = self._loaded(store_class)
        a, b, c, p, q = (ids[k] for k in "abcpq")
        batched = {tuple(r) for r in store.select_many(TripleKind.DATA, subjects=[a, b], predicate=p)}
        single = {
            tuple(r)
            for s in (a, b)
            for r in store.select(TripleKind.DATA, subject=s, predicate=p)
        }
        assert batched == single
        by_objects = {tuple(r) for r in store.select_many(TripleKind.DATA, predicate=q, objects=[b, c])}
        assert by_objects == {(a, q, b), (b, q, c)}
        both = {
            tuple(r)
            for r in store.select_many(TripleKind.DATA, subjects=[a], predicate=p, objects=[b, c])
        }
        assert both == {(a, p, b), (a, p, c)}
        no_constraint = {tuple(r) for r in store.select_many(TripleKind.DATA, predicate=p)}
        assert no_constraint == {(a, p, b), (a, p, c), (b, p, b)}
        store.close()

    def test_sqlite_select_many_chunks_large_batches(self):
        store = SQLiteStore()
        triples = [Triple(EX.term(f"s{i}"), EX.p, EX.term(f"o{i}")) for i in range(1200)]
        store.load_triples(triples)
        p = store.dictionary.encode_existing(EX.p)
        subjects = [store.dictionary.encode_existing(EX.term(f"s{i}")) for i in range(1200)]
        rows = store.select_many(TripleKind.DATA, subjects=subjects, predicate=p)
        assert len(rows) == 1200
        store.close()
