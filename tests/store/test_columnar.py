"""Columnar data-plane tests: column scans, index builds, cross-backend contract."""

import pytest

from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.triple import Triple, TripleKind
from repro.store.memory import MemoryStore
from oracles.reference_store import DictReferenceStore
from repro.store.sqlite import SQLiteStore


BACKENDS = [MemoryStore, SQLiteStore]


def _sample_graph():
    return RDFGraph(
        [
            Triple(EX.r1, EX.author, EX.a1),
            Triple(EX.r1, EX.author, EX.a2),
            Triple(EX.r2, EX.author, EX.a1),
            Triple(EX.r1, EX.title, EX.t1),
            Triple(EX.r2, EX.title, EX.t2),
            Triple(EX.a1, EX.wrote, EX.r1),
            Triple(EX.r1, RDF_TYPE, EX.Book),
            Triple(EX.r2, RDF_TYPE, EX.Book),
        ]
    )


@pytest.fixture(params=BACKENDS, ids=["memory", "sqlite"])
def store(request):
    instance = request.param()
    yield instance
    instance.close()


class TestScanColumns:
    def test_columns_match_row_scan(self, store):
        store.load_graph(_sample_graph())
        for kind in (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA):
            rows = [tuple(row) for batch in store.scan_batches(kind) for row in batch]
            columns = [
                (s, p, o)
                for s_arr, p_arr, o_arr in store.scan_columns(kind)
                for s, p, o in zip(s_arr, p_arr, o_arr)
            ]
            assert columns == rows

    def test_batch_size_respected(self, store):
        store.load_graph(_sample_graph())
        batches = list(store.scan_columns(TripleKind.DATA, batch_size=2))
        assert all(len(s) <= 2 for s, _p, _o in batches)
        assert sum(len(s) for s, _p, _o in batches) == store.count(TripleKind.DATA)

    def test_invalid_batch_size_rejected(self, store):
        store.load_graph(_sample_graph())
        with pytest.raises(ValueError):
            list(store.scan_columns(TripleKind.DATA, batch_size=0))


def _posting_run(store, predicate, by_object=False):
    """The memory store's ``(p, s)`` (or ``(p, o)``) run of *predicate*,
    tail folded in, as ``(key, other endpoint)`` pairs in run order."""
    table = store._tables[TripleKind.DATA]
    table._ensure_indexed()
    keys, positions = (table.po_runs if by_object else table.ps_runs)[predicate].merged()
    other = table.s_col if by_object else table.o_col
    return [(key, other[position]) for key, position in zip(keys, positions)]


class TestPostingRuns:
    def test_ps_run_is_sorted_and_complete(self):
        with MemoryStore() as store:
            store.load_graph(_sample_graph())
            author = store.dictionary.encode_existing(EX.author)
            pairs = _posting_run(store, author)
            assert [key for key, _ in pairs] == sorted(key for key, _ in pairs)
            expected = sorted(
                (row[0], row[2]) for row in store.select(TripleKind.DATA, predicate=author)
            )
            assert sorted(pairs) == expected

    def test_object_run_keys_on_object(self):
        with MemoryStore() as store:
            store.load_graph(_sample_graph())
            author = store.dictionary.encode_existing(EX.author)
            pairs = _posting_run(store, author, by_object=True)
            objects = sorted(row[2] for row in store.select(TripleKind.DATA, predicate=author))
            assert [key for key, _ in pairs] == objects

    def test_unknown_predicate_selects_nothing(self, store):
        store.load_graph(_sample_graph())
        assert list(store.select(TripleKind.DATA, predicate=10_000)) == []
        assert list(store.select_many(TripleKind.DATA, subjects=[0, 1], predicate=10_000)) == []

    def test_an_insert_reaches_both_runs(self):
        with MemoryStore() as store:
            store.load_graph(_sample_graph())
            author = store.dictionary.encode_existing(EX.author)
            before = set(_posting_run(store, author))
            before_dual = set(_posting_run(store, author, by_object=True))
            assert store.load_triples([Triple(EX.r3, EX.author, EX.a2)]) == 1
            r3 = store.dictionary.encode_existing(EX.r3)
            a2 = store.dictionary.encode_existing(EX.a2)
            assert set(_posting_run(store, author)) == before | {(r3, a2)}
            assert set(_posting_run(store, author, by_object=True)) == before_dual | {(a2, r3)}
            assert list(store.select(TripleKind.DATA, subject=r3, predicate=author)) == [
                (r3, author, a2)
            ]


class TestIndexBuildObservability:
    def test_bulk_load_defers_then_builds_once(self):
        with MemoryStore() as store:
            store.load_graph(_sample_graph())
            builds_after_load = store.index_build_count()
            author = store.dictionary.encode_existing(EX.author)
            list(store.select(TripleKind.DATA, predicate=author))
            first = store.index_build_count()
            list(store.select(TripleKind.DATA, predicate=author))
            r1 = store.dictionary.encode_existing(EX.r1)
            store.select_many(TripleKind.DATA, subjects=[r1], predicate=author)
            assert store.index_build_count() == first
            assert first >= builds_after_load

    def test_scan_never_forces_an_index_build(self):
        with MemoryStore() as store:
            store.load_graph(_sample_graph())
            for kind in (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA):
                for _batch in store.scan_columns(kind):
                    pass
            assert store.index_build_count() == 0


class TestCrossBackendContract:
    """MemoryStore, SQLiteStore and the dict oracle must agree observably."""

    def _encoded_rows(self, store):
        graph = _sample_graph()
        ids = {}
        rows = []
        for triple in graph:
            encoded = store.dictionary.encode_triple(triple)
            kind = (
                TripleKind.SCHEMA
                if triple.is_schema()
                else TripleKind.TYPE if triple.is_type() else TripleKind.DATA
            )
            rows.append((kind, encoded))
            ids[triple] = encoded
        return rows

    @pytest.mark.parametrize("factory", BACKENDS + [DictReferenceStore], ids=["memory", "sqlite", "dict"])
    def test_insert_encoded_rows_returns_fresh_rows(self, factory):
        with factory() as store:
            rows = self._encoded_rows(store)
            fresh = store.insert_encoded_rows(rows, skip_existing=True)
            assert [tuple(row) for _kind, row in fresh] == [tuple(row) for _kind, row in rows]
            again = store.insert_encoded_rows(rows, skip_existing=True)
            assert again == []

    @pytest.mark.parametrize("factory", BACKENDS + [DictReferenceStore], ids=["memory", "sqlite", "dict"])
    def test_in_batch_duplicates_inserted_once(self, factory):
        with factory() as store:
            rows = self._encoded_rows(store)
            fresh = store.insert_encoded_rows(rows + rows, skip_existing=True)
            assert len(fresh) == len(rows)
            assert store.count(TripleKind.DATA) == 6
            assert store.count(TripleKind.TYPE) == 2

    def test_len_and_counts_agree_across_backends(self):
        counts = {}
        for factory in BACKENDS:
            with factory() as store:
                store.load_graph(_sample_graph())
                counts[factory.__name__] = tuple(
                    store.count(kind)
                    for kind in (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA)
                )
        assert len(set(counts.values())) == 1

    def test_scan_order_is_insertion_order_everywhere(self):
        orders = {}
        for factory in BACKENDS + [DictReferenceStore]:
            with factory() as store:
                rows = self._encoded_rows(store)
                store.insert_encoded_rows(rows, skip_existing=True)
                orders[factory.__name__] = [tuple(row) for row in store.scan_data()]
        reference = orders.pop("DictReferenceStore")
        for name, order in orders.items():
            assert order == reference, name


class TestSelectManyDedup:
    """Repeated key ids must not multiply result rows (regression)."""

    @pytest.mark.parametrize(
        "factory", BACKENDS + [DictReferenceStore], ids=["memory", "sqlite", "dict"]
    )
    def test_repeated_subjects_yield_each_row_once(self, factory):
        with factory() as store:
            store.load_graph(_sample_graph())
            author = store.dictionary.encode_existing(EX.author)
            r1 = store.dictionary.encode_existing(EX.r1)
            once = store.select_many(TripleKind.DATA, subjects=[r1], predicate=author)
            repeated = store.select_many(
                TripleKind.DATA, subjects=[r1, r1, r1], predicate=author
            )
            assert sorted(map(tuple, repeated)) == sorted(map(tuple, once))
            assert len(list(once)) == 2

    @pytest.mark.parametrize(
        "factory", BACKENDS + [DictReferenceStore], ids=["memory", "sqlite", "dict"]
    )
    def test_repeated_objects_yield_each_row_once(self, factory):
        with factory() as store:
            store.load_graph(_sample_graph())
            author = store.dictionary.encode_existing(EX.author)
            a1 = store.dictionary.encode_existing(EX.a1)
            once = store.select_many(TripleKind.DATA, objects=[a1], predicate=author)
            repeated = store.select_many(TripleKind.DATA, objects=[a1, a1], predicate=author)
            assert sorted(map(tuple, repeated)) == sorted(map(tuple, once))
            assert len(list(once)) == 2


class TestColumnBlobs:
    def test_column_bytes_round_trip_byte_identical(self):
        with MemoryStore() as source:
            source.load_graph(_sample_graph())
            blobs = {
                kind: source.column_bytes(kind)
                for kind in (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA)
            }
            with MemoryStore() as restored:
                for term, identifier in source.dictionary.items():
                    assert restored.dictionary.encode(term) == identifier
                for kind, (count, s, p, o) in blobs.items():
                    assert restored.load_column_bytes(kind, s, p, o) == count
                assert restored.index_build_count() == 0
                for kind in blobs:
                    assert restored.column_bytes(kind) == blobs[kind]
                assert [tuple(r) for r in restored.scan_data()] == [
                    tuple(r) for r in source.scan_data()
                ]

    def test_loaded_blobs_still_answer_selects(self):
        with MemoryStore() as source:
            source.load_graph(_sample_graph())
            author = source.dictionary.encode_existing(EX.author)
            r1 = source.dictionary.encode_existing(EX.r1)
            expected = sorted(map(tuple, source.select(TripleKind.DATA, predicate=author)))
            count, s, p, o = source.column_bytes(TripleKind.DATA)
            with MemoryStore() as restored:
                restored.load_column_bytes(TripleKind.DATA, s, p, o)
                got = sorted(map(tuple, restored.select(TripleKind.DATA, predicate=author)))
                assert got == expected
                assert len(restored.select_many(TripleKind.DATA, subjects=[r1])) == 3

    def test_load_into_nonempty_table_rejected(self):
        with MemoryStore() as store:
            store.load_graph(_sample_graph())
            count, s, p, o = store.column_bytes(TripleKind.DATA)
            with pytest.raises(Exception):
                store.load_column_bytes(TripleKind.DATA, s, p, o)

    def test_foreign_byteorder_swaps(self):
        import sys

        with MemoryStore() as source:
            source.load_graph(_sample_graph())
            count, s, p, o = source.column_bytes(TripleKind.DATA)
            other = "big" if sys.byteorder == "little" else "little"
            from array import array

            from repro.store.base import ID_TYPECODE

            def swapped(blob):
                values = array(ID_TYPECODE)
                values.frombytes(blob)
                values.byteswap()
                return values.tobytes()

            with MemoryStore() as restored:
                loaded = restored.load_column_bytes(
                    TripleKind.DATA, swapped(s), swapped(p), swapped(o), byteorder=other
                )
                assert loaded == count
                assert restored.column_bytes(TripleKind.DATA) == (count, s, p, o)
