"""Indexes built on demand read exactly like indexes built up front.

:class:`MemoryStore` groups a table by property on its first read, builds a
property's ``(p, s)`` / ``(p, o)`` runs on that property's first read or
append, and the whole-table runs on the first predicate-unbound read.  The
reference here is the same store with every index built after every load
and insert — whole-table runs included, even where one property's runs
would serve — so whatever order the reads came in, the lazy store must
return the same positions, counts, runs and statistics.
"""

import sys
import threading
from array import array
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.model.triple import TripleKind
from repro.service.statistics import CardinalityStatistics
from repro.store import memory
from repro.store.base import ID_TYPECODE
from repro.store.memory import MemoryStore, _Run, _sort_by

KINDS = (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA)
#: the type table holds one property, as it does in a real store
PROPERTIES = {TripleKind.DATA: (0, 1, 2, 3), TripleKind.TYPE: (9,), TripleKind.SCHEMA: (4, 5)}
ids = st.integers(0, 6)
# mostly data rows, so that one batch can outgrow the bulk threshold in one table
rows = st.sampled_from(KINDS + (TripleKind.DATA,) * 3).flatmap(
    lambda kind: st.tuples(st.just(kind), st.tuples(ids, st.sampled_from(PROPERTIES[kind]), ids))
)
# with the limits patched to 3 and 6, batches fall below and above the tail
# merge limit and (against a small enough table) above the bulk threshold
batches = st.lists(rows, max_size=20)
shapes = st.tuples(
    st.sampled_from(KINDS), st.one_of(st.none(), ids), st.one_of(st.none(), st.integers(0, 9)), st.one_of(st.none(), ids)
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), batches),
        st.tuples(st.just("select"), shapes),
        st.tuples(st.just("run"), st.tuples(st.sampled_from(KINDS), st.integers(0, 9), st.sampled_from((0, 2)))),
        st.tuples(st.just("statistics"), st.none()),
    ),
    max_size=12,
)


class _EagerStore(MemoryStore):
    """Every index of every table built after every load and insert."""

    def _index_everything(self):
        for table in self._tables.values():
            for predicate in table.grouped():
                table.property_runs(predicate)
            if table.whole is None:
                s_col, _p_col, o_col = table._cells()
                everything = range(len(table))
                table.whole = (_Run(*_sort_by(s_col, everything)), _Run(*_sort_by(o_col, everything)))

    def insert_encoded_rows(self, rows, skip_existing=True):
        fresh = super().insert_encoded_rows(rows, skip_existing)
        self._index_everything()
        return fresh

    def _load_columns(self, kind, s_col, p_col, o_col):
        loaded = super()._load_columns(kind, s_col, p_col, o_col)
        self._index_everything()
        return loaded


def _load(store, how, base, tail, blobs):
    if how == "bulk":
        store.insert_encoded_rows(base)
        return
    for kind in KINDS:
        if how == "adopted":
            store.adopt_column_buffers(kind, *blobs[kind])
        else:
            store.load_column_bytes(kind, *blobs[kind])
    if how == "replayed":  # a warm start replays the logged tail
        store.insert_encoded_rows(tail)


def _same_select(lazy, eager, kind, subject, predicate, obj):
    got, _columns = lazy.postings(kind, subject, predicate, obj)
    want, _columns = eager.postings(kind, subject, predicate, obj)
    assert list(got) == list(want), (kind, subject, predicate, obj)
    assert lazy.count_rows(kind, subject, predicate, obj) == len(want)
    assert list(lazy.select(kind, subject, predicate, obj)) == list(eager.select(kind, subject, predicate, obj))


def _same_run(lazy, eager, kind, predicate, column):
    (got, _other), (want, _other) = (
        store.posting_run(kind, predicate, column) for store in (lazy, eager)
    )
    assert (got is None) == (want is None)
    if got is not None:
        assert [list(part) for part in got.merged()] == [list(part) for part in want.merged()]
        assert got.distinct == want.distinct


def _same_statistics(lazy, eager, profile, recount):
    for kind in KINDS:
        assert lazy.distinct_keys(kind) == eager.distinct_keys(kind)
        assert lazy.property_cardinalities(kind) == eager.property_cardinalities(kind)
    expected = recount(lazy)
    assert profile.as_dict() == expected
    assert CardinalityStatistics.from_store(lazy).as_dict() == expected


@settings(
    max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    how=st.sampled_from(("bulk", "columns", "adopted", "replayed")),
    base=st.lists(rows, max_size=30),
    tail=batches,
    steps=steps,
)
def test_lazy_indexes_read_like_eager_ones(recount, how, base, tail, steps):
    with patch.object(memory, "TAIL_MERGE_LIMIT", 3), patch.object(memory, "BULK_REBUILD_THRESHOLD", 6):
        source = MemoryStore()
        source.insert_encoded_rows(base)
        blobs = {kind: source.column_bytes(kind)[1:] for kind in KINDS}
        lazy, eager = MemoryStore(), _EagerStore()
        for store in (lazy, eager):
            _load(store, how, base, tail, blobs)
        profile = CardinalityStatistics.from_store(lazy)
        for step, argument in steps:
            if step == "ingest":
                fresh = lazy.insert_encoded_rows(argument)
                assert fresh == eager.insert_encoded_rows(argument)
                profile.ingest_rows(fresh)
            elif step == "select":
                _same_select(lazy, eager, *argument)
            elif step == "run":
                _same_run(lazy, eager, *argument)
            else:
                _same_statistics(lazy, eager, profile, recount)
        for kind in KINDS:
            for predicate in (None, *PROPERTIES[kind], 7):
                if predicate is not None:
                    _same_run(lazy, eager, kind, predicate, 0)
                    _same_run(lazy, eager, kind, predicate, 2)
                for subject in (None, *range(7)):
                    for obj in (None, *range(7)):
                        _same_select(lazy, eager, kind, subject, predicate, obj)
        _same_statistics(lazy, eager, profile, recount)
        for store in (lazy, eager, source):
            store.close()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    column=st.lists(st.one_of(st.integers(0, 9), st.integers(0, 2**31 - 1)), max_size=40),
    data=st.data(),
)
def test_sort_by_is_a_stable_sort_of_positions_by_key(column, data):
    """Dense ids or sparse, the runs are ``sorted(zip(keys, positions))``
    for any ascending subset of positions."""
    positions = sorted(data.draw(st.sets(st.integers(0, max(len(column) - 1, 0)))) if column else [])
    keys, order = _sort_by(array(ID_TYPECODE, column), array(ID_TYPECODE, positions))
    assert keys.typecode == order.typecode == ID_TYPECODE
    assert list(zip(keys, order)) == sorted((column[position], position) for position in positions)


def test_a_read_builds_only_what_it_needs():
    built = telemetry.counter("store.runs.built")
    rows = [(s, p, (s * p) % 11) for s in range(40) for p in (1, 2, 3)]
    with MemoryStore() as store:
        store.load_column_bytes(
            TripleKind.DATA, *(array(ID_TYPECODE, column).tobytes() for column in zip(*rows))
        )
        store.load_column_bytes(
            TripleKind.TYPE, *(array(ID_TYPECODE, column).tobytes() for column in ([1, 2], [9, 9], [5, 5]))
        )
        data, types = store._tables[TripleKind.DATA], store._tables[TripleKind.TYPE]
        before = built.value
        assert store.count_rows(TripleKind.DATA, predicate=2) == 40  # a grouping, no run
        assert (store.index_build_count(), built.value - before, data.runs) == (1, 0, {})
        assert store.count_rows(TripleKind.DATA, subject=3, predicate=2) == 1
        assert (set(data.runs), built.value - before, data.whole) == ({2}, 1, None)
        assert store.count_rows(TripleKind.DATA, obj=0) == sum(1 for row in rows if row[2] == 0)
        assert (store.index_build_count(), built.value - before) == (2, 2)
        assert data.whole is not None and set(data.runs) == {2}
        # the one-property type table serves class membership from rdf:type's runs
        assert store.count_rows(TripleKind.TYPE, obj=5) == 2
        assert set(types.runs) == {9} and types.whole is None
        assert (store.index_build_count(), built.value - before) == (3, 3)


def test_table_wide_counts_are_built_once_and_read_live_after_ingests():
    """The first ask for a table's distinct subjects / objects builds the
    runs that count them; an ingest appends to those runs, so no later ask
    builds, or passes over the columns, again."""
    built = telemetry.counter("store.runs.built")
    rows = [(s, p, (s * p) % 11) for s in range(40) for p in (1, 2, 3)]
    with MemoryStore() as store:
        store.load_column_bytes(
            TripleKind.DATA, *(array(ID_TYPECODE, column).tobytes() for column in zip(*rows))
        )
        store.load_column_bytes(
            TripleKind.TYPE, *(array(ID_TYPECODE, column).tobytes() for column in ([1, 2], [9, 9], [5, 5]))
        )
        statistics = CardinalityStatistics.from_store(store)
        assert statistics.distinct_subjects(TripleKind.DATA) == 40
        assert statistics.distinct_objects(TripleKind.TYPE) == 1
        store.count_rows(TripleKind.DATA, subject=0, predicate=1)  # the runs the ingests append to
        builds, runs = store.index_build_count(), built.value
        for batch in range(3):
            fresh = [(TripleKind.DATA, (100 + batch, 1, 50 + batch)), (TripleKind.DATA, (0, 1, 60 + batch))]
            statistics.ingest_rows(store.insert_encoded_rows(fresh + [(TripleKind.TYPE, (100 + batch, 9, 5))]))
            with patch.object(memory._Table, "_cells", side_effect=AssertionError("a pass over the columns")):
                counts = {
                    kind: (statistics.distinct_subjects(kind), statistics.distinct_objects(kind))
                    for kind in (TripleKind.DATA, TripleKind.TYPE)
                }
            for kind, table in ((kind, store._tables[kind]) for kind in counts):
                assert counts[kind] == (len(set(table.s_col)), len(set(table.o_col)))
            assert (store.index_build_count(), built.value) == (builds, runs)
        assert store._tables[TripleKind.TYPE].whole is None  # its one property's runs count


def test_concurrent_first_reads_of_one_property_see_whole_pairs():
    """Readers racing to build one property's runs all get one complete
    pair: the runs are published in one assignment, never one by one."""
    rows = [(position % 997, 1 + position % 3, position % 1009) for position in range(6000)]
    blobs = [array(ID_TYPECODE, column).tobytes() for column in zip(*rows)]
    expected = {
        subject: sum(1 for row in rows if row[0] == subject and row[1] == 2) for subject in (0, 5, 996)
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _trial in range(20):
            store = MemoryStore()
            store.load_column_bytes(TripleKind.DATA, *blobs)
            table = store._tables[TripleKind.DATA]
            table.grouped()
            seen, errors = [], []

            def read():
                try:
                    ps_run, _objects = store.posting_run(TripleKind.DATA, 2, 0)
                    po_run, _subjects = store.posting_run(TripleKind.DATA, 2, 2)
                    counts = {
                        subject: store.count_rows(TripleKind.DATA, subject=subject, predicate=2)
                        for subject in expected
                    }
                    seen.append((ps_run, po_run, counts))
                except Exception as error:
                    errors.append(error)

            readers = [threading.Thread(target=read) for _ in range(4)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=30)
            assert not any(reader.is_alive() for reader in readers)
            assert errors == []
            pair = table.runs[2]
            assert [(ps_run, po_run) for ps_run, po_run, _counts in seen] == [pair] * 4
            assert all(counts == expected for _ps, _po, counts in seen)
            assert len(pair[0]) == len(pair[1]) == 2000
            store.close()
    finally:
        sys.setswitchinterval(interval)
