"""Property-based equivalence: columnar MemoryStore vs the dict oracle.

The pre-refactor dict-of-tuples store is kept verbatim in
``tests/oracles/reference_store.py`` as :class:`DictReferenceStore`.  These
tests drive both stores through the same randomized interleaving of encoded
inserts and probes and require observational equivalence at every step —
row order included, since deterministic insertion-order iteration is part
of the store contract the summarizers rely on.
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.triple import TripleKind
from repro.store.base import ID_TYPECODE, ColumnView
from repro.store.memory import MemoryStore
from oracles.reference_store import DictReferenceStore

KINDS = (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA)

# a small id universe makes duplicate rows, repeated keys and shared
# subjects/objects common instead of vanishingly rare
ids = st.integers(min_value=0, max_value=12)
rows = st.tuples(st.sampled_from(KINDS), st.tuples(ids, ids, ids))
batches = st.lists(st.lists(rows, max_size=24), min_size=1, max_size=6)


def _assert_equivalent(columnar, oracle):
    for kind in KINDS:
        assert columnar.count(kind) == oracle.count(kind)
        assert columnar.distinct_properties(kind) == oracle.distinct_properties(kind)
    assert [tuple(r) for r in columnar.scan_data()] == [tuple(r) for r in oracle.scan_data()]
    assert [tuple(r) for r in columnar.scan_types()] == [tuple(r) for r in oracle.scan_types()]
    assert [tuple(r) for r in columnar.scan_schema()] == [
        tuple(r) for r in oracle.scan_schema()
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batches=batches)
def test_interleaved_inserts_stay_equivalent(batches):
    with MemoryStore() as columnar, DictReferenceStore() as oracle:
        for batch in batches:
            fresh_columnar = columnar.insert_encoded_rows(batch, skip_existing=True)
            fresh_oracle = oracle.insert_encoded_rows(batch, skip_existing=True)
            assert [(kind, tuple(row)) for kind, row in fresh_columnar] == [
                (kind, tuple(row)) for kind, row in fresh_oracle
            ]
            _assert_equivalent(columnar, oracle)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batches=batches, probes=st.lists(st.tuples(ids, ids, ids), max_size=12))
def test_selects_agree_after_every_batch(batches, probes):
    with MemoryStore() as columnar, DictReferenceStore() as oracle:
        for batch in batches:
            columnar.insert_encoded_rows(batch, skip_existing=True)
            oracle.insert_encoded_rows(batch, skip_existing=True)
            for subject, predicate, obj in probes:
                for kind in (TripleKind.DATA, TripleKind.TYPE):
                    for shape in (
                        dict(subject=subject),
                        dict(predicate=predicate),
                        dict(obj=obj),
                        dict(subject=subject, predicate=predicate),
                        dict(predicate=predicate, obj=obj),
                        dict(subject=subject, predicate=predicate, obj=obj),
                    ):
                        got = [tuple(r) for r in columnar.select(kind, **shape)]
                        expected = [tuple(r) for r in oracle.select(kind, **shape)]
                        assert got == expected, (kind, shape)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    batches=batches,
    subjects=st.lists(ids, max_size=8),
    objects=st.lists(ids, max_size=8),
    predicate=st.one_of(st.none(), ids),
)
def test_select_many_agrees_with_oracle(batches, subjects, objects, predicate):
    with MemoryStore() as columnar, DictReferenceStore() as oracle:
        for batch in batches:
            columnar.insert_encoded_rows(batch, skip_existing=True)
            oracle.insert_encoded_rows(batch, skip_existing=True)
        for kwargs in (
            dict(subjects=subjects, predicate=predicate),
            dict(objects=objects, predicate=predicate),
            dict(subjects=subjects, objects=objects, predicate=predicate),
            dict(predicate=predicate),
        ):
            got = [tuple(r) for r in columnar.select_many(TripleKind.DATA, **kwargs)]
            expected = [tuple(r) for r in oracle.select_many(TripleKind.DATA, **kwargs)]
            assert sorted(got) == sorted(expected), kwargs


def _run_pairs(store, kind, predicate, by_object):
    """The ``(p, s)`` — or ``(p, o)`` — posting run of *predicate*, tail
    folded in, as ``(key, other endpoint)`` pairs; checked sorted by
    ``(key, position)`` on the way."""
    table = store._tables[kind]
    table._ensure_indexed()
    keys, positions = (table.po_runs if by_object else table.ps_runs)[predicate].merged()
    assert list(zip(keys, positions)) == sorted(zip(keys, positions))
    other = table.s_col if by_object else table.o_col
    return [(key, other[position]) for key, position in zip(keys, positions)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batches=batches)
def test_sorted_runs_enumerate_exactly_the_selected_rows(batches):
    with MemoryStore() as columnar, DictReferenceStore() as oracle:
        for batch in batches:
            columnar.insert_encoded_rows(batch, skip_existing=True)
            oracle.insert_encoded_rows(batch, skip_existing=True)
            for kind in (TripleKind.DATA, TripleKind.TYPE):
                for predicate in oracle.distinct_properties(kind):
                    rows = list(oracle.select(kind, predicate=predicate))
                    expected = sorted((row[0], row[2]) for row in rows)
                    assert sorted(_run_pairs(columnar, kind, predicate, False)) == expected
                    expected_dual = sorted((row[2], row[0]) for row in rows)
                    assert sorted(_run_pairs(columnar, kind, predicate, True)) == expected_dual


def _assert_run(run, pairs):
    """*run* is exactly its definition over ``(key, position)`` *pairs*."""
    assert run.keys.typecode == run.positions.typecode == ID_TYPECODE
    assert list(zip(run.keys, run.positions)) == sorted(pairs)
    assert run.distinct == len({key for key, _position in pairs})
    assert len(run.tail_keys) == 0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    rows=st.one_of(
        st.lists(st.tuples(ids, ids, ids), max_size=60),
        # one predicate: its runs are the whole-table runs
        st.lists(st.tuples(ids, st.just(3), ids), max_size=60),
    ),
    adopt=st.booleans(),
    prebuild_subjects=st.booleans(),
)
def test_deferred_index_build_is_its_definition(rows, adopt, prebuild_subjects):
    """The deferred build sorts positions, never ``(key, position)``
    tuples: every run it leaves must still equal ``sorted(zip(keys,
    positions))``, with ``distinct`` the key count and ``by_predicate``
    ascending — over copied or adopted (``ColumnView``) columns, and when
    ``subject_run()`` built the subject run first."""
    n = len(rows)
    s_col, p_col, o_col = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    blobs = [array(ID_TYPECODE, column).tobytes() for column in (s_col, p_col, o_col)]
    with MemoryStore() as store:
        load = store.adopt_column_buffers if adopt else store.load_column_bytes
        assert load(TripleKind.DATA, *blobs) == n
        table = store._tables[TripleKind.DATA]
        assert (type(table.s_col) is ColumnView) == adopt
        prebuilt = None
        if prebuild_subjects:
            keys, positions = table.subject_run()
            assert list(zip(keys, positions)) == sorted(zip(s_col, range(n)))
            prebuilt = table.s_run
        table._ensure_indexed()
        assert table.index_builds == 1
        if prebuilt is not None:
            assert table.s_run is prebuilt  # adopted, not sorted again
        _assert_run(table.s_run, list(zip(s_col, range(n))))
        _assert_run(table.o_run, list(zip(o_col, range(n))))
        assert set(table.by_predicate) == set(table.ps_runs) == set(table.po_runs) == set(p_col)
        for predicate, positions in table.by_predicate.items():
            mine = [position for position in range(n) if p_col[position] == predicate]
            assert positions.typecode == ID_TYPECODE and list(positions) == mine
            _assert_run(table.ps_runs[predicate], [(s_col[i], i) for i in mine])
            _assert_run(table.po_runs[predicate], [(o_col[i], i) for i in mine])
        subjects, objects, by_property = store.cardinalities(TripleKind.DATA)
        assert (subjects, objects) == (len(set(s_col)), len(set(o_col)))
        assert sum(count for count, _s, _o in by_property.values()) == n
