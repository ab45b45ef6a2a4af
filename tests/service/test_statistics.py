"""Tests for the store-level cardinality statistics (`repro.service.statistics`)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model.dictionary import EncodedTriple
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.triple import Triple, TripleKind
from repro.service.statistics import CardinalityStatistics
from repro.store import memory
from repro.store.memory import MemoryStore
from oracles.reference_store import DictReferenceStore
from repro.store.sqlite import SQLiteStore


@pytest.fixture(params=[MemoryStore, SQLiteStore], ids=["memory", "sqlite"])
def backend(request):
    return request.param


def _small_triples():
    return [
        Triple(EX.a, EX.p, EX.b),
        Triple(EX.a, EX.p, EX.c),
        Triple(EX.b, EX.p, EX.c),
        Triple(EX.a, EX.q, EX.b),
        Triple(EX.a, RDF_TYPE, EX.C1),
        Triple(EX.b, RDF_TYPE, EX.C1),
        Triple(EX.c, RDF_TYPE, EX.C2),
    ]


class TestOnePassCollection:
    def test_per_predicate_counts(self, backend):
        store = backend()
        store.load_triples(_small_triples())
        statistics = CardinalityStatistics.from_store(store)
        p = store.dictionary.encode_existing(EX.p)
        q = store.dictionary.encode_existing(EX.q)
        assert statistics.predicate_rows(TripleKind.DATA, p) == 3
        assert statistics.predicate_rows(TripleKind.DATA, q) == 1
        assert statistics.distinct_subjects(TripleKind.DATA, p) == 2  # a, b
        assert statistics.distinct_objects(TripleKind.DATA, p) == 2  # b, c
        assert statistics.table_rows(TripleKind.DATA) == 4
        assert statistics.table_rows(TripleKind.TYPE) == 3
        assert statistics.table_rows(TripleKind.SCHEMA) == 0
        store.close()

    def test_class_membership_counts(self, backend):
        store = backend()
        store.load_triples(_small_triples())
        statistics = CardinalityStatistics.from_store(store)
        c1 = store.dictionary.encode_existing(EX.C1)
        c2 = store.dictionary.encode_existing(EX.C2)
        assert statistics.class_count(c1) == 2
        assert statistics.class_count(c2) == 1
        assert statistics.class_count(999_999) == 0
        store.close()

    def test_table_level_distincts(self, backend):
        store = backend()
        store.load_triples(_small_triples())
        statistics = CardinalityStatistics.from_store(store)
        assert statistics.distinct_subjects(TripleKind.DATA) == 2
        assert statistics.distinct_objects(TripleKind.DATA) == 2
        assert statistics.distinct_predicates(TripleKind.DATA) == 2
        store.close()

    def test_unknown_predicate_profile_is_none(self, backend):
        store = backend()
        store.load_triples(_small_triples())
        statistics = CardinalityStatistics.from_store(store)
        assert statistics.predicate(TripleKind.DATA, 424242) is None
        assert statistics.predicate_rows(TripleKind.SCHEMA, 0) == 0
        store.close()


def _loaded(backend, rows):
    store = backend()
    store.insert_encoded_rows(rows)
    return store


def _adopted(backend, rows):
    """A store whose base columns are borrowed buffers (a worker's view of a
    shared segment): everything inserted later lands in private tails."""
    source = _loaded(MemoryStore, rows)
    store = MemoryStore()
    for kind in TripleKind:
        _count, *blobs = source.column_bytes(kind)
        store.adopt_column_buffers(kind, *blobs)
    source.close()
    return store


_ID = st.integers(0, 9)
_ROW = st.tuples(
    st.sampled_from(list(TripleKind)), st.builds(EncodedTriple, _ID, st.integers(20, 23), _ID)
)
_BATCHES = st.lists(st.lists(_ROW, max_size=10), min_size=1, max_size=6)


class TestIncrementalEquivalence:
    """A profile kept by ``ingest_rows`` reads exactly like a brute-force
    recount of the rows — whatever the backend's indexes went through."""

    @pytest.mark.parametrize(
        "backend, load, tail_merge_limit, bulk_rebuild_threshold",
        [
            (MemoryStore, _loaded, None, None),
            (SQLiteStore, _loaded, None, None),
            (DictReferenceStore, _loaded, None, None),
            (MemoryStore, _loaded, 2, None),  # tails fold back into the runs mid-sequence
            (MemoryStore, _loaded, None, 3),  # batches drop the indexes; rebuilt lazily
            (MemoryStore, _adopted, 2, None),  # borrowed base columns + private tails
        ],
        ids=["memory", "sqlite", "reference", "tail-merges", "bulk-rebuilds", "adopted"],
    )
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(base=st.lists(_ROW, max_size=12), batches=_BATCHES)
    def test_ingest_rows_matches_a_recount(
        self, monkeypatch, recount, backend, load, tail_merge_limit, bulk_rebuild_threshold, base, batches
    ):
        if tail_merge_limit is not None:
            monkeypatch.setattr(memory, "TAIL_MERGE_LIMIT", tail_merge_limit)
        if bulk_rebuild_threshold is not None:
            monkeypatch.setattr(memory, "BULK_REBUILD_THRESHOLD", bulk_rebuild_threshold)
        store = load(backend, base)
        statistics = CardinalityStatistics.from_store(store)
        assert statistics.as_dict() == recount(store)
        for batch in batches:
            # (duplicates of what is there, and within the batch, are part of the input)
            statistics.ingest_rows(store.insert_encoded_rows(batch))
            expected = recount(store)
            assert statistics.as_dict() == expected
            assert CardinalityStatistics.from_store(store).as_dict() == expected
            for kind, row in batch:  # (the insert folded whatever tail outgrew the limit)
                assert store.count_rows(kind, subject=row[0], predicate=row[1]) >= 1
        store.close()

    def test_row_by_row_matches_one_pass(self, backend, bibliography_small, recount):
        store = backend()
        statistics = CardinalityStatistics.from_store(store)
        for triple in sorted(bibliography_small):
            statistics.ingest_rows(store.insert_triples([triple], skip_existing=True))
        assert statistics.as_dict() == recount(store)
        assert statistics == CardinalityStatistics.from_store(store)
        store.close()

    def test_state_is_a_few_integers_whatever_the_row_count(self):
        """No second copy of the ids: nothing in a profile grows with the rows."""
        import pickle

        from repro.datasets.bsbm import generate_bsbm

        store = MemoryStore()
        store.load_graph(generate_bsbm(scale=100, seed=1))
        statistics = CardinalityStatistics.from_store(store)
        state = {
            slot: getattr(statistics, slot)
            for slot in CardinalityStatistics.__slots__
            if slot != "_store"
        }
        assert len(pickle.dumps(state)) < 4096

        def holds_a_set(value) -> bool:
            if isinstance(value, (set, frozenset)):
                return True
            if isinstance(value, dict):
                return any(holds_a_set(item) for item in value.values())
            slots = getattr(type(value), "__slots__", ())
            return any(holds_a_set(getattr(value, slot)) for slot in slots)

        assert not holds_a_set(state)
        store.close()

    def test_as_dict_is_json_friendly(self, backend):
        import json

        store = backend()
        store.load_triples(_small_triples())
        statistics = CardinalityStatistics.from_store(store)
        rendered = json.dumps(statistics.as_dict())
        assert "class_rows" in rendered
        store.close()


class TestCatalogRefresh:
    def test_add_triples_refreshes_statistics_in_place(self):
        """The catalog must fold incremental ingest into the live profile —
        no stale estimates, no re-scan (satellite bugfix)."""
        from repro.model.graph import RDFGraph
        from repro.service.catalog import GraphCatalog

        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(_small_triples()))
            before = entry.statistics_index()
            p = entry.store.dictionary.encode_existing(EX.p)
            assert before.predicate_rows(TripleKind.DATA, p) == 3

            entry.add_triples([Triple(EX.c, EX.p, EX.a), Triple(EX.d, RDF_TYPE, EX.C2)])
            after = entry.statistics_index()
            # same object, updated in place and re-tagged with the version
            assert after is before
            assert after.predicate_rows(TripleKind.DATA, p) == 4
            assert after.distinct_subjects(TripleKind.DATA, p) == 3
            c2 = entry.store.dictionary.encode_existing(EX.C2)
            assert after.class_count(c2) == 2
            # and it agrees exactly with a fresh scan of the mutated store
            assert after == CardinalityStatistics.from_store(entry.store)

    def test_duplicate_adds_do_not_inflate_counts(self):
        from repro.model.graph import RDFGraph
        from repro.service.catalog import GraphCatalog

        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(_small_triples()))
            before = entry.statistics_index()
            p = entry.store.dictionary.encode_existing(EX.p)
            entry.add_triples([Triple(EX.a, EX.p, EX.b)])  # already present
            assert entry.statistics_index().predicate_rows(TripleKind.DATA, p) == 3
            assert entry.statistics_index() is before

    @pytest.mark.parametrize("saturated", [False, True], ids=["G", "G-inf"])
    def test_one_plan_cache_policy_on_both_sides(self, saturated):
        """``G`` and ``G∞`` are served through the same chain: the planner
        and its cached plans outlive an ingest (the estimates read the live
        profile), and a shape is re-costed once its store has doubled."""
        from repro import telemetry
        from repro.model.graph import RDFGraph
        from repro.queries.bgp import BGPQuery, TriplePattern, Variable
        from repro.service.catalog import GraphCatalog
        from repro.service.service import QueryService

        x, y = Variable("x"), Variable("y")
        query = BGPQuery([TriplePattern(x, EX.p, y)], head=(x, y))
        registry_hits = telemetry.counter("planner.cache.hits")
        registry_misses = telemetry.counter("planner.cache.misses")
        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(_small_triples()))
            service = QueryService(catalog, prune=False)
            evaluator = entry.evaluator_for("hash", saturated=saturated)
            planner = evaluator.planner()
            compiled = evaluator.compile(query)
            assert len(service.answer("g", query, saturated=saturated).answers) == 3
            misses = registry_misses.value
            plan = planner.plan(compiled)
            assert registry_misses.value == misses  # the answer above planned it

            entry.add_triples([Triple(EX.c, EX.p, EX.a)])  # 7 rows -> 8: a version bump
            assert entry.evaluator_for("sql", saturated=saturated).planner() is planner
            assert planner.statistics == CardinalityStatistics.from_store(evaluator.store)
            hits = registry_hits.value
            assert len(service.answer("g", query, saturated=saturated).answers) == 4
            assert registry_hits.value == hits + 1 and registry_misses.value == misses
            assert planner.plan(compiled) is plan

            entry.add_triples([Triple(EX.term(f"n{i}"), EX.p, EX.a) for i in range(6)])  # 14 rows
            assert planner.plan(compiled) is not plan
            assert registry_misses.value == misses + 1
            assert planner.plan(compiled).stages[0].estimate == pytest.approx(10.0)
