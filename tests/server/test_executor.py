"""Concurrency tests: races between queries and ingest must stay correct."""

import threading

import pytest

from repro.core.builders import summarize
from repro.core.isomorphism import graphs_isomorphic
from repro.model.namespaces import EX
from repro.model.triple import Triple
from repro.queries.parser import parse_query
from repro.server.executor import QueryExecutor
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.service.statistics import CardinalityStatistics
from repro.store.sqlite import SQLiteStore


PROPERTY = "http://example.org/race/p"


def _query():
    return parse_query(f"SELECT ?x WHERE {{ ?x <{PROPERTY}> ?y . }}")


def _triple(index: int) -> Triple:
    return Triple(
        EX.term(f"race/s{index}"), EX.term("race/p"), EX.term(f"race/o{index}")
    )


@pytest.fixture(params=["memory", "sqlite"])
def catalog(request, tmp_path, fig2):
    if request.param == "memory":
        catalog = GraphCatalog()
    else:
        paths = iter(range(1000))
        catalog = GraphCatalog(
            store_factory=lambda: SQLiteStore(str(tmp_path / f"store-{next(paths)}.db"))
        )
    catalog.register("g", graph=fig2)
    yield catalog
    catalog.close()


class TestConcurrentQueries:
    def test_parallel_answers_match_serial(self, catalog):
        service = QueryService(catalog, kind="weak")
        catalog.add_triples("g", [_triple(i) for i in range(32)])
        query = _query()
        serial = service.answer("g", query).answers
        with QueryExecutor(service, max_workers=8) as executor:
            answers = executor.map_answers("g", [query] * 32)
        assert all(answer.answers == serial for answer in answers)

    def test_barrier_synchronized_readers_agree(self, catalog):
        """8 threads released simultaneously on the same entry all see the
        same complete answer set."""
        service = QueryService(catalog, kind="weak")
        catalog.add_triples("g", [_triple(i) for i in range(16)])
        expected = service.answer("g", _query()).answers
        barrier = threading.Barrier(8)
        results, errors = [], []

        def reader():
            try:
                barrier.wait(timeout=10)
                results.append(service.answer("g", _query()).answers)
            except Exception as error:  # noqa: BLE001 - collected for assertion
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 8
        assert all(result == expected for result in results)


class TestQueryIngestRaces:
    def test_concurrent_query_and_ingest_see_whole_batches(self, catalog):
        """Readers racing a writer must observe a prefix of the ingest
        batches — never a torn batch — and the final state must be exact."""
        service = QueryService(catalog, kind="weak")
        query = _query()
        batches = [[_triple(base * 8 + i) for i in range(8)] for base in range(6)]
        valid_sizes = {0, 8, 16, 24, 32, 40, 48}
        barrier = threading.Barrier(5)
        observed, errors = [], []

        def writer():
            try:
                barrier.wait(timeout=10)
                for batch in batches:
                    catalog.add_triples("g", batch)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def reader():
            try:
                barrier.wait(timeout=10)
                for _ in range(12):
                    observed.append(len(service.answer("g", query).answers))
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert observed and all(size in valid_sizes for size in observed)
        assert len(service.answer("g", query).answers) == 48

    def test_statistics_stay_fresh_and_exact_after_races(self, catalog):
        """After concurrent ingest the profile equals a from-scratch scan
        (the exactness contract of incremental maintenance)."""
        service = QueryService(catalog, kind="weak")
        barrier = threading.Barrier(4)
        errors = []

        def writer(base):
            try:
                barrier.wait(timeout=10)
                for index in range(4):
                    catalog.add_triples("g", [_triple(base * 100 + index)])
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def reader():
            try:
                barrier.wait(timeout=10)
                for _ in range(8):
                    service.answer("g", _query())
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(base,)) for base in (1, 2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        entry = catalog.entry("g")
        assert entry.statistics_index() == CardinalityStatistics.from_store(entry.store)

    def test_weak_summary_stays_correct_after_races(self, catalog):
        service = QueryService(catalog, kind="weak")
        barrier = threading.Barrier(3)
        errors = []

        def writer():
            try:
                barrier.wait(timeout=10)
                for index in range(12):
                    catalog.add_triples("g", [_triple(index)])
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def reader():
            try:
                barrier.wait(timeout=10)
                for _ in range(8):
                    service.answer("g", _query())
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        entry = catalog.entry("g")
        assert graphs_isomorphic(
            entry.summary("weak").graph, summarize(entry.to_graph(), "weak").graph
        )


class TestExecutorLifecycle:
    def test_ingest_through_the_executor(self, catalog):
        service = QueryService(catalog, kind="weak")
        with QueryExecutor(service, max_workers=2) as executor:
            inserted = executor.run(catalog.add_triples, "g", [_triple(1), _triple(2)])
            assert inserted == 2
            answer = executor.answer("g", _query())
            assert len(answer.answers) == 2

    def test_invalid_worker_count_rejected(self, catalog):
        with pytest.raises(ValueError):
            QueryExecutor(QueryService(catalog), max_workers=0)
