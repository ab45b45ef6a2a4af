"""Concurrency tests: races between queries and ingest must stay correct."""

import sys
import threading
import time

import pytest

from repro import telemetry
from repro.core.builders import summarize
from repro.errors import UnknownGraphError
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


class TestSlots:
    """The executor is a bound, not a pool: work runs on its caller's
    thread, and at most ``max_workers`` callers are inside at once."""

    def test_answer_and_run_execute_on_the_calling_thread(self, catalog):
        service = QueryService(catalog, kind="weak")
        seen = []
        answer = service.answer
        service.answer = lambda *args, **kwargs: (
            seen.append(threading.get_ident()),
            answer(*args, **kwargs),
        )[1]
        with QueryExecutor(service, max_workers=2) as executor:
            assert executor.answer("g", _query()).answers == answer("g", _query()).answers
            assert executor.run(threading.get_ident) == threading.get_ident()
        assert seen == [threading.get_ident()]

    def test_no_more_than_max_workers_calls_inside_at_once(self, catalog):
        """16 threads on 2 slots with a shortened switch interval: the count
        of calls inside never passes 2, and nobody is left counted as waiting."""
        service = QueryService(catalog, kind="weak")
        lock = threading.Lock()
        inside, peak = [0], [0]

        def guarded(*_args, **_kwargs):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            time.sleep(0.0005)  # releases the GIL: lets the others try
            with lock:
                inside[0] -= 1

        service.answer = guarded
        executor = QueryExecutor(service, max_workers=2)
        errors = []

        def caller(number):
            try:
                for _ in range(20):
                    if number % 2:
                        executor.answer("g", _query())
                    else:
                        executor.run(guarded)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(n,)) for n in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert peak[0] == 2 and inside[0] == 0
        assert not executor._waiting
        executor.shutdown()

    def test_queue_depth_is_the_number_of_threads_waiting_for_a_slot(self, catalog):
        executor = QueryExecutor(QueryService(catalog, kind="weak"), max_workers=2)
        depth = telemetry.gauge("executor.queue.depth")
        release = threading.Event()
        threads = [
            threading.Thread(target=executor.run, args=(release.wait, 30)) for _ in range(5)
        ]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while depth.value != 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert depth.value == 3  # two hold the slots, three wait
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=30)
        assert depth.value == 0
        executor.shutdown()

    def test_shutdown_waits_for_calls_in_flight_and_refuses_later_ones(self, catalog):
        executor = QueryExecutor(QueryService(catalog, kind="weak"), max_workers=2)
        started, release, finished = threading.Event(), threading.Event(), []

        def slow():
            started.set()
            release.wait(30)
            finished.append(True)

        thread = threading.Thread(target=executor.run, args=(slow,))
        thread.start()
        assert started.wait(10)
        threading.Timer(0.1, release.set).start()
        executor.shutdown()
        assert finished == [True]
        thread.join(timeout=10)
        with pytest.raises(RuntimeError):
            executor.run(lambda: None)

    def test_map_answers_raises_the_first_failure_in_input_order(self, catalog):
        with QueryExecutor(QueryService(catalog, kind="weak"), max_workers=4) as executor:
            with pytest.raises(UnknownGraphError):
                executor.map_answers("no-such-graph", [_query()] * 6)
            assert executor.map_answers("g", []) == []
