"""Worker crash recovery and ingest/query races: no failed requests,
no wrong answers, ever."""

import os
import signal
import threading
import time

import pytest

from repro.cluster import ClusterCoordinator
from repro.model.terms import URI
from repro.model.triple import Triple
from repro.queries.generator import generate_rbgp_workload
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService


@pytest.fixture(params=[2, 3], ids=["k2", "k3"])
def crash_cluster(request, bsbm_small):
    """A cluster with K workers that the tests kill; every request must
    still match the serial service, whatever the worker count."""
    catalog = GraphCatalog()
    catalog.register("g", graph=bsbm_small)
    serial_catalog = GraphCatalog()
    serial_catalog.register("g", graph=bsbm_small)
    service = QueryService(serial_catalog)
    coordinator = ClusterCoordinator(catalog, workers=request.param, heartbeat_seconds=0.2)
    yield coordinator, service, serial_catalog
    coordinator.close()
    catalog.close()
    serial_catalog.close()


def _wait_alive(coordinator, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(w["alive"] for w in coordinator.status()["workers"]):
            return
        time.sleep(0.05)
    raise AssertionError("workers never came back alive")


def test_sigkill_worker_recovers_with_zero_diffs(crash_cluster, bsbm_small):
    coordinator, service, _ = crash_cluster
    queries = generate_rbgp_workload(bsbm_small, count=12, seed=3)
    for query in queries[:3]:  # warm both replicas
        coordinator.answer("g", query)
    victim = coordinator.status()["workers"][0]["pid"]
    os.kill(victim, signal.SIGKILL)
    # every request after the kill must still succeed and match serial —
    # the coordinator respawns and retries internally
    for query in queries:
        serial = service.answer("g", query)
        clustered = coordinator.answer("g", query)
        assert clustered.answers == serial.answers, query.to_sparql()
    status = coordinator.status()
    assert sum(w["respawns"] for w in status["workers"]) >= 1
    assert all(w["alive"] for w in status["workers"])


def test_kill_mid_query_stream(crash_cluster, bsbm_small):
    """SIGKILL workers while a query stream is in flight: zero client
    failures, zero answer diffs."""
    coordinator, service, _ = crash_cluster
    queries = generate_rbgp_workload(bsbm_small, count=10, seed=17)
    reference = {q.to_sparql(): service.answer("g", q).answers for q in queries}
    errors = []
    diffs = []
    stop = threading.Event()

    def client():
        while not stop.is_set():
            for query in queries:
                try:
                    answer = coordinator.answer("g", query)
                except Exception as error:  # noqa: BLE001 - the assertion
                    errors.append(error)
                    stop.set()
                    return
                if answer.answers != reference[query.to_sparql()]:
                    diffs.append(query.to_sparql())

    threads = [threading.Thread(target=client) for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(2):  # two rounds of murder mid-stream
            time.sleep(0.3)
            for worker in coordinator.status()["workers"]:
                if worker["pid"] is not None and worker["alive"]:
                    os.kill(worker["pid"], signal.SIGKILL)
                    break
            _wait_alive(coordinator)
    finally:
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    assert not errors, errors[:1]
    assert not diffs, diffs[:3]


def test_worker_sigterm_drains_and_respawns(crash_cluster, bsbm_small):
    """SIGTERM is the graceful half: the worker finishes its message in
    hand, exits, and the heartbeat resurrects the slot."""
    coordinator, service, _ = crash_cluster
    victim = coordinator.status()["workers"][1]["pid"]
    os.kill(victim, signal.SIGTERM)
    _wait_alive(coordinator)
    queries = generate_rbgp_workload(bsbm_small, count=6, seed=23)
    for query in queries:
        assert (
            coordinator.answer("g", query).answers
            == service.answer("g", query).answers
        )


def test_ingest_while_worker_down_is_not_lost(crash_cluster):
    coordinator, service, serial_catalog = crash_cluster
    victim = coordinator.status()["workers"][0]["pid"]
    os.kill(victim, signal.SIGKILL)
    triples = [
        Triple(URI("http://down/s"), URI("http://down/p"), URI(f"http://down/o{i}"))
        for i in range(5)
    ]
    # ingest lands while a worker is dead: the respawn's re-shipped
    # snapshot (or the queued delta) must carry it — never lose a row
    coordinator.add_triples("g", triples)
    serial_catalog.add_triples("g", triples)
    query = parse_query("SELECT ?o WHERE { <http://down/s> <http://down/p> ?o }")
    clustered = coordinator.answer("g", query)
    assert clustered.answers == service.answer("g", query).answers
    assert len(clustered.answers) == 5


def test_barrier_synchronized_ingest_vs_queries(crash_cluster):
    """Concurrent ingest and queries: BGP answers are monotone
    under inserts, so every observed answer set must satisfy
    initial ⊆ observed ⊆ final — and the final states must agree."""
    coordinator, service, serial_catalog = crash_cluster
    query = parse_query("SELECT ?o WHERE { <http://race/s> <http://race/p> ?o }")
    initial = coordinator.answer("g", query).answers
    assert initial == set()

    rounds = 6
    batches = [
        [
            Triple(
                URI("http://race/s"),
                URI("http://race/p"),
                URI(f"http://race/o{round_index}_{i}"),
            )
            for i in range(3)
        ]
        for round_index in range(rounds)
    ]
    final_terms = {
        (triple.object,) for batch in batches for triple in batch
    }
    barrier = threading.Barrier(2)
    observed = []
    failures = []

    def ingester():
        for batch in batches:
            barrier.wait()
            coordinator.add_triples("g", batch)

    def querier():
        for _ in batches:
            barrier.wait()
            try:
                for _ in range(3):
                    observed.append(coordinator.answer("g", query).answers)
            except Exception as error:  # noqa: BLE001 - the assertion
                failures.append(error)
                return

    threads = [threading.Thread(target=ingester), threading.Thread(target=querier)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures[:1]
    for answers in observed:
        assert answers <= final_terms  # never an answer that was never true
    # settled state: cluster and serial agree exactly
    for batch in batches:
        serial_catalog.add_triples("g", batch)
    assert coordinator.answer("g", query).answers == final_terms
    assert service.answer("g", query).answers == final_terms


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
    "error::ResourceWarning",
)
def test_thirty_respawn_rounds_then_close_leave_nothing_behind(fig2):
    """Retiring a generation never pulls the connection out from under its
    receiver (it used to die with ``TypeError`` about one run in ten), and
    neither a respawn nor ``close()`` leaks a descriptor, a zombie or an
    unwaited ``Popen``."""
    import gc

    query = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
    before = _open_fds()
    catalog = GraphCatalog()
    catalog.register("g", graph=fig2)
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    try:
        expected = coordinator.answer("g", query).answers
        steady = len(_open_fds())
        pids = set()
        for round_index in range(30):
            handle = coordinator._workers[round_index % 2]
            pids.add(handle.process.pid)
            if round_index % 3:
                os.kill(handle.process.pid, signal.SIGKILL)
            else:
                # the other way a generation ends: the coordinator gives up
                # on a worker that is still running (a delta it never acked)
                handle.alive = False
            for _each_worker in range(2):  # round-robin: one reaches the victim
                assert coordinator.answer("g", query).answers == expected
            assert handle.respawns == round_index // 2 + 1
            assert len(_open_fds()) == steady, f"descriptor leak in round {round_index}"
        pids.update(handle.process.pid for handle in coordinator._workers)
    finally:
        coordinator.close()
        catalog.close()
    gc.collect()
    assert _open_fds() == before
    assert len(pids) == 32
    for pid in pids:  # every worker ever started was waited for
        assert not os.path.exists(f"/proc/{pid}"), f"worker {pid} left running or a zombie"
