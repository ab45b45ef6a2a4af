"""Regressions for the coordinator/worker failure-path review fixes: a
query racing a drop or sent behind a re-ship is answered promptly,
registration snapshots once, sustained ingest during a
respawn re-ship must never wedge the write path, a segment load adopts
its columns and holds no term, a failed load or catch-up cleans up after
itself, and no worker ever assigns a dictionary id."""

import os
import signal
import threading
import time

import pytest

from repro.cluster import ClusterCoordinator, protocol, shm
from repro.cluster.worker import _Worker
from repro.errors import ReproError, WorkerCrashedError
from repro.model.namespaces import RDF_TYPE, RDFS_DOMAIN
from repro.model.terms import URI
from repro.model.triple import Triple, TripleKind
from repro.queries.parser import parse_query
from repro.schema.encoded_saturation import vocabulary_ids
from repro.service.catalog import GraphCatalog
from repro.service.evaluator import compile_query
from repro.service.service import QueryService
from repro.store.memory import MemoryStore


class _PipeStub:
    """Collects a worker's replies instead of crossing a process pipe."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


def _triples(count, prefix="http://x"):
    return [
        Triple(URI(f"{prefix}/s"), URI(f"{prefix}/p"), URI(f"{prefix}/o{i}"))
        for i in range(count)
    ]


def _load_payload(registry, store, name="g", version=0):
    """An ``OP_LOAD`` the way the coordinator builds one: the store packed
    into a segment of *registry*, plus an empty log."""
    segment_name, directory, _ = registry.pack(
        name, version, protocol.pack_full_tables(store), protocol.BYTEORDER
    )
    return name, version, (segment_name, directory), vocabulary_ids(store.dictionary), []


@pytest.fixture
def registry():
    registry = shm.SegmentRegistry()
    yield registry
    registry.close()
    assert shm.list_segments() == []


def _query_payload(store, text="SELECT ?o WHERE { <http://x/s> <http://x/p> ?o }"):
    """An ``OP_QUERY``: *text* compiled against the coordinator-side
    *store*'s dictionary."""
    compiled = compile_query(parse_query(text), store.dictionary)
    return protocol.query_payload("g", compiled, None, False, False, None)


class _ScriptedPipe(_PipeStub):
    """A pipe stub whose other end already wrote *messages*: the worker's
    own loop reads them in order, then sees EOF."""

    def __init__(self, messages):
        super().__init__()
        self.messages = list(messages)

    def poll(self, _timeout):
        return True

    def recv(self):
        if not self.messages:
            raise EOFError
        return self.messages.pop(0)


def test_query_racing_a_drop_gets_unknown_graph_promptly(registry):
    """A query that reaches the worker behind the drop of its graph is
    answered at once with the unknown-graph error — nothing parks it, so
    the coordinator-side waiter never sits out the request timeout."""
    store = MemoryStore()
    store.insert_triples(_triples(3))
    pipe = _ScriptedPipe(
        [
            (1, protocol.OP_LOAD, _load_payload(registry, store)),
            (2, protocol.OP_QUERY, _query_payload(store)),
            (3, protocol.OP_DROP, ("g",)),
            (7, protocol.OP_QUERY, _query_payload(store)),
        ]
    )
    worker = _Worker(pipe, {})
    worker.run()
    # answered strictly in arrival order: nothing is held back
    assert [request_id for request_id, _, _ in pipe.sent] == [1, 2, 3, 7]
    replies = {rid: (status, payload) for rid, status, payload in pipe.sent}
    assert replies[2][0] == "ok" and len(replies[2][1]["rows"]) == 3
    status, payload = replies[7]
    assert status == "error"
    assert payload[0] == "unknown_graph"
    store.close()


def test_query_sent_behind_a_reship_is_answered_from_the_fresh_copy(registry):
    """A re-ship/replace load replaces the stale copy, and the query sent
    right behind it — and behind a catch-up delta — sees every row."""
    store = MemoryStore()
    store.insert_triples(_triples(2))
    stale = _load_payload(registry, store, version=0)
    fresh = store.insert_triples(_triples(3), skip_existing=True)
    entry = (1, None, [(kind.value, row[0], row[1], row[2]) for kind, row in fresh])
    reshipped = stale[:4] + ([entry],)  # the same image plus the log since
    store.insert_triples(_triples(4))
    later = shm.SegmentRegistry()  # the next generation, its stale one still named
    pipe = _ScriptedPipe(
        [
            (1, protocol.OP_LOAD, stale),
            (2, protocol.OP_LOAD, reshipped),
            (11, protocol.OP_QUERY, _query_payload(store)),
            (12, protocol.OP_LOAD, _load_payload(later, store, version=2)),
            (13, protocol.OP_QUERY, _query_payload(store)),
        ]
    )
    worker = _Worker(pipe, {})
    worker.run()
    later.close()
    replies = {rid: (status, payload) for rid, status, payload in pipe.sent}
    assert replies[2][1]["version"] == 1
    assert replies[11][0] == "ok" and len(replies[11][1]["rows"]) == 3
    assert replies[13][0] == "ok" and len(replies[13][1]["rows"]) == 4
    store.close()


def test_failed_catch_up_leaves_no_copy_to_answer_from(registry):
    """A delta the worker cannot apply (a row for a table that does not
    exist) drops the graph instead of leaving a replica that misses a
    batch: the query behind it gets unknown-graph, and a fresh load
    recovers."""
    store = MemoryStore()
    store.insert_triples(_triples(2))
    worker = _Worker(_PipeStub(), {})
    worker.handle_load(_load_payload(registry, store))
    corrupt = (1, None, [("no-such-table", 0, 1, 2)])
    with pytest.raises(ValueError, match="no-such-table"):
        worker.handle_delta(("g", [corrupt]))
    assert worker.graphs == {} and worker.catalog.names() == []
    worker._reply(9, worker.handle_query, _query_payload(store))
    assert worker.connection.sent[-1][2][0] == "unknown_graph"
    worker.handle_load(_load_payload(registry, store))
    assert len(worker.handle_query(_query_payload(store))["rows"]) == 2
    worker.close()
    store.close()


def test_load_adopts_the_segment_and_holds_no_term(registry):
    """A load acks at once: the columns are adopted (not copied), and the
    replica holds integers only — its dictionary stays empty and it never
    primes a summary maintainer, whatever it evaluates."""
    catalog = GraphCatalog()
    entry = catalog.register("g", graph=_triples(6))
    worker = _Worker(_PipeStub(), {})
    try:
        reply = worker.handle_load(_load_payload(registry, entry.store))
        assert set(reply) == {"name", "version", "rows", "attach_seconds"}
        assert reply["rows"] == 6
        assert len(worker.segments) == 1
        replica = worker.catalog.entry("g")
        # segment pages are shared between workers: nothing private
        memory = worker.handle_ping(())["column_memory"]
        column_bytes = 6 * 12  # six rows, three 4-byte ids a row
        assert memory == {"private_bytes": 0, "adopted_bytes": column_bytes}
        rbgp = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }"  # guarded, on the coordinator
        for _again in range(2):
            answer = worker.handle_query(_query_payload(entry.store, rbgp))
            assert len(answer["rows"]) == 6
        assert len(replica.store.dictionary) == 0
        assert replica.build_counters["prime_scans"] == 0
    finally:
        worker.close()
        catalog.close()


@pytest.mark.parametrize("fault", ["row-count", "register"])
def test_failed_load_leaves_nothing_behind(registry, fault, monkeypatch):
    """A load that raises — on a corrupt directory, or when the replica is
    registered — leaves no catalog entry or mapping, so a correct re-ship
    of the same name succeeds."""
    catalog = GraphCatalog()
    entry = catalog.register("g", graph=_triples(4))
    worker = _Worker(_PipeStub(), {})
    good = _load_payload(registry, entry.store)
    try:
        if fault == "row-count":
            name, version, (segment_name, directory), vocabulary, deltas = good
            data = TripleKind.DATA.value
            count, *offsets = directory["tables"][data]
            corrupt = {**directory, "tables": {**directory["tables"], data: (count + 1, *offsets)}}
            bad = (name, version, (segment_name, corrupt), vocabulary, deltas)
        else:
            bad = good

            def refuse(*_args, **_kwargs):
                raise ReproError("full replica refused")

            monkeypatch.setattr(worker.catalog, "register", refuse)
        with pytest.raises(ReproError, match="row count mismatch|refused"):
            worker.handle_load(bad)
        monkeypatch.undo()
        assert worker.graphs == {} and worker.segments == {}
        assert worker.catalog.names() == []
        worker.handle_load(good)
        assert len(worker.handle_query(_query_payload(entry.store))["rows"]) == 4
    finally:
        worker.close()
        catalog.close()


def test_a_saturated_query_mints_no_id_on_a_worker():
    """A graph with a domain constraint but no type triple: a worker's
    ``G∞`` derives ``rdf:type`` rows, so ``rdf:type`` needs an id.  A
    worker holds no dictionary to mint one in: the coordinator mints it
    before the first pack and sends it in the vocabulary map, so ``G∞``
    rows decode with the right predicate at the coordinator."""
    triples = [
        Triple(URI("http://x/a"), URI("http://x/p"), URI("http://x/b")),
        Triple(URI("http://x/p"), RDFS_DOMAIN, URI("http://x/C")),
    ]
    serial_catalog = GraphCatalog()
    serial_catalog.register("g", graph=triples)
    service = QueryService(serial_catalog)
    catalog = GraphCatalog()
    catalog.register("g", graph=triples)
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    typed = parse_query("SELECT ?s ?o WHERE { ?s <%s> ?o }" % RDF_TYPE.value)
    probes = [
        (parse_query("SELECT ?o WHERE { <http://x/x> <http://x/q> ?o }"), False),
        (parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }"), False),
        (parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }"), True),
        (typed, True),
    ]
    try:
        for _each_replica in range(2):
            assert coordinator.answer("g", typed, saturated=True).answers == {
                (URI("http://x/a"), URI("http://x/C"))
            }
        ingested = [Triple(URI("http://x/x"), URI("http://x/q"), URI("http://x/y"))]
        coordinator.add_triples("g", ingested)
        serial_catalog.add_triples("g", ingested)
        for _each_replica in range(2):
            for query, saturated in probes:
                answer = coordinator.answer("g", query, saturated=saturated)
                expected = service.answer("g", query, saturated=saturated)
                assert answer.answers == expected.answers, (query.to_sparql(), saturated)
        assert (URI("http://x/y"),) in coordinator.answer("g", probes[0][0]).answers
    finally:
        coordinator.close()
        catalog.close()
        serial_catalog.close()


@pytest.mark.parametrize("fold_rows", [1 << 16, 1], ids=["logged", "folded"])
def test_a_constraint_property_first_used_in_a_later_batch(fold_rows):
    """``rdfs:domain`` gets its id in an ingest batch, after the image
    shipped: its id reaches the workers in that batch's log entry (or, past
    a fold, in the load), ahead of the rows — so each worker's ``G∞`` types
    the subjects exactly as the in-process one does."""
    triples = [
        Triple(URI("http://v/a"), URI("http://v/p"), URI("http://v/b")),
        Triple(URI("http://v/c"), RDF_TYPE, URI("http://v/C")),
    ]
    later = [
        Triple(URI("http://v/p"), RDFS_DOMAIN, URI("http://v/D")),
        Triple(URI("http://v/d"), URI("http://v/p"), URI("http://v/e")),
    ]
    serial_catalog = GraphCatalog()
    serial_catalog.register("g", graph=triples)
    service = QueryService(serial_catalog)
    catalog = GraphCatalog()
    catalog.register("g", graph=triples)
    coordinator = ClusterCoordinator(
        catalog, workers=2, heartbeat_seconds=0, shm_fold_rows=fold_rows
    )
    typed = parse_query("SELECT ?s ?o WHERE { ?s <%s> ?o }" % RDF_TYPE.value)
    try:
        for _each_replica in range(2):  # G∞ built on both before the batch
            assert len(coordinator.answer("g", typed, saturated=True).answers) == 1
        coordinator.add_triples("g", later)
        serial_catalog.add_triples("g", later)
        expected = service.answer("g", typed, saturated=True).answers
        assert (URI("http://v/a"), URI("http://v/D")) in expected
        for _each_replica in range(2):
            answer = coordinator.answer("g", typed, saturated=True)
            assert answer.cluster["workers"] and answer.answers == expected
    finally:
        coordinator.close()
        catalog.close()
        serial_catalog.close()


def test_register_snapshots_once(bsbm_small, monkeypatch):
    """register() must pack the graph's tables once for all K workers, not
    once per worker."""
    calls = []
    real = protocol.pack_full_tables

    def counting(store):
        calls.append(store)
        return real(store)

    monkeypatch.setattr(protocol, "pack_full_tables", counting)
    catalog = GraphCatalog()
    coordinator = ClusterCoordinator(catalog, workers=3, heartbeat_seconds=0)
    try:
        coordinator.register("bsbm", graph=bsbm_small)
        assert len(calls) == 1
        query = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
        assert coordinator.answer("bsbm", query).answers
    finally:
        coordinator.close()
        catalog.close()


def test_ingest_during_respawn_reship_does_not_wedge(bsbm_small):
    """Sustained ingest while a worker is being respawned and re-shipped:
    the write path must keep moving (the respawned worker is sent the log)
    and no row may be lost."""
    catalog = GraphCatalog()
    catalog.register("g", graph=bsbm_small)
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0.1)
    try:
        victim = coordinator.status()["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        done = threading.Event()
        failures = []

        def ingest():
            try:
                for i in range(30):
                    coordinator.add_triples(
                        "g",
                        [
                            Triple(
                                URI(f"http://wedge/s{i % 3}"),
                                URI("http://wedge/p"),
                                URI(f"http://wedge/o{i}"),
                            )
                        ],
                    )
            except Exception as error:  # noqa: BLE001 - the assertion
                failures.append(error)
            finally:
                done.set()

        thread = threading.Thread(target=ingest, daemon=True)
        thread.start()
        assert done.wait(timeout=60), "ingest wedged during the respawn re-ship"
        thread.join(timeout=10)
        assert not failures, failures[:1]
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if all(w["alive"] for w in coordinator.status()["workers"]):
                break
            time.sleep(0.05)
        query = parse_query("SELECT ?s ?o WHERE { ?s <http://wedge/p> ?o }")
        for _each_worker in range(2):  # every batch reached both workers
            assert len(coordinator.answer("g", query).answers) == 30
    finally:
        coordinator.close()
        catalog.close()


@pytest.mark.parametrize("seed", [1])
def test_concurrent_register_and_ingest_other_graph(bsbm_small, seed):
    """Registering a new graph while another graph ingests: neither path
    may deadlock on the send locks, and both end complete."""
    catalog = GraphCatalog()
    catalog.register("base", graph=bsbm_small)
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    try:
        done = threading.Event()
        failures = []

        def ingest():
            try:
                for i in range(20):
                    coordinator.add_triples(
                        "base",
                        [
                            Triple(
                                URI(f"http://reg/s{i}"),
                                URI("http://reg/p"),
                                URI(f"http://reg/o{i}"),
                            )
                        ],
                    )
            except Exception as error:  # noqa: BLE001 - the assertion
                failures.append(error)
            finally:
                done.set()

        thread = threading.Thread(target=ingest, daemon=True)
        thread.start()
        coordinator.register("extra", graph=bsbm_small)
        assert done.wait(timeout=60), "ingest wedged behind register()"
        thread.join(timeout=10)
        assert not failures, failures[:1]
        query = parse_query("SELECT ?s ?o WHERE { ?s <http://reg/p> ?o }")
        assert len(coordinator.answer("base", query).answers) == 20
        probe = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
        assert coordinator.answer("extra", probe).answers
    finally:
        coordinator.close()
        catalog.close()


def test_two_worker_deaths_under_one_request_fit_the_crash_budget(bsbm_small):
    """A slow request can straddle two worker deaths — the whole
    ``max_retries`` budget.  Each retry reaches a worker that has been sent
    nothing and loads it ahead of itself, so there is no "graph not there
    yet" answer to wait out and nothing else is charged to the budget."""
    catalog = GraphCatalog()
    catalog.register("g", graph=bsbm_small)
    coordinator = ClusterCoordinator(catalog, workers=1, heartbeat_seconds=0)
    try:
        assert coordinator.max_retries == 2
        handle = coordinator._workers[0]
        query = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
        expected = coordinator.answer("g", query).answers
        real_request = coordinator._request
        kills = []

        def dying(h, op, payload, timeout, sync=()):
            if op == protocol.OP_QUERY and len(kills) < 2:
                # the worker dies with the query in its pipe
                kills.append(h.process.pid)
                os.kill(h.process.pid, signal.SIGKILL)
            return real_request(h, op, payload, timeout, sync)

        coordinator._request = dying
        answer = coordinator.answer("g", query)
        assert answer.answers == expected
        assert answer.cluster["retries"] == 2 and len(set(kills)) == 2
        assert handle.respawns == 2
        # a third death under one request is over the budget
        kills.clear()
        coordinator.max_retries = 1
        with pytest.raises(WorkerCrashedError):
            coordinator.answer("g", query)
    finally:
        coordinator.close()
        catalog.close()


def test_crash_during_respawn_reship_is_retried(bsbm_small, monkeypatch):
    """A second kill can land while _ensure_alive is still re-shipping the
    first victim's replacement: the re-ship's own crash must feed back
    into the retry loop (budget-checked), not escape to the client."""
    catalog = GraphCatalog()
    catalog.register("g", graph=bsbm_small)
    coordinator = ClusterCoordinator(catalog, workers=1, heartbeat_seconds=0)
    try:
        request_script = [WorkerCrashedError("worker 0 pipe closed")]
        ensure_script = [WorkerCrashedError("worker 0 send failed: died mid-reship")]
        real_request = coordinator._request
        real_ensure = coordinator._ensure_alive

        def scripted_request(h, op, payload, timeout, sync=()):
            if request_script:
                raise request_script.pop(0)
            return real_request(h, op, payload, timeout, sync)

        def scripted_ensure(h, generation):
            if ensure_script:
                raise ensure_script.pop(0)
            return real_ensure(h, generation)

        monkeypatch.setattr(coordinator, "_request", scripted_request)
        monkeypatch.setattr(coordinator, "_ensure_alive", scripted_ensure)
        query = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
        answer = coordinator.answer("g", query)
        assert answer.answers
        assert not request_script and not ensure_script
    finally:
        coordinator.close()
        catalog.close()
