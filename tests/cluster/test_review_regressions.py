"""Regressions for the coordinator/worker failure-path review fixes: a
query racing a drop or sent behind a re-ship is answered promptly,
registration snapshots once, sustained ingest during a
respawn re-ship must never wedge the write path, a segment load adopts
its columns and defers the rest, a failed load cleans up after itself, and
no worker ever assigns a dictionary id."""

import os
import signal
import threading
import time

import pytest

from repro.cluster import ClusterCoordinator, protocol, shm
from repro.cluster.worker import TARGET_FULL, TARGET_SHARD, _Worker
from repro.errors import DictionaryError, ReproError, WorkerCrashedError
from repro.model.namespaces import RDF_TYPE, RDFS_DOMAIN
from repro.model.terms import URI
from repro.model.triple import Triple, TripleKind
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
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


def _load_payload(registry, store, name="g", version=0, shards=1):
    """An ``OP_LOAD`` for shard 0 the way the coordinator builds one: the
    store packed into a segment of *registry*, plus an empty log."""
    segment_name, directory, _ = registry.pack(
        name,
        version,
        protocol.pack_term_chunks(store.dictionary),
        protocol.pack_all_shard_tables(store, shards),
        protocol.pack_full_tables(store),
        protocol.BYTEORDER,
    )
    return name, version, (segment_name, directory), []


@pytest.fixture
def registry():
    registry = shm.SegmentRegistry()
    yield registry
    registry.close()
    assert shm.list_segments() == []


def _query_payload(
    target=TARGET_FULL, text="SELECT ?o WHERE { <http://x/s> <http://x/p> ?o }"
):
    return (
        "g",
        text,
        target,
        None,
        False,
        False,
        None,
    )


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
            (2, protocol.OP_QUERY, _query_payload()),
            (3, protocol.OP_DROP, ("g",)),
            (7, protocol.OP_QUERY, _query_payload()),
        ]
    )
    worker = _Worker(pipe, {"shard_index": 0, "shard_count": 1})
    worker.run()
    # answered strictly in arrival order: nothing is held back
    assert [request_id for request_id, _, _ in pipe.sent] == [1, 2, 3, 7]
    replies = {rid: (status, payload) for rid, status, payload in pipe.sent}
    assert replies[2][0] == "ok" and len(replies[2][1]["answers"]) == 3
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
    mark = len(store.dictionary)
    fresh = store.insert_triples(_triples(3), skip_existing=True)
    entry = (
        1,
        (mark, protocol.pack_terms(store.dictionary, mark)),
        [(kind.value, row[0], row[1], row[2]) for kind, row in fresh],
    )
    reshipped = stale[:3] + ([entry],)  # the same image plus the log since
    store.insert_triples(_triples(4))
    later = shm.SegmentRegistry()  # the next generation, its stale one still named
    pipe = _ScriptedPipe(
        [
            (1, protocol.OP_LOAD, stale),
            (2, protocol.OP_LOAD, reshipped),
            (11, protocol.OP_QUERY, _query_payload()),
            (12, protocol.OP_LOAD, _load_payload(later, store, version=2)),
            (13, protocol.OP_QUERY, _query_payload()),
        ]
    )
    worker = _Worker(pipe, {"shard_index": 0, "shard_count": 1})
    worker.run()
    later.close()
    replies = {rid: (status, payload) for rid, status, payload in pipe.sent}
    assert replies[2][1]["version"] == 1
    assert replies[11][0] == "ok" and len(replies[11][1]["answers"]) == 3
    assert replies[13][0] == "ok" and len(replies[13][1]["answers"]) == 4
    store.close()


@pytest.mark.parametrize("offset", [5, -1], ids=["gap", "overlap"])
def test_failed_catch_up_leaves_no_copy_to_answer_from(registry, offset):
    """A delta the worker cannot apply (its terms do not start where the
    worker's dictionary ends) drops the graph instead of leaving a replica
    that misses a batch or mis-keys a term: the query behind it gets
    unknown-graph, and a fresh load recovers."""
    store = MemoryStore()
    store.insert_triples(_triples(2))
    worker = _Worker(_PipeStub(), {"shard_index": 0, "shard_count": 1})
    worker.handle_load(_load_payload(registry, store))
    mismatch = (1, (len(store.dictionary) + offset, []), [])
    with pytest.raises(DictionaryError, match="term offset mismatch"):
        worker.handle_delta(("g", [mismatch]))
    assert worker.graphs == {} and worker.full_catalog.names() == []
    worker._reply(9, worker.handle_query, _query_payload())
    assert worker.connection.sent[-1][2][0] == "unknown_graph"
    worker.handle_load(_load_payload(registry, store))
    assert len(worker.handle_query(_query_payload())["answers"]) == 2
    worker.close()
    store.close()


def test_load_adopts_the_segment_and_defers_the_rest(registry):
    """A load acks at once: the columns are adopted (not copied), neither
    store primes its summary maintainer at load — each does exactly once,
    on its first guarded query — and the dictionary waits for the first
    query."""
    catalog = GraphCatalog()
    entry = catalog.register("g", graph=_triples(6))
    worker = _Worker(_PipeStub(), {"shard_index": 0, "shard_count": 1})
    try:
        reply = worker.handle_load(_load_payload(registry, entry.store))
        assert set(reply) == {"name", "version", "shard_rows", "full_rows", "attach_seconds"}
        assert reply["shard_rows"] == reply["full_rows"] == 6
        assert len(worker.segments) == 1
        shard_entry = worker.shard_catalog.entry("g")
        full_entry = worker.full_catalog.entry("g")
        assert "g" in worker._pending_terms and len(full_entry.store.dictionary) == 0
        assert shard_entry.build_counters["prime_scans"] == 0
        assert full_entry.build_counters["prime_scans"] == 0
        # segment pages are shared between workers: nothing private
        memory = worker.handle_ping(())["column_memory"]
        column_bytes = 2 * 6 * 12  # two stores, six rows, three 4-byte ids a row
        assert memory == {"private_bytes": 0, "adopted_bytes": column_bytes}
        guarded = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }"  # an RBGP: the guard runs
        for _again in range(2):
            for target in (TARGET_SHARD, TARGET_FULL):
                answer = worker.handle_query(_query_payload(target, guarded))
                assert answer["prunable"] and len(answer["answers"]) == 6
        assert shard_entry.build_counters["prime_scans"] == 1
        assert full_entry.build_counters["prime_scans"] == 1
    finally:
        worker.close()
        catalog.close()


@pytest.mark.parametrize("fault", ["full-row-count", "full-register"])
def test_failed_load_leaves_nothing_behind(registry, fault, monkeypatch):
    """A load that raises — before or after the shard entry was registered
    — leaves no catalog entry, mapping or pending state, so a correct
    re-ship of the same name succeeds (the old pipe loader left the shard
    entry registered and every re-ship died on DuplicateGraphError)."""
    catalog = GraphCatalog()
    entry = catalog.register("g", graph=_triples(4))
    worker = _Worker(_PipeStub(), {"shard_index": 0, "shard_count": 1})
    good = _load_payload(registry, entry.store)
    try:
        if fault == "full-row-count":
            name, version, (segment_name, directory), deltas = good
            data = TripleKind.DATA.value
            count, *offsets = directory["targets"]["full"][data]
            full = {**directory["targets"]["full"], data: (count + 1, *offsets)}
            corrupt = {**directory, "targets": {**directory["targets"], "full": full}}
            bad = (name, version, (segment_name, corrupt), deltas)
        else:
            bad = good

            def refuse(*_args, **_kwargs):
                raise ReproError("full replica refused")

            monkeypatch.setattr(worker.full_catalog, "register", refuse)
        with pytest.raises(ReproError, match="row count mismatch|refused"):
            worker.handle_load(bad)
        monkeypatch.undo()
        assert worker.graphs == {} and worker.segments == {}
        assert worker._pending_terms == {}
        assert worker.shard_catalog.names() == [] and worker.full_catalog.names() == []
        worker.handle_load(good)
        assert len(worker.handle_query(_query_payload())["answers"]) == 4
    finally:
        worker.close()
        catalog.close()


def test_a_saturated_query_mints_no_id_on_a_worker():
    """A graph with a domain constraint but no type triple: a worker's
    ``G∞`` derives ``rdf:type`` rows, so ``rdf:type`` needs an id.  Were it
    minted on the worker, the next logged batch's terms would land one id
    off there — a constant-subject probe would miss the ingested row, and
    ``G∞`` rows would decode with a wrong predicate at the coordinator."""
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


def test_register_snapshots_once(bsbm_small, monkeypatch):
    """register() must pack the shard tables once for all K workers, not
    re-partition the whole store per worker."""
    calls = []
    real = protocol.pack_all_shard_tables

    def counting(store, shard_count):
        calls.append(shard_count)
        return real(store, shard_count)

    monkeypatch.setattr(protocol, "pack_all_shard_tables", counting)
    catalog = GraphCatalog()
    coordinator = ClusterCoordinator(catalog, workers=3, heartbeat_seconds=0)
    try:
        coordinator.register("bsbm", graph=bsbm_small)
        assert calls == [3]
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
        answer = coordinator.answer("g", query)
        assert len(answer.answers) == 30  # every batch reached both workers
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
