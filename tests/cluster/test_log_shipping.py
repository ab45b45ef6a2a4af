"""Log shipping: a worker learns of a write from the graph's log, sent
ahead of its next request by the one sender of its pipe.

Instead of one hand-picked interleaving per past bug, seeded schedules mix
ingest, folds, worker kills, drop + register and four query shapes, and
check after every step that the cluster answers exactly what the
in-process service answers on the same catalog, from the worker the
round-robin names — so a query issued right after an ingest sees it on
whichever replica it lands, across a fold and across a respawn.  Plus the faults around it: a fold or a
registration that cannot pack, and a worker that stopped reading."""

import errno
import os
import random
import signal
import sqlite3
import threading
import time

import pytest

from repro import telemetry
from repro.cluster import ClusterCoordinator, shm
from repro.errors import SegmentError, UnknownGraphError
from repro.model.namespaces import RDF_TYPE, RDFS_SUBCLASSOF
from repro.model.terms import URI
from repro.model.triple import Triple
from repro.queries.parser import parse_query
from repro.server.http import ServerApp
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService

FOLD_ROWS = 8
STEPS = 14


def _uri(kind, number):
    return URI(f"http://log/{kind}{number}")


def _batch(rng, size):
    """*size* fresh-ish triples over a small vocabulary: data rows that
    chain (objects are subjects too), type rows, and the odd schema row."""
    triples = []
    for _ in range(size):
        roll = rng.random()
        subject = _uri("n", rng.randrange(12))
        if roll < 0.7:
            triples.append(Triple(subject, _uri("p", rng.randrange(3)), _uri("n", rng.randrange(40))))
        elif roll < 0.9:
            triples.append(Triple(subject, RDF_TYPE, _uri("C", rng.randrange(4))))
        else:
            triples.append(
                Triple(_uri("C", rng.randrange(4)), RDFS_SUBCLASSOF, _uri("C", rng.randrange(4, 6)))
            )
    return triples


#: One probe per query shape: a star on a variable subject, a constant
#: subject, a chain, and saturated semantics.
_PROBES = [
    ("SELECT ?s ?o WHERE { ?s <http://log/p0> ?o }", False),
    ("SELECT ?p ?o WHERE { <http://log/n3> ?p ?o }", False),
    ("SELECT ?a ?c WHERE { ?a <http://log/p0> ?b . ?b <http://log/p1> ?c }", False),
    ("SELECT ?s ?c WHERE { ?s <%s> ?c }" % RDF_TYPE.value, True),
]


def _own_segments():
    prefix = f"{shm.SEGMENT_PREFIX}-{os.getpid()}-"
    return [name for name in shm.list_segments() if name.startswith(prefix)]


@pytest.mark.parametrize("workers", [2, 3], ids=["k2", "k3"])
@pytest.mark.parametrize("seed", range(20))
def test_seeded_schedule_matches_the_in_process_service(seed, workers):
    rng = random.Random(seed)
    catalog = GraphCatalog()
    catalog.register("g", graph=_batch(rng, 10))
    service = QueryService(catalog)
    coordinator = ClusterCoordinator(
        catalog, workers=workers, heartbeat_seconds=0, shm_fold_rows=FOLD_ROWS
    )
    packs = 1  # the register at start()
    logged = 0
    queries = 0  # the round-robin position: each evaluated query goes to the next worker
    try:
        for step in range(STEPS):
            op = rng.choice(["add", "add", "add", "fold", "kill", "reregister", "query"])
            if op in ("add", "fold"):
                size = FOLD_ROWS if op == "fold" else rng.randrange(1, 4)
                logged += coordinator.add_triples("g", _batch(rng, size))
                if logged >= FOLD_ROWS:
                    logged = 0
                    packs += 1
            elif op == "kill":
                victim = coordinator.status()["workers"][rng.randrange(workers)]
                if victim["alive"]:  # else: still down from an earlier kill
                    os.kill(victim["pid"], signal.SIGKILL)
            elif op == "reregister":
                coordinator.drop("g")
                coordinator.register("g", graph=_batch(rng, 10))
                logged = 0
                packs += 1
            text, saturated = rng.choice(_PROBES)
            query = parse_query(text)
            answer = coordinator.answer("g", query, saturated=saturated)
            expected = service.answer("g", query, saturated=saturated)
            context = (seed, workers, step, op, text)
            assert answer.answers == expected.answers, context
            if answer.cluster["workers"]:
                assert answer.cluster["workers"] == [queries % workers], context
                queries += 1
            else:  # pruned, or a dictionary miss: the front end answered alone
                assert not expected.answers, context
            status = coordinator.status()
            # a pack happens at register and at a fold — never for a kill,
            # a lagging worker or a respawn
            assert status["shm"]["packs"] == packs, context
            assert status["shm"]["logged_delta_rows"] == logged, context
            # the log is bounded by the fold, whoever has or has not read it
            for worker in status["workers"]:
                assert worker["queued_deltas"] <= FOLD_ROWS, context
        # at rest every probe agrees, whichever worker lagged
        for text, saturated in _PROBES * workers:
            query = parse_query(text)
            assert (
                coordinator.answer("g", query, saturated=saturated).answers
                == service.answer("g", query, saturated=saturated).answers
            )
    finally:
        coordinator.close()
        catalog.close()
    assert _own_segments() == []


def test_thread_census():
    """A started coordinator owns one heartbeat thread and nothing else, and
    none without a heartbeat: no thread per worker sends deltas or routes
    replies any more."""
    before = set(threading.enumerate())
    for heartbeat_seconds, expected in ((30, ["repro-heartbeat"]), (0, [])):
        catalog = GraphCatalog()
        catalog.register("g", graph=_batch(random.Random(0), 10))
        coordinator = ClusterCoordinator(
            catalog, workers=3, heartbeat_seconds=heartbeat_seconds
        )
        try:
            coordinator.add_triples("g", _batch(random.Random(1), 5))
            coordinator.answer("g", parse_query(_PROBES[0][0]))
            names = sorted(thread.name for thread in set(threading.enumerate()) - before)
            assert names == expected
        finally:
            coordinator.close()
            catalog.close()
        assert set(threading.enumerate()) - before == set()


def test_queued_deltas_counts_log_entries_not_yet_sent():
    """``queued_deltas`` and the ``cluster.delta.queue.depth`` gauge kept
    their names: they report log entries a worker has not been sent."""
    catalog = GraphCatalog()
    catalog.register("g", graph=_batch(random.Random(0), 10))
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    gauge = telemetry.gauge("cluster.delta.queue.depth")
    try:
        base = gauge.value
        for i in range(3):
            coordinator.add_triples("g", [Triple(_uri("q", i), _uri("p", 0), _uri("q", i + 1))])
        queued = [worker["queued_deltas"] for worker in coordinator.status()["workers"]]
        assert queued == [3, 3]  # nobody was told: ingest touches no pipe
        assert gauge.value - base == 6
        owner = coordinator.answer("g", parse_query("SELECT ?o WHERE { <http://log/q0> ?p ?o }"))
        (contacted,) = owner.cluster["workers"]
        queued = [worker["queued_deltas"] for worker in coordinator.status()["workers"]]
        assert queued[contacted] == 0 and queued[1 - contacted] == 3
        coordinator.worker_metrics()  # a ping catches a worker up, too
        assert [w["queued_deltas"] for w in coordinator.status()["workers"]] == [0, 0]
        ping = coordinator.worker_metrics()[0]
        assert "deferred" not in ping and ping["graphs"] == {"g": catalog.entry("g").version}
    finally:
        coordinator.close()
        catalog.close()
    assert gauge.value == base


def test_failed_fold_keeps_the_batch_and_the_ingest(monkeypatch):
    """``/dev/shm`` full at fold time: the batch is inserted and logged, so
    the ingest succeeds, every worker still sees the rows (the old
    generation and its over-threshold log survive), the failure is
    counted, and the next batch folds."""
    catalog = GraphCatalog()
    catalog.register("g", graph=_batch(random.Random(0), 10))
    service = QueryService(catalog)
    coordinator = ClusterCoordinator(
        catalog, workers=2, heartbeat_seconds=0, shm_fold_rows=4
    )
    failures = telemetry.counter("cluster.fold.failures")
    try:
        before = failures.value
        real_pack = coordinator._registry.pack
        calls = []

        def full_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_pack(*args, **kwargs)

        monkeypatch.setattr(coordinator._registry, "pack", full_once)
        rows = [Triple(_uri("f", i), _uri("p", 0), _uri("f", i + 1)) for i in range(5)]
        assert coordinator.add_triples("g", rows) == 5  # durable: not a 500
        assert failures.value == before + 1
        status = coordinator.status()
        assert status["shm"]["packs"] == 1 and status["shm"]["logged_delta_rows"] == 5
        star = parse_query("SELECT ?s ?o WHERE { ?s <http://log/p0> ?o }")
        chain = parse_query(
            "SELECT ?a ?c WHERE { ?a <http://log/p0> ?b . ?b <http://log/p0> ?c }"
        )
        for query in (star, chain):
            for _each_replica in range(2):
                answer = coordinator.answer("g", query)
                assert answer.answers == service.answer("g", query).answers
                assert any(row[0] == _uri("f", 0) for row in answer.answers)
        # the next batch retries the fold, and this time it packs
        assert coordinator.add_triples("g", [Triple(_uri("f", 9), _uri("p", 0), _uri("f", 0))]) == 1
        status = coordinator.status()
        assert len(calls) == 2 and status["shm"]["packs"] == 2
        assert status["shm"]["logged_delta_rows"] == 0
        assert coordinator.answer("g", star).answers == service.answer("g", star).answers
    finally:
        coordinator.close()
        catalog.close()
    assert _own_segments() == []


def test_no_room_at_registration_is_all_or_nothing(tmp_path, monkeypatch):
    """``/dev/shm`` full when a graph registers: the POST is a typed cluster
    error (a 503, never a bare ``OSError``), the graph is neither listed nor
    persisted, and the same POST succeeds once there is room again."""
    path = str(tmp_path / "catalog.db")
    catalog = GraphCatalog.open(path)
    app = ServerApp(catalog, cluster=ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0))
    body = {"name": "g", "triples": "<http://log/n0> <http://log/p0> <http://log/n1> .\n"}
    probe = {"query": "SELECT ?o WHERE { <http://log/n0> <http://log/p0> ?o }"}
    try:

        def full(*_args, **_kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(app.cluster._registry, "pack", full)
        with pytest.raises(SegmentError, match="No space left"):
            app.dispatch("POST", "/graphs", body)
        assert app.dispatch("GET", "/graphs", None) == (200, {"graphs": []})
        with sqlite3.connect(path) as connection:
            assert connection.execute("SELECT name FROM graphs").fetchall() == []
        with pytest.raises(UnknownGraphError):
            app.dispatch("POST", "/graphs/g/query", probe)
        monkeypatch.undo()
        assert app.dispatch("POST", "/graphs", body)[0] == 201
        status, answer = app.dispatch("POST", "/graphs/g/query", probe)
        assert status == 200 and answer["answers"] == [["<http://log/n1>"]]
    finally:
        app.close()
        catalog.close()
    assert _own_segments() == []


def test_no_room_at_a_warm_start_keeps_the_durable_graph(monkeypatch):
    """A warm-started graph that cannot be packed fails ``start()`` with
    the same typed error; the graph is durable, so it stays in the catalog,
    and no worker outlives the failed start."""
    catalog = GraphCatalog()
    catalog.register("g", graph=_batch(random.Random(0), 10))
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0, start=False)

    def full(*_args, **_kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(coordinator._registry, "pack", full)
    try:
        with pytest.raises(SegmentError, match="No space left"):
            coordinator.start()
        assert catalog.names() == ["g"]
        assert all(handle.process.poll() is not None for handle in coordinator._workers)
    finally:
        coordinator.close()
        catalog.close()
    assert _own_segments() == []


@pytest.mark.parametrize("workers", [2, 3], ids=["k2", "k3"])
def test_a_stopped_worker_stops_no_writer(workers):
    """A worker that is alive but not reading used to park every writer on
    its full delta queue — inside the entry's write lock, so checkpoints
    and statistics hung with it.  Ingest only appends to the log."""
    fold_rows = 64
    catalog = GraphCatalog()
    catalog.register("g", graph=_batch(random.Random(0), 10))
    coordinator = ClusterCoordinator(
        catalog, workers=workers, heartbeat_seconds=0, shm_fold_rows=fold_rows
    )
    stopped = coordinator.status()["workers"][0]["pid"]
    os.kill(stopped, signal.SIGSTOP)
    try:
        done = threading.Event()
        slowest = []

        def ingest():
            worst = 0.0
            for i in range(200):
                started = time.monotonic()
                coordinator.add_triples(
                    "g", [Triple(_uri("w", i), URI("http://log/stopped"), _uri("w", i + 1))]
                )
                worst = max(worst, time.monotonic() - started)
            slowest.append(worst)
            done.set()

        thread = threading.Thread(target=ingest, daemon=True)
        thread.start()
        assert done.wait(timeout=60), "ingest waits for a worker that is not reading"
        assert slowest[0] < 5.0
        # readers of the entry are not held up either
        assert catalog.entry("g").statistics_index() is not None
        status = coordinator.status()  # and reporting does not touch the pipe
        assert status["shm"]["logged_delta_rows"] < fold_rows
        assert all(worker["queued_deltas"] < fold_rows for worker in status["workers"])
    finally:
        os.kill(stopped, signal.SIGCONT)
    try:
        query = parse_query("SELECT ?s ?o WHERE { ?s <http://log/stopped> ?o }")
        # round-robin from worker 0, the stopped one: every replica answers
        answers = [coordinator.answer("g", query) for _ in range(workers)]
        assert [answer.cluster["workers"] for answer in answers] == [[i] for i in range(workers)]
        assert all(len(answer.answers) == 200 for answer in answers)
        assert coordinator.status()["workers"][0]["pid"] == stopped  # never killed for lagging
    finally:
        coordinator.close()
        catalog.close()
    assert _own_segments() == []
