"""The shared-memory segment plane: registry pack/attach round trips,
generation folds, unlink hygiene, crash injection (worker SIGKILL must not
repack or leak), and the no-leaked-``/dev/shm``-segments guarantee — kept,
after a SIGKILL of the owner, by whoever notices the released owner lock."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time


from repro.cluster import ClusterCoordinator, protocol, shm
from repro.model.terms import URI
from repro.model.triple import Triple, TripleKind
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
from repro.service.evaluator import compile_query
from repro.store.base import ID_BYTES, ID_TYPECODE
from repro.store.memory import MemoryStore


def _store(count=64):
    store = MemoryStore()
    store.insert_triples(
        Triple(URI(f"http://x/s{i % 9}"), URI(f"http://x/p{i % 3}"), URI(f"http://x/o{i}"))
        for i in range(count)
    )
    return store


def _pack(registry, store, name="g", version=0):
    """The ``(segment_name, directory)`` descriptor of a fresh pack."""
    segment_name, directory, nbytes = registry.pack(
        name, version, protocol.pack_full_tables(store), protocol.BYTEORDER
    )
    assert nbytes == os.path.getsize(os.path.join(shm._SHM_ROOT, segment_name))
    return segment_name, directory


def _query(store, text):
    """An ``OP_QUERY`` payload: *text* compiled against *store*'s
    dictionary, as the coordinator compiles it against its own."""
    compiled = compile_query(parse_query(text), store.dictionary)
    return protocol.query_payload("g", compiled, None, False, False, None)


class TestRegistry:
    def test_pack_attach_round_trip(self):
        store = _store()
        registry = shm.SegmentRegistry()
        try:
            segment_name, directory = _pack(registry, store)
            assert directory["byteorder"] == protocol.BYTEORDER
            # the image is the id columns and nothing else: no term
            assert set(directory) == {"graph", "version", "byteorder", "tables", "generation"}
            segment = shm.attach(segment_name)
            try:
                buffer = segment.buf
                assert len(buffer) == 3 * ID_BYTES * len(store)
                target = MemoryStore()
                tables = directory["tables"]
                count, s_off, p_off, o_off = tables[TripleKind.DATA.value]
                nbytes = count * ID_BYTES
                target.adopt_column_buffers(
                    TripleKind.DATA,
                    buffer[s_off : s_off + nbytes],
                    buffer[p_off : p_off + nbytes],
                    buffer[o_off : o_off + nbytes],
                )
                whole = {r for b in store.scan_batches(TripleKind.DATA) for r in b}
                got = {r for b in target.scan_batches(TripleKind.DATA) for r in b}
                assert got == whole
                target.close()
            finally:
                segment.close()
        finally:
            registry.close()
            store.close()
        assert shm.list_segments() == []

    def test_fold_replaces_generation(self):
        store = _store()
        registry = shm.SegmentRegistry()
        try:
            first_name, first_directory = _pack(registry, store, version=0)
            assert first_directory["generation"] == 1
            assert first_name in shm.list_segments()
            second_name, second_directory = _pack(registry, store, version=5)
            assert second_directory["generation"] == 2
            assert second_directory["version"] == 5
            assert second_name != first_name
            live = shm.list_segments()
            # at most one named segment per graph at any instant
            assert second_name in live and first_name not in live
            assert registry.packs == 2
            assert registry.descriptor("g") == (second_name, second_directory)
        finally:
            registry.close()
            store.close()

    def test_unlink_is_idempotent(self):
        store = _store(8)
        registry = shm.SegmentRegistry()
        _pack(registry, store)
        registry.unlink("g")
        registry.unlink("g")  # second unlink: no error
        registry.unlink("never-registered")
        assert registry.descriptor("g") is None
        assert shm.list_segments() == []
        registry.close()
        store.close()

    def test_unlinked_segment_survives_for_attached_readers(self):
        """POSIX semantics the fold relies on: unlink removes the name,
        live mappings keep working."""
        store = _store(16)
        registry = shm.SegmentRegistry()
        segment_name, directory = _pack(registry, store)
        segment = shm.attach(segment_name)
        registry.unlink("g")
        assert shm.list_segments() == []  # name gone...
        count, s_offset, _p, _o = directory["tables"][TripleKind.DATA.value]
        length = count * ID_BYTES
        assert len(bytes(segment.buf[s_offset : s_offset + length])) == length > 0  # ...data not
        segment.close()
        registry.close()
        store.close()


def test_sigkilled_attacher_leaves_segment_intact():
    """A worker dying mid-attach must never tear the segment down: an
    attachment holds no lock and registers nowhere, so only the owner's
    unlink (or the owner's death) removes the name."""
    store = _store(32)
    registry = shm.SegmentRegistry()
    try:
        segment_name, _ = _pack(registry, store)
        context = multiprocessing.get_context("spawn")
        ready = context.Event()
        child = context.Process(target=_attach_and_wait, args=(segment_name, ready))
        child.start()
        try:
            assert ready.wait(timeout=30), "attacher never reported ready"
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10)
        finally:
            if child.is_alive():  # pragma: no cover - cleanup path
                child.kill()
                child.join(timeout=5)
        assert segment_name in shm.list_segments()
        probe = shm.attach(segment_name)  # still attachable after the crash
        probe.close()
    finally:
        registry.close()
        store.close()
    assert shm.list_segments() == []


def _attach_and_wait(segment_name, ready):  # pragma: no cover - child process
    segment = shm.attach(segment_name)
    ready.set()
    time.sleep(60)  # parent SIGKILLs us long before this returns
    segment.close()


def test_worker_crash_injection_no_repack_no_leak(bsbm_small):
    """Respawn recovery is O(1): the re-ship sends the existing descriptor
    (zero new packs) and shutdown leaves /dev/shm clean."""
    catalog = GraphCatalog()
    catalog.register("g", graph=bsbm_small)
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0.2)
    try:
        packs_before = coordinator.status()["shm"]["packs"]
        assert packs_before == 1
        victim = coordinator.status()["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        query = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
        answer = coordinator.answer("g", query)  # forces respawn + re-ship
        assert answer.answers
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if all(w["alive"] for w in coordinator.status()["workers"]):
                break
            time.sleep(0.05)
        status = coordinator.status()
        assert all(w["alive"] for w in status["workers"])
        assert status["shm"]["packs"] == packs_before  # zero repack
        assert status["ship_metrics"]["reships"] >= 1
    finally:
        coordinator.close()
        catalog.close()
    assert shm.list_segments() == []


def test_drop_unlinks_segment(bsbm_small):
    catalog = GraphCatalog()
    catalog.register("g", graph=bsbm_small)
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    try:
        assert len(shm.list_segments()) == 1
        coordinator.drop("g")
        assert shm.list_segments() == []
    finally:
        coordinator.close()
        catalog.close()


def _src_env():
    """This environment with the repository's ``src/`` importable."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _run_until_first_line(tmp_path, source):
    """Start *source* as a script; ``(process, its first stdout line read
    as JSON)``."""
    script = tmp_path / "crash.py"
    script.write_text(textwrap.dedent(source))
    process = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, env=_src_env(), text=True
    )
    return process, json.loads(process.stdout.readline())


def _ended(pid):
    """Whether *pid* has exited (an orphan nobody reaps stays a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _eventually(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    return condition()


def test_sigkilled_coordinator_is_cleaned_up_by_its_workers(tmp_path):
    """Nothing outlives a coordinator that dies by SIGKILL: its workers see
    EOF, unlink the segments nobody owns any more, and exit."""
    process, started = _run_until_first_line(
        tmp_path,
        """
        import json, time
        from repro.cluster import ClusterCoordinator
        from repro.datasets.sample import figure2_graph
        from repro.service.catalog import GraphCatalog

        catalog = GraphCatalog()
        catalog.register("g", graph=figure2_graph())
        coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
        status = coordinator.status()
        print(json.dumps({
            "workers": [worker["pid"] for worker in status["workers"]],
            "segments": [s["segment"] for s in status["shm"]["segments"]],
        }), flush=True)
        time.sleep(120)
        """,
    )
    try:
        prefix = f"{shm.SEGMENT_PREFIX}-{process.pid}-"
        assert len(started["workers"]) == 2
        assert not any(_ended(pid) for pid in started["workers"])
        assert len(started["segments"]) == 1
        assert all(name.startswith(prefix) for name in started["segments"])
        assert set(started["segments"]) <= set(shm.list_segments())
    finally:
        process.kill()
        process.wait(timeout=30)
        process.stdout.close()
    assert _eventually(lambda: all(_ended(pid) for pid in started["workers"]))
    assert _eventually(
        lambda: not [name for name in shm.list_segments() if name.startswith(prefix)]
    )


def test_sigkilled_registry_leaves_an_orphan_the_next_registry_sweeps(tmp_path):
    """A registry that dies alone has nobody to notice: the name stays,
    :func:`shm.is_orphan` tells it from a live registry's segment, and the
    next ``SegmentRegistry()`` — in any process — removes exactly it."""
    store = _store(32)
    live = shm.SegmentRegistry()
    try:
        live_name, _ = _pack(live, store)
        process, orphan_name = _run_until_first_line(
            tmp_path,
            """
            import json, os, signal
            from repro.cluster import protocol, shm
            from repro.store.memory import MemoryStore
            from repro.model.terms import URI
            from repro.model.triple import Triple

            store = MemoryStore()
            store.insert_triples(
                Triple(URI(f"http://x/s{i}"), URI("http://x/p"), URI(f"http://x/o{i}"))
                for i in range(64)
            )
            registry = shm.SegmentRegistry()
            name, _, _ = registry.pack(
                "g", 0, protocol.pack_full_tables(store), protocol.BYTEORDER
            )
            print(json.dumps(name), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """,
        )
        process.wait(timeout=30)
        process.stdout.close()
        assert process.returncode == -signal.SIGKILL
        assert orphan_name.startswith(f"{shm.SEGMENT_PREFIX}-{process.pid}-")
        assert {orphan_name, live_name} <= set(shm.list_segments())
        assert shm.is_orphan(orphan_name)
        assert not shm.is_orphan(live_name)  # owned — even asked from the owner
        assert not shm.is_orphan(f"{shm.SEGMENT_PREFIX}-0-never")  # gone is not orphaned
        subprocess.run(
            [sys.executable, "-c", "from repro.cluster import shm; shm.SegmentRegistry()"],
            env=_src_env(),
            check=True,
            timeout=30,
        )
        assert orphan_name not in shm.list_segments()
        assert live_name in shm.list_segments()
        shm.attach(live_name).close()  # and still whole
    finally:
        live.close()
        store.close()
    assert shm.list_segments() == []


def test_closed_pipe_under_a_live_coordinator_unlinks_nothing(bsbm_small):
    """EOF alone does not make a worker unlink: while its coordinator lives
    the segment stays the coordinator's, and the replacement worker
    re-attaches the very same name with zero new packs."""
    import socket

    catalog = GraphCatalog()
    catalog.register("g", graph=bsbm_small)
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    try:
        before = coordinator.status()
        (segment,) = [s["segment"] for s in before["shm"]["segments"]]
        handle = coordinator._workers[0]
        retired = handle.process.pid
        # what a receiver that gave up on a garbled reply leaves behind: the
        # pipe shut, the worker running, the coordinator very much alive
        pipe = socket.socket(fileno=os.dup(handle.connection.fileno()))
        pipe.shutdown(socket.SHUT_RDWR)
        pipe.close()
        # the worker spends its whole grace period finding the lock held
        assert _eventually(lambda: handle.process.poll() is not None)
        assert segment in shm.list_segments()
        query = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
        assert coordinator.answer("g", query).answers  # respawns worker 0
        after = coordinator.status()
        assert after["workers"][0]["pid"] != retired
        assert [s["segment"] for s in after["shm"]["segments"]] == [segment]
        assert after["shm"]["packs"] == before["shm"]["packs"] == 1
    finally:
        coordinator.close()
        catalog.close()
    assert shm.list_segments() == []


class _PipeStub:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


def test_worker_losing_its_pipe_under_a_reply_still_looks_for_orphans(monkeypatch):
    """A coordinator killed while a worker computes is noticed at the reply,
    not at a read: that exit, too, goes through the orphan check."""
    from repro.cluster import worker as worker_module

    class _PipeThatBreaks(_PipeStub):
        def poll(self, _timeout):
            return True

        def recv(self):
            return (2, protocol.OP_PING, ())

        def send(self, message):
            if message[0] == 2:
                raise BrokenPipeError
            super().send(message)

    store = _store(16)
    registry = shm.SegmentRegistry()
    worker = worker_module._Worker(_PipeThatBreaks(), {})
    try:
        segment_name, directory = _pack(registry, store)
        worker._reply(1, worker.handle_load, ("g", 0, (segment_name, directory), {}, []))
        assert worker.connection.sent[0][1] == "ok"
        looked_at = []
        unlink_orphans = shm.unlink_orphans
        monkeypatch.setattr(worker_module, "_ORPHAN_GRACE_SECONDS", 0.2)
        monkeypatch.setattr(
            shm, "unlink_orphans", lambda names: looked_at.append(set(names)) or unlink_orphans(names)
        )
        worker.run()
        assert looked_at and looked_at[0] == {segment_name}
        assert segment_name in shm.list_segments()  # its owner lives: left alone
    finally:
        worker.close()
        registry.close()
        store.close()
    assert shm.list_segments() == []


def test_worker_attach_byteswaps_foreign_segments():
    """A segment packed on a foreign-endian coordinator cannot alias —
    the worker's adopt falls back to a byteswapping copy and still
    answers identically."""
    from array import array

    from repro.cluster.worker import _Worker

    foreign = "big" if sys.byteorder == "little" else "little"

    def swap(tables):
        swapped = {}
        for kind_value, (count, s_bytes, p_bytes, o_bytes) in tables.items():
            out = [count]
            for blob in (s_bytes, p_bytes, o_bytes):
                column = array(ID_TYPECODE)
                column.frombytes(blob)
                column.byteswap()
                out.append(column.tobytes())
            swapped[kind_value] = tuple(out)
        return swapped

    store = _store(48)
    registry = shm.SegmentRegistry()
    worker = _Worker(_PipeStub(), {})
    try:
        segment_name, directory, _ = registry.pack(
            "g", 0, swap(protocol.pack_full_tables(store)), foreign
        )
        reply = worker.handle_load(("g", 0, (segment_name, directory), {}, []))
        assert reply["rows"] == store.count(TripleKind.DATA) + store.count(
            TripleKind.TYPE
        ) + store.count(TripleKind.SCHEMA)
        answer = worker.handle_query(_query(store, "SELECT ?s ?o WHERE { ?s <http://x/p0> ?o }"))
        native = MemoryStore()
        native.insert_triples(
            Triple(URI(f"http://x/s{i % 9}"), URI(f"http://x/p{i % 3}"),
                   URI(f"http://x/o{i}"))
            for i in range(48)
        )
        expected = len(native.select_many(TripleKind.DATA, predicate=native.dictionary.encode_existing(URI("http://x/p0"))))
        assert len(answer["rows"]) == expected > 0
        # byteswapped columns are private copies, nothing adopted
        memory = worker.handle_ping(())["column_memory"]
        assert memory["adopted_bytes"] == 0 and memory["private_bytes"] > 0
        native.close()
    finally:
        worker.close()
        registry.close()
        store.close()
    assert shm.list_segments() == []


def test_an_empty_graph_ships_an_empty_image():
    """The image is the id columns alone, so an empty graph's is empty — and
    an empty file cannot be mapped: it still attaches, and the replica
    takes the graph's first batch like any other."""
    catalog = GraphCatalog()
    catalog.register("e", graph=[])
    coordinator = ClusterCoordinator(catalog, workers=1, heartbeat_seconds=0)
    try:
        (segment,) = coordinator.status()["shm"]["segments"]
        assert segment["bytes"] == 0
        query = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        assert coordinator.answer("e", query).answers == set()
        coordinator.add_triples("e", [Triple(URI("http://x/a"), URI("http://x/p"), URI("http://x/b"))])
        answer = coordinator.answer("e", query)
        assert answer.cluster["workers"] == [0] and answer.answers == {(URI("http://x/a"),)}
    finally:
        coordinator.close()
        catalog.close()


def test_a_plane_outside_dev_shm_runs_the_whole_lifecycle(tmp_path, monkeypatch):
    """Where ``/dev/shm`` is missing the segments are files in the temporary
    directory: the same pack, attach, query and drop, and nothing left."""
    from repro.cluster.worker import _Worker

    monkeypatch.setattr(shm, "_SHM_ROOT", str(tmp_path))
    store = _store(24)
    registry = shm.SegmentRegistry()
    worker = _Worker(_PipeStub(), {})
    try:
        segment_name, directory = _pack(registry, store)
        assert os.listdir(tmp_path) == [segment_name] == shm.list_segments()
        worker.handle_load(("g", 0, (segment_name, directory), {}, []))
        answer = worker.handle_query(_query(store, "SELECT ?s ?o WHERE { ?s <http://x/p0> ?o }"))
        assert len(answer["rows"]) == 8
        worker.handle_drop(("g",))
        registry.unlink("g")
        assert worker.segments == {} and shm.list_segments() == []
    finally:
        worker.close()
        registry.close()
        store.close()
    assert os.listdir(tmp_path) == []


def test_a_directory_that_fails_the_probe_falls_back_to_the_temporary_one(tmp_path, monkeypatch):
    """The plane's directory is probed by creating, locking and unlinking a
    segment: a directory where any step fails gives way to the temporary
    directory, and the probe leaves nothing behind either way."""
    import fcntl
    import tempfile

    assert shm._root(str(tmp_path)) == str(tmp_path)
    assert shm._root(str(tmp_path / "missing")) == tempfile.gettempdir()

    def no_flock(_fd, _operation):
        raise OSError("no locks on this file system")

    monkeypatch.setattr(fcntl, "flock", no_flock)
    assert shm._root(str(tmp_path)) == tempfile.gettempdir()
    assert os.listdir(tmp_path) == []
