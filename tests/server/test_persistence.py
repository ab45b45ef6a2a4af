"""Durability tests: the persistent catalog must warm-start with zero rebuilds."""

import itertools
import os
import shutil
import sqlite3
import subprocess
import sys

import pytest

import repro
from repro.core.builders import summarize
from repro.core.isomorphism import graphs_isomorphic
from repro.errors import CatalogError, DuplicateGraphError, PersistenceError
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE, RDFS_DOMAIN, RDFS_SUBPROPERTYOF
from repro.model.terms import BlankNode, Literal, URI
from repro.model.triple import Triple, TripleKind
from repro.queries.parser import parse_query
from repro.schema.saturation import saturate
from repro.server.persistence import PersistentCatalog
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.service.workload import generate_mixed_workload
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore


SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _catalog_path(tmp_path):
    return str(tmp_path / "catalog.db")


@pytest.fixture
def fig2_query():
    """Satisfiable on fig2: the editor property really occurs there."""
    return parse_query("SELECT ?x WHERE { ?x <http://example.org/fig2/editor> ?y . }")


@pytest.fixture
def bsbm_query():
    """Satisfiable on the small BSBM graph (a real guarded evaluation)."""
    return parse_query("SELECT ?x WHERE { ?x <http://bsbm.example.org/reviewFor> ?y . }")


@pytest.fixture
def ingest_query():
    """Matches only the triples the ingest tests add."""
    return parse_query("SELECT ?x WHERE { ?x <http://example.org/p1> ?y . }")


def _zero_counters(entry):
    return {name: hits for name, hits in entry.build_counters.items() if hits}


def _artifact_rows(path):
    connection = sqlite3.connect(path)
    try:
        return connection.execute(
            "SELECT graph, name, version, payload FROM artifacts ORDER BY graph, name"
        ).fetchall()
    finally:
        connection.close()


class TestRoundTrip:
    def test_register_reopen_preserves_graph(self, fig2, tmp_path):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("fig2", graph=fig2)
            original = catalog.entry("fig2").to_graph()
        with GraphCatalog.open(path) as reopened:
            assert reopened.names() == ["fig2"]
            restored = reopened.entry("fig2").to_graph()
            assert set(restored) == set(original)
            assert reopened.entry("fig2").version == 0

    def test_every_term_shape_round_trips(self, tmp_path):
        path = _catalog_path(tmp_path)
        graph = RDFGraph(
            [
                Triple(EX.s, EX.p, Literal("plain")),
                Triple(EX.s, EX.p, Literal("typed", datatype=URI("http://www.w3.org/2001/XMLSchema#string"))),
                Triple(EX.s, EX.p, Literal("tagged", language="en")),
                Triple(BlankNode("b0"), EX.p, EX.o),
                Triple(EX.s, RDF_TYPE, EX.C),
            ]
        )
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=graph)
        with GraphCatalog.open(path) as reopened:
            assert set(reopened.entry("g").to_graph()) == set(graph)

    def test_restored_dictionary_ids_match(self, fig2, tmp_path):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            entry = catalog.register("fig2", graph=fig2)
            original = {term.n3(): i for term, i in entry.store.dictionary.items()}
        with GraphCatalog.open(path) as reopened:
            restored = {
                term.n3(): i for term, i in reopened.entry("fig2").store.dictionary.items()
            }
            assert restored == original

    def test_reopen_into_sqlite_backend(self, fig2, tmp_path):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("fig2", graph=fig2)
        factory = lambda: SQLiteStore(str(tmp_path / "store.db"))
        with GraphCatalog.open(path, store_factory=factory) as reopened:
            entry = reopened.entry("fig2")
            assert isinstance(entry.store, SQLiteStore)
            assert set(entry.to_graph()) == set(fig2)


class TestWarmStart:
    def test_first_guarded_query_rebuilds_nothing(self, bsbm_small, tmp_path, bsbm_query):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=bsbm_small)
            service = QueryService(catalog)
            cold = service.answer("g", bsbm_query)
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("g")
            warm = QueryService(reopened).answer("g", bsbm_query)
            assert warm.answers == cold.answers
            assert _zero_counters(entry) == {}

    def test_checkpointed_summaries_are_not_rebuilt(self, fig2, tmp_path):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("fig2", graph=fig2)
            catalog.entry("fig2").summary("strong")
            catalog.checkpoint()
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("fig2")
            restored = entry.pruning_graph("strong")
            assert _zero_counters(entry) == {}
            assert graphs_isomorphic(restored, summarize(fig2, "strong").graph)

    def test_a_read_only_life_never_primes(self, bsbm_small, tmp_path):
        """Guarded queries and the shutdown checkpoint of a warm-started
        session read the restored graphs; only a ``Summary`` primes."""
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=bsbm_small).summary("strong")
            catalog.checkpoint()
        checkpointed = _artifact_rows(path)
        workload = generate_mixed_workload(bsbm_small, count=30, seed=4)
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("g")
            service = QueryService(reopened, kind="weak+strong")
            assert any(service.answer("g", item.query).pruned for item in workload)
            reopened.checkpoint()
            assert _zero_counters(entry) == {}
        assert _artifact_rows(path) == checkpointed
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("g")
            restored = entry.pruning_graph("strong")
            summary = entry.summary("strong")
            assert set(summary.representative_of) == bsbm_small.data_nodes()
            # equal triples: the restored object (and its saturation) is kept
            assert summary.graph is restored
            entry.summary("weak")
            assert _zero_counters(entry) == {"prime_scans": 1}

    def test_statistics_are_read_off_the_reloaded_rows(self, bsbm_small, tmp_path, recount):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=bsbm_small)
            catalog.entry("g").statistics_index()
            catalog.checkpoint()
        # nothing to save: the profile is derived state of the rows
        connection = sqlite3.connect(path)
        names = {name for (name,) in connection.execute("SELECT name FROM artifacts")}
        connection.close()
        assert not any("statistics" in name for name in names)
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("g")
            assert entry.statistics_index().as_dict() == recount(entry.store)

    def test_restored_weak_summary_matches_from_scratch(self, bsbm_small, tmp_path):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=bsbm_small)
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("g")
            kind = QueryService(reopened).kind  # the default guard's summary
            warm = entry.pruning_graph(kind)
            assert _zero_counters(entry) == {}  # it came from the checkpoint
            assert graphs_isomorphic(warm, summarize(bsbm_small, kind).graph)


class TestKillAndReopen:
    """add_triples writes through — no checkpoint() call, no loss."""

    def test_ingest_survives_without_checkpoint(self, fig2, tmp_path, ingest_query):
        path = _catalog_path(tmp_path)
        fresh = Triple(EX.term("new-node"), EX.term("p1"), EX.term("new-target"))
        with GraphCatalog.open(path) as catalog:
            catalog.register("fig2", graph=fig2)
            catalog.add_triples("fig2", [fresh])
            live = QueryService(catalog).answer("fig2", ingest_query).answers
            # no checkpoint() — closing simulates the process dying after
            # the (atomic, write-through) ingest transaction
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("fig2")
            assert entry.version == 1
            assert fresh in set(entry.to_graph())
            warm = QueryService(reopened).answer("fig2", ingest_query).answers
            assert warm == live
            # the replayed row left the checkpointed summary stale: the
            # guard's first read primes the maintainer, once
            assert _zero_counters(entry) == {"prime_scans": 1}
            assert reopened.log_tail_rows("fig2") == 1

    def test_incremental_maintainer_state_continues(self, fig2, tmp_path):
        """Post-restart ingest keeps the weak summary identical to a from-
        scratch summarization of the accumulated graph."""
        path = _catalog_path(tmp_path)
        first = Triple(EX.term("a"), EX.term("p1"), EX.term("b"))
        second = Triple(EX.term("c"), EX.term("p1"), EX.term("d"))
        with GraphCatalog.open(path) as catalog:
            catalog.register("fig2", graph=fig2)
            catalog.add_triples("fig2", [first])
        with GraphCatalog.open(path) as reopened:
            reopened.add_triples("fig2", [second])
            accumulated = reopened.entry("fig2").to_graph()
            warm = reopened.summary("fig2", "weak")
            assert graphs_isomorphic(warm.graph, summarize(accumulated, "weak").graph)

    def test_statistics_stay_exact_under_ingest_after_a_reopen(self, fig2, tmp_path, recount):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("fig2", graph=fig2)
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("fig2")
            before = entry.statistics_index()
            reopened.add_triples(
                "fig2", [Triple(EX.term("x"), EX.term("p9"), EX.term("y"))]
            )
            assert entry.statistics_index() is before
            assert before.as_dict() == recount(entry.store)


class TestWriteThroughFailure:
    def test_failed_write_through_propagates_and_heals(self, fig2, tmp_path, monkeypatch):
        """A lost checkpoint must surface to the caller, and the next
        successful update must rewrite the file completely — an incremental
        append after a lost batch would log rows and dictionary ids behind
        a gap."""
        from repro.server.persistence import PersistentCatalog

        path = _catalog_path(tmp_path)
        first = Triple(EX.term("wt/a"), EX.term("p1"), EX.term("wt/b"))
        second = Triple(EX.term("wt/c"), EX.term("p1"), EX.term("wt/d"))
        with GraphCatalog.open(path) as catalog:
            catalog.register("fig2", graph=fig2)

            real_append = PersistentCatalog.append_update

            def failing_append(self, entry, rows):
                raise PersistenceError("disk full (simulated)")

            monkeypatch.setattr(PersistentCatalog, "append_update", failing_append)
            with pytest.raises(PersistenceError):
                catalog.add_triples("fig2", [first])
            # memory is ahead of the file and the entry knows it
            assert catalog.entry("fig2")._persist_dirty
            monkeypatch.setattr(PersistentCatalog, "append_update", real_append)

            # the next successful update heals via a full rewrite
            catalog.add_triples("fig2", [second])
            assert not catalog.entry("fig2")._persist_dirty
        with GraphCatalog.open(path) as reopened:
            restored = set(reopened.entry("fig2").to_graph())
            assert first in restored and second in restored


class TestDropRaces:
    def test_drop_racing_an_in_flight_ingest_does_not_resurrect(self, fig2, tmp_path):
        """drop() must wait for the in-flight ingest (write lock) before
        the durable delete, or the ingest's write-through re-inserts a
        corrupt skeleton of the dropped graph."""
        import threading

        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=fig2)
            entry = catalog.entry("g")
            in_update, release = threading.Event(), threading.Event()
            real_update = entry._on_update

            def slow_update(updated_entry, rows):
                in_update.set()
                assert release.wait(timeout=10)
                real_update(updated_entry, rows)

            entry._on_update = slow_update
            ingest = threading.Thread(
                target=lambda: catalog.add_triples(
                    "g", [Triple(EX.term("r/a"), EX.term("r/p"), EX.term("r/b"))]
                )
            )
            ingest.start()
            assert in_update.wait(timeout=10)  # ingest holds the write lock
            dropper = threading.Thread(target=lambda: catalog.drop("g"))
            dropper.start()
            release.set()  # let the ingest's checkpoint finish, then drop
            ingest.join(timeout=30)
            dropper.join(timeout=30)
            assert "g" not in catalog
        with GraphCatalog.open(path) as reopened:
            assert reopened.names() == []

    def test_ingest_queued_behind_a_drop_reports_unknown_graph(self, fig2, tmp_path):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=fig2)
            stale = catalog.entry("g")
            catalog.drop("g")
            from repro.errors import UnknownGraphError

            with pytest.raises(UnknownGraphError):
                stale.add_triples([Triple(EX.term("q/a"), EX.term("q/p"), EX.term("q/b"))])
        with GraphCatalog.open(path) as reopened:
            assert reopened.names() == []

    def test_failed_persistent_register_closes_the_created_store(
        self, fig2, tmp_path, monkeypatch
    ):
        from repro.server.persistence import PersistentCatalog

        path = _catalog_path(tmp_path)
        created = []
        base_factory = lambda: SQLiteStore(str(tmp_path / f"reg-{len(created)}.db"))

        def tracking_factory():
            store = base_factory()
            created.append(store)
            return store

        with GraphCatalog.open(path, store_factory=tracking_factory) as catalog:
            monkeypatch.setattr(
                PersistentCatalog,
                "save_graph",
                lambda self, entry: (_ for _ in ()).throw(PersistenceError("disk full")),
            )
            with pytest.raises(PersistenceError):
                catalog.register("g", graph=fig2)
            assert "g" not in catalog
            assert len(created) == 1
            assert created[0]._connection is None  # the store was closed


class TestCatalogMaintenance:
    def test_drop_forgets_durably(self, fig2, tmp_path):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("fig2", graph=fig2)
            catalog.drop("fig2")
        with GraphCatalog.open(path) as reopened:
            assert reopened.names() == []

    def test_duplicate_register_leaves_persisted_entry_intact(self, fig2, tmp_path):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("fig2", graph=fig2)
            with pytest.raises(DuplicateGraphError):
                catalog.register("fig2", graph=RDFGraph())
        with GraphCatalog.open(path) as reopened:
            assert set(reopened.entry("fig2").to_graph()) == set(fig2)

    def test_schema_version_mismatch_is_rejected(self, tmp_path):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path):
            pass
        import sqlite3

        connection = sqlite3.connect(path)
        connection.execute("UPDATE catalog_meta SET value = '999' WHERE key = 'schema_version'")
        connection.commit()
        connection.close()
        with pytest.raises(PersistenceError):
            GraphCatalog.open(path)

    @pytest.mark.parametrize("stored", ["999", "five"])
    def test_version_mismatch_refuses_before_touching_the_file(self, tmp_path, monkeypatch, stored):
        """A catalog of another schema — a future one, or a version that is
        not a number at all — must be rejected *untouched*, its connection
        closed: not first mutated with this build's tables and then declared
        unreadable."""
        path = str(tmp_path / "future.db")
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE catalog_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        connection.execute("INSERT INTO catalog_meta VALUES ('schema_version', ?)", (stored,))
        connection.commit()
        connection.close()
        with open(path, "rb") as handle:
            before = handle.read()
        opened, connect = [], sqlite3.connect

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", recording_connect)
        with pytest.raises(PersistenceError, match=f"schema version {stored},"):
            PersistentCatalog(path)
        monkeypatch.undo()
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")
        with open(path, "rb") as handle:
            assert handle.read() == before
        connection = sqlite3.connect(path)
        tables = {
            row[0]
            for row in connection.execute("SELECT name FROM sqlite_master WHERE type='table'")
        }
        connection.close()
        assert tables == {"catalog_meta"}  # no v1 tables were created

    def test_persistence_error_is_a_catalog_error(self):
        assert issubclass(PersistenceError, CatalogError)

    def test_non_catalog_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-a-db.bin"
        path.write_bytes(b"definitely not sqlite")
        with pytest.raises(PersistenceError):
            PersistentCatalog(str(path))

    def test_foreign_sqlite_database_is_rejected_unmodified(self, tmp_path):
        """Opening e.g. a per-graph store file must fail loudly, not adopt
        and mutate it into an empty catalog."""
        import sqlite3

        path = str(tmp_path / "store.db")
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE data_triples (s INTEGER, p INTEGER, o INTEGER)")
        connection.commit()
        connection.close()
        with pytest.raises(PersistenceError, match="not a catalog file"):
            PersistentCatalog(path)
        connection = sqlite3.connect(path)
        tables = {
            row[0]
            for row in connection.execute("SELECT name FROM sqlite_master WHERE type='table'")
        }
        connection.close()
        assert tables == {"data_triples"}  # the file was left untouched

    def test_a_new_file_has_1k_pages_and_an_older_file_keeps_its_own(self, fig2, tmp_path):
        """Blobs round up to whole pages, so a file created here has small
        ones; a file that already has 4 KiB pages is served as it is."""

        def page_size(path):
            connection = sqlite3.connect(path)
            try:
                return connection.execute("PRAGMA page_size").fetchone()[0]
            finally:
                connection.close()

        new = _catalog_path(tmp_path)
        with GraphCatalog.open(new) as catalog:
            catalog.register("fig2", graph=fig2)
        assert page_size(new) == 1024

        older = str(tmp_path / "older.db")
        connection = sqlite3.connect(older)
        connection.execute("PRAGMA page_size = 4096")
        connection.execute("CREATE TABLE catalog_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        connection.commit()
        connection.close()
        with GraphCatalog.open(older) as catalog:
            catalog.register("fig2", graph=fig2)
            catalog.checkpoint()
        assert page_size(older) == 4096
        with GraphCatalog.open(older) as reopened:
            assert set(reopened.entry("fig2").to_graph()) == set(fig2)

    def test_concurrent_register_of_the_same_name_conflicts(self, fig2, tmp_path):
        """The name is reserved before the heavy build runs outside the
        catalog lock — a racing duplicate must still be rejected."""
        import threading

        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            outcomes = []
            barrier = threading.Barrier(2, timeout=10)

            def register():
                try:
                    barrier.wait()
                    catalog.register("g", graph=fig2)
                    outcomes.append("ok")
                except DuplicateGraphError:
                    outcomes.append("duplicate")

            threads = [threading.Thread(target=register) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert sorted(outcomes) == ["duplicate", "ok"]
            assert catalog.names() == ["g"]

    def test_in_memory_catalog_checkpoint_is_a_noop(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("fig2", graph=fig2)
            assert not catalog.persistent
            catalog.checkpoint()  # must not raise


class TestColumnBlobWarmStart:
    """Columnar stores checkpoint as packed blobs and reopen without any
    per-row work: no index builds, and byte-identical columns."""

    def test_reopen_is_byte_identical_and_builds_nothing(self, bsbm_small, tmp_path):
        from repro.model.triple import TripleKind

        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            entry = catalog.register("g", graph=bsbm_small)
            original = {kind: entry.store.column_bytes(kind) for kind in TripleKind}
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("g")
            assert entry.store.index_build_count() == 0
            restored = {kind: entry.store.column_bytes(kind) for kind in TripleKind}
            assert restored == original
            assert entry.store.index_build_count() == 0  # blobs never index

    def test_the_checkpoint_is_the_same_under_every_hash_seed(self, tmp_path):
        """A batch is numbered and stored as a set, so hash-ordered iteration
        of the graph reaches neither the dictionary nor the columns."""
        code = (
            "import sys\n"
            "from repro.datasets.bsbm import generate_bsbm\n"
            "from repro.service.catalog import GraphCatalog\n"
            "with GraphCatalog.open(sys.argv[1]) as catalog:\n"
            "    catalog.register('g', graph=generate_bsbm(scale=20, seed=7))\n"
            "    catalog.checkpoint()\n"
        )
        paths = [str(tmp_path / f"seed{seed}.db") for seed in (0, 1)]
        for seed, path in enumerate(paths):
            subprocess.run(
                [sys.executable, "-c", code, path],
                env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed)),
                check=True,
                timeout=120,
            )
        connections = [sqlite3.connect(path) for path in paths]
        try:
            for table in ("graph_columns", "dictionary_chunks", "artifacts"):
                first, second = (
                    connection.execute(f"SELECT * FROM {table} ORDER BY 1, 2").fetchall()
                    for connection in connections
                )
                assert first, table
                assert first == second, table
        finally:
            for connection in connections:
                connection.close()

    def test_checkpoint_writes_blobs_not_rows(self, fig2, tmp_path):
        import sqlite3

        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=fig2)
        connection = sqlite3.connect(path)
        blob_tables = connection.execute(
            "SELECT COUNT(*) FROM graph_columns WHERE graph = 'g'"
        ).fetchone()[0]
        row_count = connection.execute(
            "SELECT COUNT(*) FROM graph_triples WHERE graph = 'g'"
        ).fetchone()[0]
        connection.close()
        assert blob_tables > 0
        assert row_count == 0

    def test_appended_tail_rows_fold_in_on_reopen(self, fig2, tmp_path, ingest_query):
        # add_triples appends plain rows behind the blob snapshot; a warm
        # start must serve the union, and the next checkpoint re-packs it
        path = _catalog_path(tmp_path)
        fresh = Triple(EX.term("blob/a"), EX.term("p1"), EX.term("blob/b"))
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=fig2)
            catalog.add_triples("g", [fresh])
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("g")
            assert fresh in set(entry.to_graph())
            answers = QueryService(reopened).answer("g", ingest_query).answers
            assert (EX.term("blob/a"),) in answers
            reopened.checkpoint()
        import sqlite3

        connection = sqlite3.connect(path)
        remaining = connection.execute(
            "SELECT COUNT(*) FROM graph_triples WHERE graph = 'g'"
        ).fetchone()[0]
        connection.close()
        assert remaining == 0  # the tail was folded back into the blobs

    def test_blob_snapshot_reopens_into_sqlite_backend(self, fig2, tmp_path):
        # a snapshot written by the columnar store must stay readable by a
        # backend without blob adoption (the rows are unpacked instead)
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=fig2)
        factory = lambda: SQLiteStore(str(tmp_path / "unpacked.db"))
        with GraphCatalog.open(path, store_factory=factory) as reopened:
            entry = reopened.entry("g")
            assert isinstance(entry.store, SQLiteStore)
            assert set(entry.to_graph()) == set(fig2)


class TestSaturationWarmStart:
    """``G∞`` is derived state: no reopen restores it, whatever the file
    holds and however the process ended — the first saturated query of the
    reopened process builds it once, and the build equals ``saturate()``."""

    QUERY = parse_query(
        f"SELECT ?x WHERE {{ ?x <{RDF_TYPE.value}> <http://example.org/Publication> . }}"
    )

    @staticmethod
    def _factory(backend, tmp_path):
        if backend == "memory":
            return MemoryStore
        numbers = itertools.count()
        return lambda: SQLiteStore(str(tmp_path / f"store-{next(numbers)}.db"))

    @staticmethod
    def _assert_built_once_and_exact(entry, recount):
        assert entry.build_counters["saturation_builds"] == 1
        assert entry.saturation_metrics()["builds"] == 1
        served = entry.evaluator_for(saturated=True)
        assert set(served.store.to_graph()) == set(saturate(entry.to_graph()))
        assert served.statistics().as_dict() == recount(served.store)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("saturated_at_checkpoint", [False, True], ids=["cold", "built"])
    @pytest.mark.parametrize("tail", [False, True], ids=["no-tail", "tail"])
    @pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
    def test_a_reopen_builds_g_inf_on_the_first_saturated_query(
        self, book_graph, tmp_path, recount, backend, saturated_at_checkpoint, tail, crash
    ):
        path, image = _catalog_path(tmp_path), str(tmp_path / "crashed.db")
        factory = self._factory(backend, tmp_path)
        with GraphCatalog.open(path, store_factory=factory) as catalog:
            catalog.register("g", graph=book_graph)
            if saturated_at_checkpoint:
                QueryService(catalog).answer("g", self.QUERY, saturated=True)
            catalog.checkpoint()
            if tail:
                catalog.add_triples("g", [Triple(EX.doiX, EX.writtenBy, EX.someoneelse)])
            live = QueryService(catalog).answer("g", self.QUERY, saturated=True).answers
            if crash:
                shutil.copyfile(path, image)  # as the last logged batch left it
                path = image
            else:
                catalog.checkpoint()  # what a graceful shutdown does
        with GraphCatalog.open(path, store_factory=factory) as reopened:
            entry = reopened.entry("g")
            assert reopened.log_tail_rows("g") == (1 if crash and tail else 0)
            assert entry.saturation_metrics() is None
            assert entry.build_counters["saturation_builds"] == 0
            service = QueryService(reopened)
            assert service.answer("g", self.QUERY, saturated=True).answers == live
            assert service.answer("g", self.QUERY, saturated=True).answers == live
            self._assert_built_once_and_exact(entry, recount)

    def test_an_ingest_before_any_saturated_query_costs_no_saturation_work(
        self, book_graph, tmp_path, recount
    ):
        from repro import telemetry

        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=book_graph)
            QueryService(catalog).answer("g", self.QUERY, saturated=True)
            catalog.checkpoint()
            catalog.add_triples("g", [Triple(EX.doiX, EX.writtenBy, EX.someoneelse)])
        deltas = telemetry.counter("saturation.deltas")
        before = deltas.value
        with GraphCatalog.open(path) as reopened:  # replays one logged row
            entry = reopened.entry("g")
            reopened.add_triples("g", [Triple(EX.doiY, EX.writtenBy, EX.other)])
            assert entry.saturation_metrics() is None and deltas.value == before
            assert entry.build_counters["saturation_builds"] == 0
            QueryService(reopened).answer("g", self.QUERY, saturated=True)
            self._assert_built_once_and_exact(entry, recount)
            reopened.add_triples("g", [Triple(EX.doiZ, EX.writtenBy, EX.other)])
            assert entry.saturation_metrics()["deltas"] == 1 and deltas.value == before + 1
            self._assert_built_once_and_exact(entry, recount)

    @pytest.mark.parametrize(
        "superproperty, kind",
        [(RDF_TYPE, TripleKind.TYPE), (RDFS_DOMAIN, TripleKind.SCHEMA)],
        ids=["type", "constraint"],
    )
    def test_special_superproperty_copies_land_in_their_table_after_a_restart(
        self, tmp_path, recount, superproperty, kind
    ):
        # p ≺sp rdf:type (or a constraint property): the rdfs7 copy of a p-row
        # is a type (or schema) row, before and after the restart alike
        path = _catalog_path(tmp_path)
        graph = RDFGraph(
            [
                Triple(EX.q, RDFS_DOMAIN, EX.D),
                Triple(EX.p, RDFS_SUBPROPERTYOF, superproperty),
                Triple(EX.x, EX.p, EX.C),
            ]
        )
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=graph).evaluator_for(saturated=True)
            catalog.checkpoint()
        with GraphCatalog.open(path) as reopened:
            entry = reopened.entry("g")
            reopened.add_triples("g", [Triple(EX.y, EX.p, EX.E)])  # before the build
            store = entry.evaluator_for(saturated=True).store
            reopened.add_triples("g", [Triple(EX.z, EX.p, EX.F)])  # a delta after it
            table = {store.decode_triple(row) for row in store.select(kind, None, None, None)}
            for subject, cls in ((EX.x, EX.C), (EX.y, EX.E), (EX.z, EX.F)):
                assert Triple(subject, superproperty, cls) in table
            self._assert_built_once_and_exact(entry, recount)

    @pytest.mark.parametrize("drop", [False, True])
    def test_a_checkpoint_never_writes_g_inf(self, book_graph, tmp_path, drop):
        path = _catalog_path(tmp_path)
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=book_graph).evaluator_for(saturated=True)
            catalog.checkpoint()
            if drop:
                catalog.drop("g")
        connection = sqlite3.connect(path)
        names = {row[0] for row in connection.execute("SELECT name FROM artifacts")}
        connection.close()
        assert names == (set() if drop else {"summary:strong"})
