"""An ingest batch costs what the batch costs — as counts, not timings.

After a warm start nothing an ingest triggers may be proportional to the
graph: no summary rebuild after the strong maintainer's one priming scan, no
index rebuild, no per-row Python object kept by the store, no posting run
rebuilt (or even assigned to) by a reader.
"""

import gc
import sys
import threading
from array import array

from repro import telemetry
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.triple import Triple, TripleKind
from repro.queries.parser import parse_query
from repro.server.http import ServerApp
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.store import memory
from repro.store.base import ID_TYPECODE
from repro.store.memory import TAIL_MERGE_LIMIT, MemoryStore, _Run

_OFFER_JOIN = parse_query(
    "SELECT ?o ?f WHERE { ?o <http://bsbm.example.org/offeredProduct> ?p . "
    "?p <http://bsbm.example.org/productFeature> ?f }"
)


def _restored(store):
    """A second store holding *store*'s rows the way a warm start loads them."""
    restored = MemoryStore()
    restored.dictionary = store.dictionary
    for kind in TripleKind:
        _count, *columns = store.column_bytes(kind)
        restored.load_column_bytes(kind, *columns)
    return restored


def _holdout(graph, count):
    """*graph* split into a base and *count* held-out data/type triples."""
    triples = sorted(graph)
    held = [t for t in triples if t.kind is not TripleKind.SCHEMA][-count:]
    kept = set(held)
    return [t for t in triples if t not in kept], held


# ----------------------------------------------------------------------
# the catalog entry
# ----------------------------------------------------------------------
def test_a_warm_started_entry_builds_once_and_then_only_snapshots(bsbm_small, tmp_path):
    base, held = _holdout(bsbm_small, 300)
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as cold:
        entry = cold.register("g", graph=RDFGraph(base))
        entry.summary("strong")
        cold.checkpoint()
    deltas = telemetry.counter("summary.strong.deltas")
    rekeyed = telemetry.counter("summary.strong.rekeyed_rows")
    deltas_before, rekeyed_before = deltas.value, rekeyed.value
    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        service = QueryService(catalog, kind="weak+strong")
        assert service.answer("g", _OFFER_JOIN).answers  # the checkpointed summaries serve
        assert not any(entry.build_counters.values())
        assert entry.maintainer_metrics() is None  # ... so nothing was primed
        index_builds = entry.store.index_build_count()
        batches = [held[i : i + 50] for i in range(0, len(held), 50)]
        rekeyed_total = 0
        for number, batch in enumerate(batches, start=1):
            assert catalog.add_triples("g", batch) == len(batch)
            assert service.answer("g", _OFFER_JOIN).answers
            # the first bump primes the maintainer — the one graph-proportional
            # build of the process — and every later one is a delta
            assert entry.build_counters == {"prime_scans": 1, "summary_builds": 0, "saturation_builds": 0}
            assert entry.store.index_build_count() == index_builds
            assert deltas.value - deltas_before == number - 1
            rekeyed_total += entry._maintainer.rekeyed_rows
        assert rekeyed.value - rekeyed_before == rekeyed_total
        assert entry.store._tables[TripleKind.DATA].whole is None
        metrics = entry.maintainer_metrics()
        assert metrics["nodes"] == len(entry.summary("strong").representative_of)
        assert metrics["signature_edges"] >= len(entry.summary("strong").graph.data_triples)
        status, payload = ServerApp(catalog, kind="weak+strong").graph_statistics("g")
        assert status == 200 and payload["strong_maintainer"] == metrics


def test_registration_scans_nothing_and_the_first_guard_primes_once_for_both_kinds(bsbm_small):
    base, held = _holdout(bsbm_small, 100)
    with GraphCatalog() as catalog:
        entry = catalog.register("g", graph=RDFGraph(base))
        # the rows in hand are not fed to anything: no maintainer exists yet
        assert not any(entry.build_counters.values()) and entry.maintainer_metrics() is None
        service = QueryService(catalog, kind="weak+strong")
        for batch in ([], held[:50], held[50:]):
            catalog.add_triples("g", batch)
            assert service.answer("g", _OFFER_JOIN).answers
            for kind in ("weak", "strong", "typed_weak"):
                entry.summary(kind)
        # weak and strong came off one priming; only the third kind rebuilds
        assert entry.build_counters == {"prime_scans": 1, "summary_builds": 3, "saturation_builds": 0}


def test_a_cold_persistent_build_primes_at_registration_and_never_again(bsbm_small, tmp_path):
    base, held = _holdout(bsbm_small, 100)
    with GraphCatalog.open(str(tmp_path / "catalog.db")) as catalog:
        entry = catalog.register("g", graph=RDFGraph(base))
        # the weak summary is checkpointed with the rows: the one scan is paid here ...
        assert entry.build_counters["prime_scans"] == 1
        service = QueryService(catalog, kind="weak+strong")
        for batch in (held[:50], held[50:]):
            assert service.answer("g", _OFFER_JOIN).answers
            catalog.add_triples("g", batch)
        catalog.checkpoint()
        # ... and serves the strong summary and every later version of both
        assert entry.build_counters == {"prime_scans": 1, "summary_builds": 0, "saturation_builds": 0}


def test_each_build_counts_once_in_the_entry_and_once_in_the_registry(fig2):
    """The per-graph build counts and the process-wide ``catalog.build.*``
    series advance together, one per build."""
    keys = ("prime_scans", "summary_builds", "saturation_builds")
    registry = [telemetry.counter(f"catalog.build.{key}") for key in keys]
    before = [counter.value for counter in registry]
    with GraphCatalog() as catalog:
        entry = catalog.register("g", graph=fig2)
        for kind in ("weak", "strong", "typed_weak", "weak"):
            entry.summary(kind)
        for _ in range(2):
            entry.evaluator_for("sql", saturated=True)
        assert entry.build_counters == {"prime_scans": 1, "summary_builds": 1, "saturation_builds": 1}
    assert [counter.value - base for counter, base in zip(registry, before)] == [1, 1, 1]


def test_the_graph_object_survives_a_batch_that_changes_no_summary_edge(bsbm_small):
    reused = telemetry.counter("summary.graph.reused")
    with GraphCatalog() as catalog:
        entry = catalog.register("g", graph=bsbm_small)
        before = {kind: entry.summary(kind) for kind in ("weak", "strong")}
        # one more offer shaped like those already there: same properties on
        # both sides of every node it touches
        offer = next(t.subject for t in bsbm_small if t.predicate.value.endswith("offeredProduct"))
        twin = EX.term("offer-twin")
        batch = [Triple(twin, t.predicate, t.object) for t in bsbm_small.triples(subject=offer)]
        count = reused.value
        assert catalog.add_triples("g", batch) == len(batch)
        for kind, stale in before.items():
            fresh = entry.summary(kind)
            assert fresh is not stale and fresh.graph is stale.graph
            assert fresh.representative(twin) == stale.representative(offer)
            assert stale.representative(twin) is None
        assert reused.value - count == 2
        # a property nothing had before is a new summary edge: a new graph
        catalog.add_triples("g", [Triple(twin, EX.term("unseen"), EX.term("o"))])
        assert entry.summary("strong").graph is not before["strong"].graph
        assert reused.value - count == 2


# ----------------------------------------------------------------------
# the store: dedup off the index
# ----------------------------------------------------------------------
def test_an_ingest_leaves_no_per_row_object_in_the_store(bsbm_small):
    base, held = _holdout(bsbm_small, 100)
    loaded = MemoryStore()
    loaded.load_triples(base)
    store = _restored(loaded)
    for kind in TripleKind:
        list(store.select(kind, subject=0))  # builds the indexes, as the first read would
    rows = [(t.kind, row) for t, row in zip(held, store.dictionary.encode_triples(held))]
    gc.collect()
    before = sys.getallocatedblocks()
    inserted = len(store.insert_encoded_rows(rows))
    gc.collect()
    retained = sys.getallocatedblocks() - before
    assert inserted == 100
    # (blocks, not tracemalloc bytes: a column array that grows is reallocated
    # and would count in full.)  The parent's first insert built a set of one
    # tuple pair per stored row: three blocks a row, ≈ 3,900 at this size.
    assert retained < 1000, retained
    assert not hasattr(store, "_seen")


def test_insert_returns_exactly_the_rows_inserted():
    store = MemoryStore()
    a, b, c = (Triple(EX.term(name), EX.p, EX.o) for name in "abc")
    typed = Triple(EX.a, RDF_TYPE, EX.C)
    # a load into empty tables probes nothing, and still drops in-batch repeats
    loaded = store.insert_triples([a, a, typed, typed])
    assert [store.decode_triple(row) for _kind, row in loaded] == [a, typed]
    # stored rows, duplicates inside the batch, fresh rows — in stored (p, o, s) order
    fresh = store.insert_triples([a, b, typed, b, c, c], skip_existing=True)
    assert [store.decode_triple(row) for _kind, row in fresh] == [b, c]
    assert store.count(TripleKind.DATA) == 3 and store.count(TripleKind.TYPE) == 1
    # ... also once the rows sit in a run's tail and in its folded part
    many = [Triple(EX.term(f"s{i}"), EX.p, EX.o) for i in range(2 * TAIL_MERGE_LIMIT)]
    assert len(store.insert_triples(many, skip_existing=True)) == len(many)
    assert store.insert_triples(many + [a, b, c], skip_existing=True) == []


# ----------------------------------------------------------------------
# the store: the writer folds, readers assign nothing
# ----------------------------------------------------------------------
def test_every_tail_is_within_the_limit_once_a_batch_is_in():
    folds = telemetry.counter("store.tail.folds")
    store = MemoryStore()
    store.insert_triples([Triple(EX.term("s"), EX.p, EX.term("o")), Triple(EX.term("s"), EX.q, EX.term("o"))])
    table = store._tables[TripleKind.DATA]
    table.whole_runs()  # what a predicate-unbound read builds: the appends keep it
    before = folds.value
    for start in range(0, 400, 50):
        store.insert_triples(
            [Triple(EX.term(f"s{i % 7}"), EX.p, EX.term(f"o{i}")) for i in range(start, start + 50)]
        )
        store.count_rows(TripleKind.DATA, subject=0)  # a predicate-unbound read: whole-table runs
        runs = [*table.whole, *(run for pair in table.runs.values() for run in pair)]
        assert all(len(run.tail_keys) <= TAIL_MERGE_LIMIT for run in runs)
    assert folds.value - before >= 4  # s_run, o_run, (p, s) and (p, o), at least once each
    subject = store.dictionary.encode_existing(EX.term("s3"))
    assert store.count_rows(TripleKind.DATA, subject=subject) == len(range(3, 400, 7))


def test_merged_folds_a_pending_tail_into_a_private_copy():
    store = MemoryStore()
    store.insert_triples([Triple(EX.term(f"s{i}"), EX.p, EX.term("o")) for i in range(10)])
    predicate = store.dictionary.encode_existing(EX.p)
    run = store._tables[TripleKind.DATA].runs[predicate][0]
    run.merge()
    store.insert_triples([Triple(EX.term("s3"), EX.p, EX.term("other"))])
    keys, tail = run.keys, run.tail_keys
    assert len(tail) == 1
    view_keys, view_positions = run.merged()
    assert len(view_keys) == 11 and list(view_keys) == sorted(view_keys)
    assert view_keys is not keys
    assert run.keys is keys and run.tail_keys is tail and len(tail) == 1  # untouched
    run.merge()  # what the next large enough batch does
    folded_keys, folded_positions = run.merged()
    assert folded_keys is run.keys and folded_positions is run.positions  # no copy
    assert list(folded_keys) == list(view_keys) and list(folded_positions) == list(view_positions)


def test_two_readers_of_one_run_never_see_a_torn_pair():
    """The parent folded a long tail inside ``positions_for``: ``keys`` was
    assigned before ``positions``, and a second reader in between paired the
    new keys with the old positions (23 wrong answers in 300 trials).  A
    reader assigns nothing now, whatever the tail's length."""
    rows, tail = 20_000, TAIL_MERGE_LIMIT + 20
    probes = [7, 501, 1999]
    keys_in, positions_in = zip(*sorted((position % 2000, position) for position in range(rows)))
    expected = {
        key: [p for p in range(rows) if p % 2000 == key]
        + [rows + offset for offset in range(tail) if probes[offset % 3] == key]
        for key in probes
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _trial in range(300):
            run = _Run(array(ID_TYPECODE, keys_in), array(ID_TYPECODE, positions_in))
            for offset in range(tail):
                run.append(probes[offset % 3], rows + offset)
            keys = run.keys
            wrong = []

            def read():
                for key in probes * 4:
                    if list(run.positions_for(key)) != expected[key]:
                        wrong.append(key)

            readers = [threading.Thread(target=read) for _ in range(2)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=30)
            assert not any(reader.is_alive() for reader in readers)
            assert wrong == []
            assert run.keys is keys and len(run.tail_keys) == tail
    finally:
        sys.setswitchinterval(interval)


def test_limit_is_the_shipped_constant():
    assert memory.TAIL_MERGE_LIMIT == 128
