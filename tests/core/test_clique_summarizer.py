"""The summary maintainer *is* the batch engine, for weak and for strong.

:class:`~repro.core.incremental.CliqueSummarizer` fed a graph batch by batch
must hold, after every batch, exactly what one scan of the rows so far
builds — same triples, same node → representative map, names included, of
the weak and of the strong summary — and both must equal the ``Term``-level
oracle.  Generated insertion histories
drive it through every state a node can be in (typed only, one side missing,
both sides), through clique merges, duplicate rows and batches that change
nothing, on both backends, through a kill-and-reopen (the state is never
checkpointed: it is primed again) and over a cluster replica's adopted
columns fed id deltas.
"""

import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from oracles.term_partitions import term_summary
from repro.cluster import protocol, shm
from repro.cluster.worker import _Worker
from repro.core.encoded import encoded_summarize
from repro.core.incremental import CliqueSummarizer
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE, RDFS_DOMAIN, RDFS_SUBCLASSOF
from repro.model.terms import Literal
from repro.model.triple import Triple, TripleKind
from repro.queries.evaluation import evaluate
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore

_NODES = [EX.term(f"n{i}") for i in range(8)]
_PROPERTIES = [EX.term(f"p{i}") for i in range(5)]
_CLASSES = [EX.term(f"C{i}") for i in range(3)]
_OBJECTS = _NODES + [Literal("v0"), Literal("v1")]

_triple = st.one_of(
    st.builds(Triple, st.sampled_from(_NODES), st.sampled_from(_PROPERTIES), st.sampled_from(_OBJECTS)),
    st.builds(Triple, st.sampled_from(_NODES), st.just(RDF_TYPE), st.sampled_from(_CLASSES)),
    st.builds(Triple, st.sampled_from(_CLASSES), st.just(RDFS_SUBCLASSOF), st.sampled_from(_CLASSES)),
    st.builds(Triple, st.sampled_from(_PROPERTIES), st.just(RDFS_DOMAIN), st.sampled_from(_CLASSES)),
)
#: A history: the batches of one graph's life, duplicates (within a batch and
#: of what is already stored) and all.
_history = st.lists(st.lists(_triple, min_size=1, max_size=6), min_size=1, max_size=7)

_STORES = {"memory": MemoryStore, "sqlite": SQLiteStore}

#: Every two-pattern chain and star over the property universe, plus a typed
#: chain per class: most have no answer on a small graph, which is the case
#: the guard exists for.
_JOINS = [
    parse_query(f"SELECT ?x ?z WHERE {{ ?x <{first.value}> ?y . {second} }}")
    for first in _PROPERTIES
    for second in (
        *(f"?y <{prop.value}> ?z ." for prop in _PROPERTIES),
        *(f"?x <{prop.value}> ?z ." for prop in _PROPERTIES),
        *(f"?y <{RDF_TYPE.value}> <{cls.value}> . ?y <{_PROPERTIES[0].value}> ?z ." for cls in _CLASSES),
    )
]


def _t(subject, prop, obj):
    return Triple(_NODES[subject], _PROPERTIES[prop], _NODES[obj])


def _typed(subject, cls=0):
    return Triple(_NODES[subject], RDF_TYPE, _CLASSES[cls])


#: Seed histories, one hazard each: every one fails a one-line mutation of
#: ``CliqueSummarizer._rekey`` / ``ingest_rows`` (found while the maintainer
#: was written), so they run before the generated ones.
_SEEDS = [
    # a node gains its first outgoing edge after incoming ones from two sources
    [[_t(0, 0, 2), _t(1, 1, 2)], [_t(2, 2, 3)]],
    # a typed-only node becomes a data node, in the batch after its type row
    [[_typed(4), _t(0, 0, 1)], [_t(4, 0, 5)], [_t(6, 1, 4)]],
    # both endpoints of a stored row move in one batch (it is re-keyed once)
    [[_t(0, 0, 1)], [_t(2, 1, 0), _t(1, 2, 3)]],
    # a clique merge that relabels blocks without moving any signature
    [[_t(0, 0, 1), _t(2, 1, 3)], [_t(0, 1, 4)]],
    # duplicates inside the batch and of stored rows; then a batch of nothing new
    [[_t(0, 0, 1), _t(0, 0, 1)], [_t(0, 0, 1), _t(5, 0, 1)], [_t(5, 0, 1)]],
    # a self-loop on a node that had only incoming edges
    [[_t(0, 0, 1), _typed(1, 2)], [_t(1, 1, 1)]],
    # a node moves twice in one batch: typed only -> out -> in
    [[_typed(3)], [_t(3, 0, 1), _t(2, 1, 3)]],
]


_KINDS = ("weak", "strong")


def _assert_is_the_batch_engine(entry, kind):
    """The served *kind* summary == a fresh one-scan build == the oracle."""
    summary = entry.summary(kind)
    fresh = encoded_summarize(entry.store, kind, source_name=entry.name)
    oracle = term_summary(entry.to_graph(), kind)
    assert set(summary.graph) == set(fresh.graph) == set(oracle.graph)
    assert len(summary.graph) == len(oracle.graph)  # what core.summary_<kind>_edges counts
    assert summary.representative_of == fresh.representative_of == oracle.representative_of
    return summary


def _assert_sound(catalog, entry):
    """The paper's contract mid-ingest: pruned by strong ⇒ no answer on G."""
    graph = entry.to_graph()
    service = QueryService(catalog, kind="strong")
    pruned = 0
    for query in _JOINS:
        if service.answer(entry.name, query).pruned:
            pruned += 1
            assert not evaluate(graph, query), query
    return pruned


def _with_seeds(**fixed):
    def decorate(test):
        for seed in _SEEDS:
            test = example(history=seed, **fixed)(test)
        return test

    return decorate


@pytest.mark.parametrize("backend", sorted(_STORES))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@_with_seeds()
@given(history=_history)
def test_maintained_equals_batch_after_every_batch(backend, history):
    with GraphCatalog(store_factory=_STORES[backend]) as catalog:
        entry = catalog.register("g", graph=RDFGraph(history[0]))
        for kind in _KINDS:
            _assert_is_the_batch_engine(entry, kind)  # the first primes the maintainer
        for batch in history[1:]:
            catalog.add_triples("g", batch)
            for kind in _KINDS:
                _assert_is_the_batch_engine(entry, kind)
            _assert_sound(catalog, entry)
        # the one scan both kinds were served from, and no other build
        assert entry.build_counters == {"prime_scans": 1, "summary_builds": 0, "saturation_builds": 0}


@pytest.mark.parametrize("backend", sorted(_STORES))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@_with_seeds(cut=0)
@given(history=_history, cut=st.integers(0, 6))
def test_state_is_reprimed_after_kill_and_reopen(tmp_path_factory, backend, history, cut):
    """The catalog file is copied as batch *cut* left it (no checkpoint, no
    close) and reopened: the maintainer was never persisted, so the first
    weak or strong read no checkpointed summary covers primes it, and the
    rest of the history is maintained."""
    cut = min(cut, len(history) - 1)
    workdir = tmp_path_factory.mktemp("reprime")
    path, image = str(workdir / "live.db"), str(workdir / "killed.db")
    with GraphCatalog.open(path, store_factory=_STORES[backend]) as live:
        entry = live.register("g", graph=RDFGraph(history[0]))
        for batch in history[1 : cut + 1]:
            live.add_triples("g", batch)
            entry.summary("strong")  # a primed maintainer at the kill
        shutil.copyfile(path, image)
    with GraphCatalog.open(image, store_factory=_STORES[backend]) as reopened:
        entry = reopened.entry("g")
        assert entry.maintainer_metrics() is None
        for kind in _KINDS:
            _assert_is_the_batch_engine(entry, kind)
        for batch in history[cut + 1 :]:
            reopened.add_triples("g", batch)
            for kind in _KINDS:
                _assert_is_the_batch_engine(entry, kind)
        assert entry.build_counters["prime_scans"] == 1
        assert entry.build_counters["summary_builds"] == 0


class _PipeStub:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@_with_seeds()
@given(history=_history)
def test_a_replica_over_adopted_columns_maintains_it_from_id_deltas(history):
    """The front end ships the graph as it stands after the first batch and
    logs the rest as id rows; a worker's replica adopts the segment's
    columns and folds every batch in.  A worker holds no term, so the test
    lends the replica the front end's dictionary: the maintainer over
    adopted columns plus applied rows is then the batch engine."""
    with GraphCatalog() as front:
        entry = front.register("g", graph=RDFGraph(history[0]))
        store = entry.store
        registry = shm.SegmentRegistry()
        segment_name, directory, _ = registry.pack(
            "g", entry.version, protocol.pack_full_tables(store), protocol.BYTEORDER
        )
        worker = _Worker(_PipeStub(), {})
        try:
            worker.handle_load(("g", entry.version, (segment_name, directory), {}, []))
            replica = worker.catalog.entry("g")
            assert len(replica.store.dictionary) == 0
            replica.store.dictionary = store.dictionary  # terms for the oracle only
            for kind in _KINDS:
                _assert_is_the_batch_engine(replica, kind)
            for batch in history[1:]:
                fresh = store.insert_triples(batch, skip_existing=True)
                wire = [(kind.value, row[0], row[1], row[2]) for kind, row in fresh]
                worker.handle_delta(("g", [(entry.version + 1, None, wire)]))
                for kind in _KINDS:
                    summary = _assert_is_the_batch_engine(replica, kind)
                    assert set(summary.graph) == set(term_summary(store.to_graph(), kind).graph)
            assert replica.build_counters["prime_scans"] == 1
            assert replica.build_counters["summary_builds"] == 0
            worker.handle_drop(("g",))
        finally:
            worker.close()
            registry.close()


# ----------------------------------------------------------------------
# the maintainer on its own
# ----------------------------------------------------------------------
def _rows(store, triples):
    return store.insert_triples(triples, skip_existing=True)


def test_rekeyed_rows_are_bounded_by_the_degree_of_the_moved_nodes():
    store = MemoryStore()
    hub = _NODES[0]
    spokes = [Triple(EX.term(f"s{i}"), _PROPERTIES[0], hub) for i in range(40)]
    maintainer = CliqueSummarizer(store)
    maintainer.ingest_rows(_rows(store, spokes))
    assert maintainer.rekeyed_rows == 0
    # rows between nodes whose signatures stand still re-key nothing
    maintainer.ingest_rows(_rows(store, [Triple(EX.term("s40"), _PROPERTIES[0], hub)]))
    assert maintainer.rekeyed_rows == 0
    before = maintainer.sig_of[:]
    # the hub gains its first outgoing edge: its 41 incoming rows move, once
    maintainer.ingest_rows(_rows(store, [Triple(hub, _PROPERTIES[1], _NODES[1])]))
    moved = [node for node, code in enumerate(before) if code and maintainer.sig_of[node] != code]
    degree = sum(
        store.count_rows(TripleKind.DATA, subject=node) + store.count_rows(TripleKind.DATA, obj=node)
        for node in moved
    )
    assert moved == [store.dictionary.encode_existing(hub)]
    assert 0 < maintainer.rekeyed_rows == 41 <= degree
    # ... and never again: the hub's signature is complete
    maintainer.ingest_rows(_rows(store, [Triple(hub, _PROPERTIES[2], _NODES[2])]))
    assert maintainer.rekeyed_rows == 0
    assert maintainer.metrics() == {"nodes": 44, "signature_edges": len(maintainer.support)}


def test_snapshot_arrays_are_private_copies_decoded_on_demand():
    store = MemoryStore()
    maintainer = CliqueSummarizer(store)
    maintainer.ingest_rows(_rows(store, [_t(0, 0, 1), _typed(2)]))
    summary = maintainer.snapshot("g")
    assert summary._encoded is None and not summary.views_materialised
    maintainer.ingest_rows(_rows(store, [_t(1, 1, 2)]))  # moves n1 and n2 afterwards
    assert summary.representative_of == term_summary(RDFGraph([_t(0, 0, 1), _typed(2)]), "strong").representative_of
    assert summary._codes is None and summary._encoded is not None


def test_batch_weak_is_read_off_the_same_clique_state(bsbm_small):
    store = MemoryStore()
    store.load_graph(bsbm_small)
    maintainer = CliqueSummarizer(store)
    maintainer.prime()
    for kind in ("weak", "strong"):
        oracle = term_summary(bsbm_small, kind)
        summary = maintainer.snapshot(bsbm_small.name, kind)
        assert set(summary.graph) == set(oracle.graph)
        assert summary.representative_of == oracle.representative_of


@pytest.mark.parametrize("kind", _KINDS)
def test_snapshot_builds_one_triple_per_summary_edge(bsbm_small, kind, monkeypatch):
    """Many signature edges fall on one block edge: they are merged as
    integers, so what a reader pays after a version bump is summary-sized."""
    from repro.core import incremental

    store = MemoryStore()
    store.load_graph(bsbm_small)
    maintainer = CliqueSummarizer(store)
    maintainer.prime()
    built = []
    monkeypatch.setattr(incremental, "Triple", lambda *terms: built.append(terms) or Triple(*terms))
    summary = maintainer.snapshot(bsbm_small.name, kind)
    edges = len(summary.graph) - len(summary.graph.schema_triples)
    assert len(built) == edges < len(maintainer.support)


def test_the_old_maintainer_name_is_an_unexported_alias():
    """``bench/layers.py`` (frozen) still imports ``IncrementalWeakSummarizer``
    to time ``ingest_rows``: the name resolves to the one maintainer and is
    offered nowhere else."""
    import repro.core
    from repro.core import incremental

    assert incremental.IncrementalWeakSummarizer is CliqueSummarizer
    assert incremental.__all__ == ["CliqueSummarizer"]
    assert "IncrementalWeakSummarizer" not in repro.core.__all__
    with pytest.raises(AttributeError):
        repro.core.IncrementalWeakSummarizer
