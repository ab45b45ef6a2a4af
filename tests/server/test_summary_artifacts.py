"""The id-native summary holder and its ``summary:<kind>`` artifact.

A summary's node -> representative map travels from the summarizers as
dictionary ids; the ``Term`` maps are views decoded once, on demand.  The
catalog file stores a summary's graph alone — what the guard reads — so the
artifact is summary-sized and carries no input node's text.  These tests pin
that the views mean what the eager maps meant, that the artifact round-trips
the graph, that payloads of older layouts (which carried the map) warm-start
without priming and are rewritten, and that serving never builds a summary.
"""

import pickle
import sqlite3
import sys
import threading
import zlib
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoded import ENCODED_KINDS, encoded_summarize
from repro.core.incremental import CliqueSummarizer
from repro.datasets.bsbm import generate_bsbm
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE, RDFS_SUBCLASSOF
from repro.model.terms import Literal
from repro.model.triple import Triple
from repro.model.dictionary import pack_term
from repro.server.persistence import _pack, _pack_summary, _unpack, _unpack_summary
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.service.workload import generate_mixed_workload
from repro.store.memory import MemoryStore

from oracles.term_partitions import term_summary

_RESOURCES = [EX.term(f"r{i}") for i in range(10)]
_PROPERTIES = [EX.term(f"p{i}") for i in range(4)]
_CLASSES = [EX.term(f"C{i}") for i in range(3)]
_OBJECTS = _RESOURCES + [Literal(f"v{i}") for i in range(4)]

_graphs = st.builds(
    lambda data, types, schema: RDFGraph([*data, *types, *schema]),
    st.lists(
        st.builds(
            Triple,
            st.sampled_from(_RESOURCES),
            st.sampled_from(_PROPERTIES),
            st.sampled_from(_OBJECTS),
        ),
        min_size=1,
        max_size=20,
    ),
    st.lists(
        st.builds(Triple, st.sampled_from(_RESOURCES), st.just(RDF_TYPE), st.sampled_from(_CLASSES)),
        max_size=8,
    ),
    st.lists(
        st.builds(
            Triple, st.sampled_from(_CLASSES), st.just(RDFS_SUBCLASSOF), st.sampled_from(_CLASSES)
        ),
        max_size=3,
    ),
)


def _id_pairs(summary):
    """``(input node id, summary node)`` of an id-native summary, read off
    the arrays it holds; ``None`` for a ``Term``-dict summary."""
    if summary._codes is not None:
        codes, block_of_code, summary_nodes, _table = summary._codes
        return [
            (node, summary_nodes[block_of_code[code]])
            for node, code in enumerate(codes)
            if block_of_code[code] >= 0
        ]
    if summary._encoded is not None:
        node_ids, block_indexes, summary_nodes, _table = summary._encoded
        return [(node, summary_nodes[block]) for node, block in zip(node_ids, block_indexes)]
    return None


def _eager_maps(summary, dictionary):
    """The two maps built the way ``Summary.__init__`` used to: one loop."""
    pairs = _id_pairs(summary)
    if pairs is None:
        representative_of = dict(summary.representative_of)
    else:
        representative_of = {dictionary.decode(node): block for node, block in pairs}
    extents = {}
    for input_node, summary_node in representative_of.items():
        extents.setdefault(summary_node, set()).add(input_node)
    return representative_of, extents


def _summaries_of(graph, store, kind):
    yield "encoded", encoded_summarize(store, kind, source_statistics=graph.statistics())
    yield "term", term_summary(graph, kind)
    if kind in ("weak", "strong"):
        maintainer = CliqueSummarizer(store)
        maintainer.prime()
        yield "maintainer", maintainer.snapshot("g", kind)


@settings(max_examples=30, deadline=None)
@given(_graphs, st.sampled_from(ENCODED_KINDS))
def test_pack_unpack_round_trips_every_kind_and_engine(graph, kind):
    with MemoryStore() as store:
        store.load_graph(graph)
        dictionary = store.dictionary
        for engine, summary in _summaries_of(graph, store, kind):
            payload = pickle.loads(pickle.dumps(_pack_summary(summary.graph), protocol=4))
            assert set(payload) == {"graph_name", "triples"}
            restored = _unpack_summary(payload)
            assert restored == summary.graph and restored.name == summary.graph.name, engine
            eager_representatives, eager_extents = _eager_maps(summary, dictionary)
            assert not summary.views_materialised or engine == "term", engine
            assert summary.kind == kind
            assert summary.representative_of == eager_representatives, engine
            assert summary.extents == eager_extents, engine
            for node, members in eager_extents.items():
                assert summary.extent(node) == members
            assert summary.literal_only_nodes() == {
                node
                for node, members in eager_extents.items()
                if all(isinstance(member, Literal) for member in members)
            }
            assert set(eager_representatives) == graph.data_nodes(), engine


def test_racing_first_access_sees_one_mapping(bsbm_small):
    with MemoryStore() as store:
        store.load_graph(bsbm_small)
        summary = encoded_summarize(store, "strong")
        expected, _extents = _eager_maps(summary, store.dictionary)
        barrier = threading.Barrier(8)
        seen, errors = [], []

        def reader(index):
            try:
                barrier.wait(timeout=30)
                # half the readers hit one view first, half the other
                extents = summary.extents if index % 2 else None
                seen.append((summary.representative_of, extents or summary.extents))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        first_representatives, first_extents = seen[0]
        assert first_representatives == expected
        for representatives, extents in seen:
            # the very same objects: decoded once, shared by every reader
            assert representatives is first_representatives
            assert extents is first_extents
        assert sum(len(members) for members in first_extents.values()) == len(expected)


# ----------------------------------------------------------------------
# the catalog file
# ----------------------------------------------------------------------
GUARD_KINDS = ("weak", "strong")


def _cold_build(path, graph):
    """What the benchmark's set-up does: register, both guard summaries, checkpoint."""
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("g", graph=graph)
        for kind in GUARD_KINDS:
            entry.summary(kind)
        catalog.checkpoint()


def _artifact_payloads(path):
    connection = sqlite3.connect(path)
    try:
        return dict(connection.execute("SELECT name, payload FROM artifacts WHERE graph = 'g'"))
    finally:
        connection.close()


@pytest.fixture(scope="module")
def bsbm_medium():
    return generate_bsbm(scale=120, seed=3)


def test_summary_artifacts_are_summary_sized_and_hold_no_node_text(bsbm_medium, tmp_path):
    sizes, node_counts = {}, {}
    for scale, graph in ((120, bsbm_medium), (480, generate_bsbm(scale=480, seed=3))):
        path = str(tmp_path / f"catalog-{scale}.db")
        _cold_build(path, graph)
        payloads = _artifact_payloads(path)
        node_counts[scale] = len(graph.data_nodes())
        node_texts = {pack_term(node)[1].encode("utf-8") for node in graph.data_nodes()}
        for kind in GUARD_KINDS:
            blob = payloads[f"summary:{kind}"]
            sizes[scale, kind] = len(blob)
            payload = _unpack(blob)
            assert set(payload) == {"graph_name", "triples"}
            assert not any(isinstance(value, array) for value in payload.values())
            inflated = zlib.decompress(blob)  # what the blob says
            # long lexical forms only: a two-character literal can occur in
            # any byte string by accident
            leaked = [text for text in node_texts if len(text) >= 12 and text in inflated]
            assert not leaked, leaked[:3]
    assert node_counts[480] > 3 * node_counts[120] > 3000
    for kind in GUARD_KINDS:
        assert sizes[480, kind] < 1.5 * sizes[120, kind], (kind, sizes)


def test_warm_start_guards_from_the_restored_graphs(bsbm_medium, tmp_path):
    path = str(tmp_path / "catalog.db")
    _cold_build(path, bsbm_medium)
    workload = generate_mixed_workload(bsbm_medium, count=50, seed=5)
    with GraphCatalog() as oracle_catalog:
        oracle_catalog.register("g", graph=bsbm_medium)
        oracle = QueryService(oracle_catalog, strategy="hash", prune=False)
        expected = [set(oracle.answer("g", item.query).answers) for item in workload]
        fresh = {kind: oracle_catalog.summary("g", kind).graph for kind in GUARD_KINDS}
    with GraphCatalog.open(path) as catalog:
        service = QueryService(catalog, kind="weak+strong", strategy="hash")
        answers = [service.answer("g", item.query) for item in workload]
        assert [set(answer.answers) for answer in answers] == expected
        assert any(answer.pruned for answer in answers)
        entry = catalog.entry("g")
        assert not any(entry.build_counters.values()), dict(entry.build_counters)
        assert entry.cached_pruning_graphs() == fresh


def _id_array_payload(summary, dictionary):
    """The ``summary:<kind>`` layout that stored the map as two packed
    ``array('i')`` over the graph's dictionary ids beside the graph."""
    index_of = {}
    node_ids, block_indexes = array("i"), array("i")
    for node, representative in summary.representative_of.items():
        node_ids.append(dictionary.encode_existing(node))
        block_indexes.append(index_of.setdefault(representative, len(index_of)))
    return {
        "kind": summary.kind,
        "source_name": summary.source_name,
        "graph_name": summary.graph.name,
        "triples": [
            (pack_term(t.subject), pack_term(t.predicate), pack_term(t.object))
            for t in summary.graph
        ],
        "node_ids": node_ids,
        "block_indexes": block_indexes,
        "summary_nodes": [pack_term(node) for node in index_of],
        "source_statistics": None,
    }


def _old_layout_payload(summary, _dictionary):
    """The term-tuple ``summary:<kind>`` layout written before the id arrays."""
    return {
        "kind": summary.kind,
        "source_name": summary.source_name,
        "graph_name": summary.graph.name,
        "triples": [
            (pack_term(t.subject), pack_term(t.predicate), pack_term(t.object))
            for t in summary.graph
        ],
        "representative_of": [
            (pack_term(node), pack_term(representative))
            for node, representative in summary.representative_of.items()
        ],
        "source_statistics": None,
    }


def _rewrite_summary_artifacts(path, payload_of, name_of=lambda kind: f"summary:{kind}"):
    connection = sqlite3.connect(path)
    try:
        with connection:
            names = [
                name
                for (name,) in connection.execute(
                    "SELECT name FROM artifacts WHERE graph = 'g' AND name LIKE 'summary:%'"
                )
            ]
            for name in names:
                kind = name.split(":", 1)[1]
                connection.execute(
                    "UPDATE artifacts SET name = ?, payload = ? WHERE graph = 'g' AND name = ?",
                    (name_of(kind), payload_of(kind), name),
                )
    finally:
        connection.close()
    return names


@pytest.mark.parametrize("layout", [_id_array_payload, _old_layout_payload])
def test_older_payload_layouts_warm_start_and_are_rewritten(bsbm_small, tmp_path, layout):
    path = str(tmp_path / "catalog.db")
    _cold_build(path, bsbm_small)
    with GraphCatalog() as scratch:
        entry = scratch.register("g", graph=bsbm_small)
        summaries = {kind: entry.summary(kind) for kind in GUARD_KINDS}
        old = {
            kind: _pack(layout(summary, entry.store.dictionary))
            for kind, summary in summaries.items()
        }
        workload = generate_mixed_workload(bsbm_small, count=30, seed=2)
        oracle = QueryService(scratch, strategy="hash", prune=False)
        expected = [set(oracle.answer("g", item.query).answers) for item in workload]
    assert sorted(_rewrite_summary_artifacts(path, old.__getitem__)) == [
        "summary:strong",
        "summary:weak",
    ]

    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        assert entry.cached_pruning_graphs() == {
            kind: summary.graph for kind, summary in summaries.items()
        }
        service = QueryService(catalog, kind="weak+strong", strategy="hash")
        answers = [service.answer("g", item.query) for item in workload]
        assert [set(answer.answers) for answer in answers] == expected
        assert any(answer.pruned for answer in answers)
        catalog.checkpoint()
        assert not any(entry.build_counters.values()), dict(entry.build_counters)

    payloads = _artifact_payloads(path)
    for kind in GUARD_KINDS:
        written = _unpack(payloads[f"summary:{kind}"])
        assert set(written) == {"graph_name", "triples"}
        assert _unpack_summary(written) == summaries[kind].graph
    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        assert set(entry.cached_pruning_graphs()) == set(GUARD_KINDS)
        assert not any(entry.build_counters.values())


@pytest.mark.parametrize(
    "damage",
    [
        lambda payload: payload[: len(payload) // 2],  # truncated zlib stream
        lambda payload: payload[:-8] + bytes(8),  # garbled tail: the checksum fails
        lambda payload: zlib.compress(zlib.decompress(payload)[:40]),  # truncated pickle
        lambda payload: pickle.dumps(_unpack(payload), protocol=4),  # not compressed at all
        lambda payload: _pack(["not", "a", "mapping"]),  # wrong shape
        lambda payload: _pack(
            dict(_unpack(payload), triples=[(pack_term(EX.s), pack_term(EX.p))])
        ),  # a triple of two terms
        lambda payload: _pack(
            dict(_unpack(payload), triples=[("s", "p", "o")])
        ),  # a triple whose terms are not packed terms
        None,  # the payload intact, the row renamed to a kind no build knows
    ],
)
def test_undecodable_summary_artifacts_are_skipped_and_counted(fig2, tmp_path, damage):
    from repro import telemetry

    path = str(tmp_path / "catalog.db")
    _cold_build(path, fig2)
    intact = _artifact_payloads(path)
    if damage is None:
        _rewrite_summary_artifacts(
            path, lambda kind: intact[f"summary:{kind}"], lambda kind: f"summary:bogus-{kind}"
        )
    else:
        _rewrite_summary_artifacts(path, lambda kind: damage(intact[f"summary:{kind}"]))
    skipped = telemetry.counter("persistence.artifacts.skipped")
    before = skipped.value
    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        assert entry.cached_pruning_graphs() == {}
        assert skipped.value == before + 2
        assert len(entry.pruning_graph("strong")) > 0
        assert dict(entry.build_counters)["prime_scans"] == 1


def test_every_cached_kind_is_restored_as_its_graph(fig2, tmp_path):
    """The typed and type-based kinds ride along like weak and strong."""
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("g", graph=fig2)
        built = {kind: entry.summary(kind).graph for kind in ENCODED_KINDS}
        catalog.checkpoint()
    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        assert entry.cached_pruning_graphs() == built
        for kind in ENCODED_KINDS:
            assert entry.pruning_graph(kind) == built[kind]
        assert not any(entry.build_counters.values())


def test_cold_build_checkpoint_does_not_rewrite_the_rows(bsbm_small, tmp_path, monkeypatch):
    from repro.server.persistence import PersistentCatalog

    full_writes = []
    original = PersistentCatalog.save_graph
    monkeypatch.setattr(
        PersistentCatalog,
        "save_graph",
        lambda self, entry: (full_writes.append(entry.name), original(self, entry))[1],
    )
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("g", graph=bsbm_small)
        entry.summary("strong")
        catalog.checkpoint()
        assert full_writes == ["g"]  # register's; the checkpoint replaced artifacts only
        assert "summary:strong" in _artifact_payloads(path)

        # rows appended since: the checkpoint folds them into the column blobs
        catalog.add_triples("g", [Triple(EX.term("s"), EX.term("p1"), EX.term("o"))])
        catalog.checkpoint()
        assert full_writes == ["g", "g"]
        catalog.checkpoint()
        assert full_writes == ["g", "g"]
    with GraphCatalog.open(path) as catalog:
        # a file this process only opened: the load counted its (empty) log
        catalog.checkpoint()
        assert full_writes == ["g", "g"]
        entry = catalog.entry("g")
        assert entry.version == 1 and not any(entry.build_counters.values())
        catalog.add_triples("g", [Triple(EX.term("s2"), EX.term("p1"), EX.term("o"))])
    with GraphCatalog.open(path) as catalog:
        # ... and a log with rows in it: the checkpoint folds them in
        assert catalog.log_tail_rows("g") == 1
        catalog.checkpoint()
        assert full_writes == ["g", "g", "g"]
        assert catalog.log_tail_rows("g") == 0
