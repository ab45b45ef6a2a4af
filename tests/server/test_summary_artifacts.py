"""The id-native summary holder and its packed ``summary:<kind>`` artifact.

A summary's node -> representative map travels from the summarizers to the
catalog file as dictionary ids; the ``Term`` maps are views decoded once, on
demand.  These tests pin that the views mean what the eager maps meant, that
the artifact carries no input node's text, that a payload in the older
term-tuple layout is skipped and rebuilt, and that serving never decodes the map.
"""

import pickle
import sqlite3
import sys
import threading
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoded import ENCODED_KINDS, encoded_summarize
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


def _eager_maps(summary, dictionary):
    """The two maps built the way ``Summary.__init__`` used to: one loop."""
    node_ids, block_indexes, summary_nodes = summary.encoded_representatives(dictionary)
    representative_of = {
        dictionary.decode(node): summary_nodes[block]
        for node, block in zip(node_ids, block_indexes)
    }
    extents = {}
    for input_node, summary_node in representative_of.items():
        extents.setdefault(summary_node, set()).add(input_node)
    return representative_of, extents


def _summaries_of(graph, store, kind):
    yield "encoded", encoded_summarize(store, kind, source_statistics=graph.statistics())
    yield "term", term_summary(graph, kind)


@settings(max_examples=30, deadline=None)
@given(_graphs, st.sampled_from(ENCODED_KINDS))
def test_pack_unpack_round_trips_every_kind_and_engine(graph, kind):
    with MemoryStore() as store:
        store.load_graph(graph)
        dictionary = store.dictionary
        for engine, summary in _summaries_of(graph, store, kind):
            eager_representatives, eager_extents = _eager_maps(summary, dictionary)
            payload = pickle.loads(pickle.dumps(_pack_summary(summary, dictionary), protocol=4))
            restored = _unpack_summary(payload, dictionary)
            assert not restored.views_materialised, engine
            for candidate in (summary, restored):
                assert candidate.kind == kind
                assert set(candidate.graph) == set(summary.graph), engine
                assert candidate.representative_of == eager_representatives, engine
                assert candidate.extents == eager_extents, engine
                for node, members in eager_extents.items():
                    assert candidate.extent(node) == members
                assert candidate.literal_only_nodes() == {
                    node
                    for node, members in eager_extents.items()
                    if all(isinstance(member, Literal) for member in members)
                }
            assert set(eager_representatives) == graph.data_nodes(), engine
            assert (restored.source_statistics is None) == (summary.source_statistics is None)


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


def test_summary_artifacts_fit_the_byte_budget_and_hold_no_node_text(bsbm_medium, tmp_path):
    path = str(tmp_path / "catalog.db")
    _cold_build(path, bsbm_medium)
    payloads = _artifact_payloads(path)
    node_texts = {
        pack_term(node)[1].encode("utf-8") for node in bsbm_medium.data_nodes()
    }
    assert len(node_texts) > 1000
    for kind in GUARD_KINDS:
        assert len(payloads[f"summary:{kind}"]) <= 12 * len(bsbm_medium.data_nodes()) + 16 * 1024
        payload = zlib.decompress(payloads[f"summary:{kind}"])  # what the blob says, inflated
        assert len(payload) <= 12 * len(bsbm_medium.data_nodes()) + 16 * 1024
        # long lexical forms only: a two-character literal can occur in any
        # byte string by accident
        leaked = [text for text in node_texts if len(text) >= 12 and text in payload]
        assert not leaked, leaked[:3]


def test_warm_start_serves_guarded_queries_without_decoding_the_map(bsbm_medium, tmp_path):
    path = str(tmp_path / "catalog.db")
    _cold_build(path, bsbm_medium)
    workload = generate_mixed_workload(bsbm_medium, count=50, seed=5)
    with GraphCatalog() as oracle_catalog:
        oracle_catalog.register("g", graph=bsbm_medium)
        oracle = QueryService(oracle_catalog, strategy="hash", prune=False)
        expected = [set(oracle.answer("g", item.query).answers) for item in workload]
    with GraphCatalog.open(path) as catalog:
        service = QueryService(catalog, kind="weak+strong", strategy="hash")
        answers = [service.answer("g", item.query) for item in workload]
        assert [set(answer.answers) for answer in answers] == expected
        assert any(answer.pruned for answer in answers)
        entry = catalog.entry("g")
        assert not any(entry.build_counters.values()), dict(entry.build_counters)
        cached = entry.cached_summaries()
        assert set(cached) == set(GUARD_KINDS)
        assert not any(summary.views_materialised for summary in cached.values())
        # and the views are there the moment someone asks
        assert set(cached["strong"].representative_of) == bsbm_medium.data_nodes()


def _old_layout_payload(summary):
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


def _rewrite_summary_artifacts(path, payload_of):
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
                connection.execute(
                    "UPDATE artifacts SET payload = ? WHERE graph = 'g' AND name = ?",
                    (payload_of(name.split(":", 1)[1]), name),
                )
    finally:
        connection.close()
    return names


def test_old_layout_file_opens_answers_and_is_rewritten(bsbm_small, tmp_path):
    path = str(tmp_path / "catalog.db")
    _cold_build(path, bsbm_small)
    with GraphCatalog() as scratch:
        entry = scratch.register("g", graph=bsbm_small)
        old = {
            kind: _pack(_old_layout_payload(entry.summary(kind)))
            for kind in GUARD_KINDS
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
        assert entry.cached_summaries() == {}  # both artifacts skipped, nothing raised
        service = QueryService(catalog, kind="weak+strong", strategy="hash")
        for _round in range(2):
            answers = [service.answer("g", item.query) for item in workload]
            assert [set(answer.answers) for answer in answers] == expected
        assert any(answer.pruned for answer in answers)
        # both skipped summaries are rebuilt by the maintainer's one priming
        # scan, on first use, and then cached
        assert {name: hits for name, hits in entry.build_counters.items() if hits} == {
            "prime_scans": 1,
        }
        catalog.checkpoint()

    payloads = _artifact_payloads(path)
    for kind in GUARD_KINDS:
        written = _unpack(payloads[f"summary:{kind}"])
        assert "representative_of" not in written
        assert written["node_ids"].typecode == "i"
    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        assert set(entry.cached_summaries()) == set(GUARD_KINDS)
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
            dict(_unpack(payload), block_indexes=_unpack(payload)["block_indexes"][:-1])
        ),  # arrays of different lengths
        lambda payload: _pack(
            dict(_unpack(payload), summary_nodes=[])
        ),  # block indexes past the node table
    ],
)
def test_undecodable_summary_artifacts_are_skipped_and_counted(fig2, tmp_path, damage):
    from repro import telemetry

    path = str(tmp_path / "catalog.db")
    _cold_build(path, fig2)
    intact = _artifact_payloads(path)
    _rewrite_summary_artifacts(path, lambda kind: damage(intact[f"summary:{kind}"]))
    skipped = telemetry.counter("persistence.artifacts.skipped")
    before = skipped.value
    with GraphCatalog.open(path) as catalog:
        entry = catalog.entry("g")
        assert entry.cached_summaries() == {}
        assert skipped.value == before + 2
        assert len(entry.summary("strong").graph) > 0


def test_term_engine_summary_persists_through_the_dictionary(fig2, tmp_path):
    """A ``Term``-dict summary installed on an entry is encoded when written."""
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("g", graph=fig2)
        oracle_summary = term_summary(fig2, "typed_weak")
        with entry._init_lock:
            entry._summaries["typed_weak"] = (entry.version, oracle_summary)
        catalog.checkpoint()
    with GraphCatalog.open(path) as catalog:
        restored = catalog.entry("g").cached_summaries()["typed_weak"]
        assert not restored.views_materialised
        assert restored.representative_of == oracle_summary.representative_of
        assert restored.extents == oracle_summary.extents


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
