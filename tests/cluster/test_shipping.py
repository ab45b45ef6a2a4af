"""Table packing and the wire protocol: pure in-process tests.  What
crosses the pipe is integers: id columns, id rows, compiled id queries and
head id tuples — never a term."""

import pytest

from repro.cluster import ClusterCoordinator, protocol
from repro.model.namespaces import RDF_TYPE, RDFS_DOMAIN
from repro.model.terms import URI
from repro.model.triple import Triple, TripleKind
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
from repro.service.evaluator import compile_query
from repro.store.memory import MemoryStore
from oracles.reference_store import DictReferenceStore


@pytest.mark.parametrize("store_cls", [MemoryStore, DictReferenceStore])
def test_load_column_bytes_round_trip(bsbm_small, store_cls):
    """Shipping = pack + load: the packed tables rebuild the exact store —
    from the columnar arrays and the generic ``scan_columns`` packer alike."""
    store = store_cls()
    store.insert_triples(bsbm_small)
    target = MemoryStore()
    target.dictionary = store.dictionary
    for kind_value, (count, s_bytes, p_bytes, o_bytes) in protocol.pack_full_tables(store).items():
        kind = TripleKind(kind_value)
        assert target.load_column_bytes(kind, s_bytes, p_bytes, o_bytes) == count
        whole = {row for batch in store.scan_batches(kind) for row in batch}
        assert {row for batch in target.scan_batches(kind) for row in batch} == whole
    target.close()
    store.close()


def _primitives(value):
    """Whether *value* is built from the pipe's primitives only."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return True
    if isinstance(value, (tuple, list)):
        return all(map(_primitives, value))
    if isinstance(value, dict):
        return all(_primitives(key) and _primitives(item) for key, item in value.items())
    return False


def test_a_query_travels_as_integers(fig2):
    store = MemoryStore()
    store.load_graph(fig2)
    query = parse_query("SELECT ?x ?y WHERE { ?x <http://example.org/fig2/editor> ?y . }")
    payload = protocol.query_payload("g", compile_query(query, store.dictionary), 5, False, True, None)
    assert _primitives(payload)
    name, patterns, head_slots, variable_count, *_flags = payload
    assert (name, head_slots, variable_count) == ("g", (0, 1), 2)
    ((subject, predicate, obj, tables),) = patterns
    assert (subject, obj, tables) == (-1, -2, [TripleKind.DATA.value])
    assert predicate == store.dictionary.encode_existing(URI("http://example.org/fig2/editor"))
    store.close()


def test_the_image_and_the_log_carry_no_term():
    """A load is a segment of id columns plus the vocabulary ids; a logged
    batch is id rows, plus the vocabulary ids only when it minted one."""
    catalog = GraphCatalog()
    catalog.register("g", graph=[Triple(URI("http://t/a"), URI("http://t/p"), URI("http://t/b"))])
    coordinator = ClusterCoordinator(catalog, workers=1, heartbeat_seconds=0)
    try:
        coordinator.add_triples("g", [Triple(URI("http://t/c"), URI("http://t/p"), URI("http://t/d"))])
        # the batch mints rdfs:domain
        coordinator.add_triples("g", [Triple(URI("http://t/p"), RDFS_DOMAIN, URI("http://t/C"))])
        dictionary = catalog.entry("g").store.dictionary
        handle = coordinator._workers[0]
        op, delta = coordinator._catch_up(handle, "g")
        assert op == protocol.OP_DELTA and _primitives(delta)
        (_v1, plain, _rows), (_v2, minted, _schema_rows) = delta[1]
        assert plain is None
        assert minted == {
            "type": dictionary.encode_existing(RDF_TYPE),  # minted before the first pack
            "domain": dictionary.encode_existing(RDFS_DOMAIN),
        }
        handle.cursors.clear()  # as after a respawn: the next contact loads
        op, load = coordinator._catch_up(handle, "g")
        assert op == protocol.OP_LOAD and _primitives(load)
        _name, _version, (segment_name, directory), vocabulary, entries = load
        assert vocabulary == minted and len(entries) == 2
        assert set(directory) == {"graph", "version", "byteorder", "tables", "generation"}
    finally:
        coordinator.close()
        catalog.close()
