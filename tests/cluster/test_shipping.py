"""Shard extraction and the wire protocol: pure in-process tests."""

from array import array

import pytest

from repro.cluster import protocol
from repro.errors import DictionaryError
from repro.model.dictionary import Dictionary
from repro.model.terms import BlankNode, Literal, URI
from repro.model.triple import TripleKind
from repro.store.base import ID_TYPECODE, shard_of
from repro.store.memory import MemoryStore
from oracles.reference_store import DictReferenceStore


def _unpack(blob):
    column = array(ID_TYPECODE)
    column.frombytes(blob)
    return list(column)


def _rows_of(part):
    count, s_bytes, p_bytes, o_bytes = part
    s_col, p_col, o_col = _unpack(s_bytes), _unpack(p_bytes), _unpack(o_bytes)
    assert count == len(s_col) == len(p_col) == len(o_col)
    return list(zip(s_col, p_col, o_col))


def test_shard_of_is_subject_modulo():
    assert shard_of(0, 4) == 0
    assert shard_of(7, 4) == 3
    assert shard_of(8, 4) == 0
    assert {shard_of(i, 3) for i in range(9)} == {0, 1, 2}


@pytest.mark.parametrize("store_cls", [MemoryStore, DictReferenceStore])
@pytest.mark.parametrize("shard_count", [1, 2, 5])
def test_partition_is_exact(bsbm_small, store_cls, shard_count):
    """Shards are disjoint, complete, and keyed by subject hash —
    on the columnar sorted-run override and the generic fallback alike."""
    store = store_cls()
    store.insert_triples(bsbm_small)
    for kind in (TripleKind.DATA, TripleKind.TYPE):
        whole = set()
        for batch in store.scan_batches(kind):
            whole.update(batch)
        parts = store.partition_column_bytes(kind, shard_count)
        assert len(parts) == shard_count
        union = []
        for index, part in enumerate(parts):
            rows = _rows_of(part)
            for subject, _p, _o in rows:
                assert subject % shard_count == index
            union.extend(rows)
        # disjoint + complete: the shards are a partition of the table
        assert len(union) == len(whole)
        assert set(union) == whole
    store.close()


def test_partition_backends_agree_as_multisets(bsbm_small):
    memory = MemoryStore()
    memory.insert_triples(bsbm_small)
    reference = DictReferenceStore()
    reference.insert_triples(bsbm_small)
    for kind in (TripleKind.DATA, TripleKind.TYPE):
        fast = memory.partition_column_bytes(kind, 3)
        slow = reference.partition_column_bytes(kind, 3)
        for fast_part, slow_part in zip(fast, slow):
            assert sorted(_rows_of(fast_part)) == sorted(_rows_of(slow_part))
    memory.close()
    reference.close()


def test_partition_rejects_bad_shard_count():
    store = MemoryStore()
    with pytest.raises(ValueError):
        store.partition_column_bytes(TripleKind.DATA, 0)
    store.close()


# the term codec lives next to Dictionary (repro.model.dictionary) and is
# shared with the persistent catalog; the cluster reaches it through protocol
def test_pack_unpack_terms_round_trip():
    source = Dictionary()
    terms = [
        URI("http://example.org/a"),
        BlankNode("b0"),
        Literal("plain"),
        Literal("12", datatype=URI("http://www.w3.org/2001/XMLSchema#integer")),
        Literal("chat", language="en"),
        URI("http://example.org/b"),
    ]
    for term in terms:
        source.encode(term)
    packed = protocol.pack_terms(source)
    target = Dictionary()
    assert protocol.unpack_terms(packed, target) == len(source)
    for term in terms:
        assert target.encode_existing(term) == source.encode_existing(term)


def test_pack_terms_tail_only():
    source = Dictionary()
    source.encode(URI("http://example.org/a"))
    mark = len(source)
    source.encode(URI("http://example.org/b"))
    source.encode(Literal("x"))
    tail = protocol.pack_terms(source, mark)
    assert len(tail) == 2
    target = Dictionary()
    target.encode(URI("http://example.org/a"))
    protocol.unpack_terms(tail, target)
    assert target.encode_existing(Literal("x")) == source.encode_existing(Literal("x"))


def test_unpack_terms_detects_divergence():
    """A term that would land on the wrong id is an error, not a mis-key."""
    packed = [("u", "http://example.org/a", None, None)]
    target = Dictionary()
    target.encode(URI("http://example.org/a"))  # already present: id 0 != 1
    with pytest.raises(DictionaryError):
        protocol.unpack_terms(packed, target)


def test_unpack_terms_rejects_unknown_kind():
    with pytest.raises(DictionaryError):
        protocol.unpack_terms([("z", "x", None, None)], Dictionary())


def test_shard_rows_broadcasts_schema():
    rows = [
        ("data", 0, 10, 11),
        ("data", 1, 10, 12),
        ("type", 2, 0, 13),
        ("schema", 99, 5, 6),
    ]
    shard0 = protocol.shard_rows(rows, 0, 2)
    shard1 = protocol.shard_rows(rows, 1, 2)
    assert ("schema", 99, 5, 6) in shard0 and ("schema", 99, 5, 6) in shard1
    assert ("data", 0, 10, 11) in shard0 and ("data", 0, 10, 11) not in shard1
    assert ("data", 1, 10, 12) in shard1 and ("type", 2, 0, 13) in shard0


def test_pack_all_shard_tables_broadcasts_schema(bsbm_small):
    store = MemoryStore()
    store.insert_triples(bsbm_small)
    all_parts = protocol.pack_all_shard_tables(store, 3)
    assert len(all_parts) == 3
    # schema is broadcast whole: identical blob in every shard
    schema_blobs = {parts[TripleKind.SCHEMA.value][1] for parts in all_parts}
    assert len(schema_blobs) == 1
    store.close()


def test_load_column_bytes_round_trip(bsbm_small):
    """Shipping = partition + load: the shards rebuild the exact table."""
    store = MemoryStore()
    store.insert_triples(bsbm_small)
    parts = protocol.pack_all_shard_tables(store, 2)
    whole = set()
    for batch in store.scan_batches(TripleKind.DATA):
        whole.update(batch)
    rebuilt = set()
    for part in parts:
        target = MemoryStore()
        target.dictionary = store.dictionary
        count, s_bytes, p_bytes, o_bytes = part[TripleKind.DATA.value]
        loaded = target.load_column_bytes(TripleKind.DATA, s_bytes, p_bytes, o_bytes)
        assert loaded == count
        for batch in target.scan_batches(TripleKind.DATA):
            rebuilt.update(batch)
    assert rebuilt == whole
    store.close()


def test_shard_rows_agrees_with_partition_column_bytes(bsbm_small):
    """The row router and the bulk partitioner must pin rows to the same
    shard — both go through ``shard_of`` — or a delta would land on a
    worker whose snapshot never held its subject."""
    store = MemoryStore()
    store.insert_triples(bsbm_small)
    shard_count = 3
    parts = store.partition_column_bytes(TripleKind.DATA, shard_count)
    wire_rows = [
        (TripleKind.DATA.value, s, p, o)
        for batch in store.scan_batches(TripleKind.DATA)
        for s, p, o in batch
    ]
    for index in range(shard_count):
        partitioned = set(_rows_of(parts[index]))
        routed = {
            (s, p, o)
            for _kind, s, p, o in protocol.shard_rows(wire_rows, index, shard_count)
        }
        assert routed == partitioned
        for subject, _p, _o in routed:
            assert shard_of(subject, shard_count) == index
    store.close()


def test_pack_term_chunks_round_trip():
    """Dictionary shipment is sliced into bounded chunks that reassemble,
    in order, into the exact same id assignment."""
    source = Dictionary()
    for i in range(150):
        source.encode(URI(f"http://example.org/term/{i}"))
    chunks = protocol.pack_term_chunks(source, chunk=64)
    assert [len(chunk) for chunk in chunks] == [64, 64, 22]
    target = Dictionary()
    assert protocol.unpack_term_chunks(chunks, target) == len(source)
    for i in (0, 63, 64, 149):
        term = URI(f"http://example.org/term/{i}")
        assert target.encode_existing(term) == source.encode_existing(term)


def test_pack_term_chunks_tail_only():
    """Delta shipment keeps the offset-tagged contract: chunks packed from
    a dictionary mark splice onto a target already holding the prefix."""
    source = Dictionary()
    source.encode(URI("http://example.org/a"))
    mark = len(source)
    for i in range(5):
        source.encode(URI(f"http://example.org/tail/{i}"))
    chunks = protocol.pack_term_chunks(source, start=mark, chunk=2)
    assert [len(chunk) for chunk in chunks] == [2, 2, 1]
    target = Dictionary()
    target.encode(URI("http://example.org/a"))
    protocol.unpack_term_chunks(chunks, target)
    probe = URI("http://example.org/tail/4")
    assert target.encode_existing(probe) == source.encode_existing(probe)


def test_pack_term_chunks_empty_and_bad_size():
    assert protocol.pack_term_chunks(Dictionary()) == []
    with pytest.raises(DictionaryError):
        protocol.pack_term_chunks(Dictionary(), chunk=0)
