"""Table packing and the wire protocol: pure in-process tests."""

import pytest

from repro.cluster import protocol
from repro.errors import DictionaryError
from repro.model.dictionary import Dictionary
from repro.model.terms import BlankNode, Literal, URI
from repro.model.triple import TripleKind
from repro.store.memory import MemoryStore
from oracles.reference_store import DictReferenceStore


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
