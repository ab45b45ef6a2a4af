"""A batch of triples is a set: the store keeps one canonical form of it.

Whatever order a batch arrives in — a list, a graph's hash-ordered set, a
permutation with repeats — its new terms get the same ids (numbered in
:func:`~repro.model.terms.term_sort_key` order) and its rows land in the same
``(p, o, s)`` order, so two stores fed the same batches hold the same
dictionary, the same columns and return the same rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.namespaces import EX, RDF_TYPE, RDFS_SUBCLASSOF, XSD
from repro.model.terms import BlankNode, Literal
from repro.model.triple import Triple, TripleKind
from repro.store.memory import MemoryStore

SUBJECTS = [EX.a, EX.b, EX.c, EX.Book, BlankNode("x"), BlankNode("y")]
OBJECTS = SUBJECTS + [
    Literal("1"),
    Literal("1", language="en"),
    Literal("1", datatype=XSD.term("integer")),
    Literal("b"),
]
PREDICATES = [EX.p, EX.q, RDF_TYPE, RDFS_SUBCLASSOF]

triples = st.builds(
    Triple, st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)
)


def _state(store):
    return (
        list(store.dictionary.decode_table),
        {kind: store.column_bytes(kind) for kind in TripleKind},
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    first=st.lists(triples, min_size=1, max_size=12),
    batch=st.lists(triples, min_size=1, max_size=24),
    data=st.data(),
)
def test_every_order_of_a_batch_is_stored_alike(first, batch, data):
    batch = batch + batch[: len(batch) // 2]  # in-batch duplicates
    permuted = data.draw(st.permutations(batch))
    for prefix in ([], first):
        stores = MemoryStore(), MemoryStore()
        returned = []
        for store, order in zip(stores, (batch, permuted)):
            store.insert_triples(prefix)
            returned.append(store.insert_triples(order, skip_existing=True))
        assert _state(stores[0]) == _state(stores[1])
        assert returned[0] == returned[1]
