"""Store-driven maintenance of the weak and strong summaries (Section 6).

Both summaries are quotients over one object — the source / target property
cliques (Definitions 5-7) — so one maintainer serves both:
:class:`CliqueSummarizer` keeps the clique state of a store's graph current
from row deltas, in any arrival order, and :meth:`~CliqueSummarizer.snapshot`
reads either summary off it at a cost proportional to the *summary*.

How the state maps onto the paper's Section 6.1 structures: a strong node is
one (target clique, source clique) pair; a *weak* node is a component of such
pairs chained through a shared clique.  Every data property then lies in
exactly one clique per side and every clique in exactly one weak node, which
is the uniqueness of ``dpSrc`` / ``dpTarg`` (Prop. 4) — the weak summary has
one data triple per property without a node merge (``MERGEDATANODES``) ever
being performed.  Resources known from type triples only carry the empty
signature and share the one ``Nτ`` node; the first data triple that mentions
one gives it a proper signature (Algorithm 3's promotion, order-independent).

The resulting summaries equal the quotient-based
:func:`repro.core.builders.weak_summary` / ``strong_summary``; the test suite
asserts this on both backends and against the ``Term``-level oracle.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.naming import SummaryNamer
from repro.core.summary import Summary
from repro.model.dictionary import EncodedTriple
from repro.model.graph import RDFGraph
from repro.model.terms import URI
from repro.model.triple import Triple, TripleKind
from repro.store.base import TripleStore
from repro.utils.unionfind import IntUnionFind

__all__ = ["CliqueSummarizer"]


class CliqueSummarizer:
    """Maintains the property-clique state of a store's graph from row
    deltas, and reads the weak or the strong summary off it (Definition 7).

    A node's *signature* is the first property it was seen as the object of
    and the first it was seen as the subject of (``-1``: none yet); its
    strong block is the pair of cliques those two belong to, so a clique
    merge never relabels a node.  Signatures are interned: ``sig_of`` holds
    one code per dictionary id (``0``: not a node, ``1``: typed only),
    ``sig_in`` / ``sig_out`` what each code stands for.  Summary edges are
    kept per signature with a support count — ``(is_data, sig_s, p, sig_o or
    class) → rows`` — and mapped to blocks only at :meth:`snapshot`.

    :meth:`ingest_rows` takes a batch the store already holds: it signs the
    batch's endpoints and unions the cliques, re-keys the *earlier* rows of
    every node whose signature moved (read off the store — a node moves at
    most twice, and only while it still lacks a side), then counts the
    batch's own rows.  :meth:`prime` is the same over one scan of the store.
    The state is derived data: never checkpointed, never shipped.

    *exclude* keeps the given nodes out of both clique computations — the
    untyped relations of the typed summaries (Definitions 13 and 16).
    """

    def __init__(self, store: TripleStore, exclude: Optional[Set[int]] = None):
        self.store = store
        self.exclude = exclude
        self.source_cliques = IntUnionFind()
        self.target_cliques = IntUnionFind()
        self.properties: Set[int] = set()
        self.sig_of = array("i")
        self.sig_in: List[int] = [-1, -1]
        self.sig_out: List[int] = [-1, -1]
        #: Nodes carrying each code (slot 0 only absorbs the decrements).
        self.sig_users: List[int] = [0, 0]
        self._codes: Dict[Tuple[int, int], int] = {(-1, -1): 1}
        self.support: Counter = Counter()
        #: Earlier rows the last :meth:`ingest_rows` batch re-keyed.
        self.rekeyed_rows = 0

    # ------------------------------------------------------------------
    # phase one: signatures and cliques
    # ------------------------------------------------------------------
    def _move(
        self, node: int, old: int, first_in: int, first_out: int, moved: Optional[Dict[int, int]]
    ) -> None:
        code = self._codes.get((first_in, first_out))
        if code is None:
            code = self._codes[(first_in, first_out)] = len(self.sig_in)
            self.sig_in.append(first_in)
            self.sig_out.append(first_out)
            self.sig_users.append(0)
        self.sig_of[node] = code
        self.sig_users[code] += 1
        self.sig_users[old] -= 1
        if moved is not None:
            moved.setdefault(node, old)

    def _reserve(self, ids: Iterable[int]) -> None:
        grow = max(ids, default=-1) + 1 - len(self.sig_of)
        if grow > 0:
            self.sig_of.frombytes(bytes(self.sig_of.itemsize * grow))

    def sign_data(
        self,
        subjects: Sequence[int],
        predicates: Sequence[int],
        objects: Sequence[int],
        moved: Optional[Dict[int, int]] = None,
    ) -> None:
        """Give every endpoint of the data rows its first properties and
        union the properties each one relates (Definitions 5-6); *moved*
        collects ``node → code before the call`` for whoever changed."""
        self.properties.update(predicates)
        self._reserve(subjects)
        self._reserve(objects)
        sig_of, sig_in, sig_out = self.sig_of, self.sig_in, self.sig_out
        exclude, move = self.exclude, self._move
        union_out, union_in = self.source_cliques.union, self.target_cliques.union
        for subject, prop, obj in zip(subjects, predicates, objects):
            if exclude is None or subject not in exclude:
                code = sig_of[subject]
                known = sig_out[code]
                if known < 0:
                    move(subject, code, sig_in[code], prop, moved)
                elif known != prop:
                    union_out(known, prop)
            if exclude is None or obj not in exclude:
                code = sig_of[obj]
                known = sig_in[code]
                if known < 0:
                    move(obj, code, prop, sig_out[code], moved)
                elif known != prop:
                    union_in(known, prop)

    def sign_typed(
        self, subjects: Iterable[int], moved: Optional[Dict[int, int]] = None
    ) -> None:
        """Make a node of every type-row subject that is not one yet."""
        subjects = set(subjects)
        self._reserve(subjects)
        for subject in subjects:
            if not self.sig_of[subject]:
                self._move(subject, 0, -1, -1, moved)

    # ------------------------------------------------------------------
    # phases two and three: support counts
    # ------------------------------------------------------------------
    def _count(self, kind: TripleKind, subjects, predicates, objects) -> None:
        code_of = self.sig_of.__getitem__
        data = kind is TripleKind.DATA  # (a bool hashes in C; an Enum member does not)
        if data:
            objects = map(code_of, objects)
        self.support.update(zip(repeat(data), map(code_of, subjects), predicates, objects))

    def _shift(self, old_key: tuple, new_key: tuple) -> None:
        support = self.support
        remaining = support[old_key] - 1
        if remaining:
            support[old_key] = remaining
        else:
            del support[old_key]
        support[new_key] += 1
        self.rekeyed_rows += 1

    def _rekey(self, moved: Dict[int, int], batch: Set[Tuple[int, int, int]]) -> None:
        """Move the support of every row stored *before* the batch that
        touches a moved node from its old signature key to its new one."""
        sig_of, select, shift = self.sig_of, self.store.select, self._shift
        for node, old in moved.items():
            if not old:
                continue  # not a node before the batch: no earlier rows
            new = sig_of[node]
            for row in select(TripleKind.TYPE, subject=node):
                if row not in batch:
                    shift((False, old, row[1], row[2]), (False, new, row[1], row[2]))
            for row in select(TripleKind.DATA, subject=node):
                if row not in batch:
                    other = sig_of[row[2]]
                    shift(
                        (True, old, row[1], moved.get(row[2], other)),
                        (True, new, row[1], other),
                    )
            for row in select(TripleKind.DATA, obj=node):
                # a moved subject re-keys the row from its own side
                if row not in batch and row[0] not in moved:
                    other = sig_of[row[0]]
                    shift((True, other, row[1], old), (True, other, row[1], new))

    # ------------------------------------------------------------------
    def prime(self, batch_size: int = 65_536) -> None:
        """Absorb every row of the store: one signing scan, one counting scan."""
        scan = self.store.scan_columns
        for subjects, predicates, objects in scan(TripleKind.DATA, batch_size):
            self.sign_data(subjects, predicates, objects)
        for subjects, _predicates, _objects in scan(TripleKind.TYPE, batch_size):
            self.sign_typed(subjects)
        for kind in (TripleKind.DATA, TripleKind.TYPE):
            for subjects, predicates, objects in scan(kind, batch_size):
                self._count(kind, subjects, predicates, objects)

    def ingest_rows(self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]) -> None:
        """Fold one batch of fresh ``(kind, row)`` pairs — already in the
        store, none of them stored before — into the state.  Schema rows
        carry no state: :meth:`snapshot` copies them from the store."""
        data: List[EncodedTriple] = []
        typed: List[EncodedTriple] = []
        for kind, row in rows:
            if kind is not TripleKind.SCHEMA:
                (data if kind is TripleKind.DATA else typed).append(row)
        moved: Dict[int, int] = {}
        if data:
            self.sign_data(*zip(*data), moved)
        self.sign_typed([row[0] for row in typed], moved)
        self.rekeyed_rows = 0
        self._rekey(moved, {*data, *typed})
        for kind, batch in ((TripleKind.DATA, data), (TripleKind.TYPE, typed)):
            if batch:
                self._count(kind, *zip(*batch))

    def blocks(self, namer: SummaryNamer, weak: bool = False) -> Tuple[List[int], List[URI]]:
        """``(block_of_code, block_uris)``: the block of every signature code
        some node carries (``-1`` for the others) and each block's
        ``N(TC, SC)`` name.  A strong block is one (target clique, source
        clique) pair; a *weak* block is a component of pairs chained through
        a shared clique.  Blocks are numbered — and named — in key order, so
        the result depends on the rows absorbed, not on their arrival order."""
        find_in, find_out = self.target_cliques.find, self.source_cliques.find
        members_in: Dict[int, List[int]] = {}
        members_out: Dict[int, List[int]] = {}
        for prop in self.properties:
            members_in.setdefault(find_in(prop), []).append(prop)
            members_out.setdefault(find_out(prop), []).append(prop)
        tokens = IntUnionFind()  # 2r + 1: the target clique rooted at r; 2r: the source one
        pair_of: Dict[int, Tuple[int, int]] = {}
        for code in range(1, len(self.sig_users)):
            if self.sig_users[code] > 0:
                first_in, first_out = self.sig_in[code], self.sig_out[code]
                pair = pair_of[code] = (
                    find_in(first_in) if first_in >= 0 else -1,
                    find_out(first_out) if first_out >= 0 else -1,
                )
                if weak and min(pair) >= 0:
                    tokens.union(2 * pair[0] + 1, 2 * pair[1])

        def key(pair: Tuple[int, int]):
            if not weak:
                return pair
            if pair[1] >= 0:
                return tokens.find(2 * pair[1])
            return tokens.find(2 * pair[0] + 1) if pair[0] >= 0 else -1

        pairs_of_key: Dict[object, List[Tuple[int, int]]] = {}
        for pair in set(pair_of.values()):
            pairs_of_key.setdefault(key(pair), []).append(pair)
        decode = self.store.dictionary.decode
        index_of: Dict[object, int] = {}
        block_uris: List[URI] = []
        for block_key in sorted(pairs_of_key):
            index_of[block_key] = len(block_uris)
            pairs = pairs_of_key[block_key]
            block_uris.append(
                namer.representation(
                    frozenset(decode(p) for pair in pairs for p in members_in.get(pair[0], ())),
                    frozenset(decode(p) for pair in pairs for p in members_out.get(pair[1], ())),
                )
            )
        block_of_code = [-1] * len(self.sig_users)
        for code, pair in pair_of.items():
            block_of_code[code] = index_of[key(pair)]
        return block_of_code, block_uris

    def snapshot(self, source_name: str = "store", kind: str = "strong") -> Summary:
        """The *kind* (``"weak"`` or ``"strong"``) summary of the rows
        absorbed so far, at a cost proportional to the summary."""
        block_of_code, block_uris = self.blocks(SummaryNamer(), weak=kind == "weak")
        store = self.store
        decode = store.dictionary.decode
        graph = RDFGraph(name=f"{source_name}.{kind}" if source_name else kind)
        for row in store.scan_schema():
            graph.add(store.decode_triple(row))
        # many signature edges fall on one block edge: merge them as integers,
        # so a Triple is built per summary edge only
        edges = {
            (data, block_of_code[subject], prop, block_of_code[third] if data else third)
            for data, subject, prop, third in self.support
        }
        for data, subject, prop, third in edges:
            graph.add(
                Triple(block_uris[subject], decode(prop), block_uris[third] if data else decode(third))
            )
        return Summary.from_codes(
            kind,
            graph,
            self.sig_of[:],
            block_of_code,
            block_uris,
            store.dictionary.decode_table,
            source_name=source_name,
        )

    def metrics(self) -> Dict[str, int]:
        """Sizes of the maintained state (the statistics endpoint's view)."""
        return {"nodes": sum(self.sig_users[1:]), "signature_edges": len(self.support)}


# ``bench/layers.py`` (frozen: BENCHMARK.json ``paths``) imports this name to
# time ``ingest_rows`` as ``core.incremental_ingest``; it now times the one
# maintainer's batch.  Gone with the next ``benchmark`` PR (ROADMAP item 9).
IncrementalWeakSummarizer = CliqueSummarizer
