"""RDF graph saturation (entailment closure).

Section 2.1 of the paper: the semantics of an RDF graph ``G`` is its
*saturation* ``G∞`` — the fixed point obtained by repeatedly applying the
immediate entailment rules.  With the four RDFS constraints of Figure 1 the
instance-level rules are:

* rdfs7 — ``x p y`` and ``p ≺sp q``    entail ``x q y``;
* rdfs2 — ``x p y`` and ``p ←d c``     entail ``x τ c``;
* rdfs3 — ``x p y`` and ``p →r c``     entail ``y τ c``;
* rdfs9 — ``x τ c`` and ``c ≺sc d``    entail ``x τ d``;

plus the schema-level rules (transitivity of ≺sc / ≺sp, inheritance of
domain/range) that :class:`~repro.schema.rdfs.RDFSchema` already closes.

Because the schema relations are closed first, a single pass over the
instance triples reaches the fixpoint; :func:`saturate` is therefore linear
in ``|G∞|_e``.  The range rule is applied to literal property values as
well (producing generalized ``rdf:type`` triples with a literal subject),
following the paper's formal treatment — see :class:`repro.model.triple.Triple`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Optional, Tuple

from repro.model.graph import RDFGraph
from repro.model.namespaces import RDF_TYPE
from repro.model.triple import Triple
from repro.schema.rdfs import RDFSchema

__all__ = ["saturate", "saturate_cached", "is_saturated", "entails"]


def saturate(graph: RDFGraph, schema: Optional[RDFSchema] = None, name: str = "") -> RDFGraph:
    """Return the saturation ``G∞`` of *graph* as a new graph.

    Parameters
    ----------
    graph:
        The input RDF graph (its own schema component is used unless
        *schema* is given).
    schema:
        Optional externally supplied schema; useful to saturate a data-only
        graph against a separately stored ontology.
    name:
        Name of the returned graph (defaults to ``"<input>.saturated"``).

    Notes
    -----
    The range rule types every value of the property, including literal
    values — the resulting generalized ``rdf:type`` triples are what makes
    the summarize-then-saturate shortcuts of Propositions 5 and 8 exact.
    """
    if schema is None:
        schema = RDFSchema.from_graph(graph)

    result = RDFGraph(name=name or (f"{graph.name}.saturated" if graph.name else "saturated"))

    # 1. schema component: original plus entailed constraint triples.
    for triple in graph.schema_triples:
        result.add(triple)
    for triple in schema.closure_triples():
        result.add(triple)

    # 2. data triples: each triple is propagated to all superproperties and
    #    triggers the (closed) domain / range typings.
    for triple in graph.data_triples:
        result.add(triple)
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        for super_property in schema.superproperties(predicate):
            result.add(Triple(subject, super_property, obj))
        for domain_class in schema.domains(predicate):
            result.add(Triple(subject, RDF_TYPE, domain_class))
        for range_class in schema.ranges(predicate):
            result.add(Triple(obj, RDF_TYPE, range_class))

    # 3. type triples: propagate to all superclasses.
    for triple in graph.type_triples:
        result.add(triple)
        for super_class in schema.superclasses(triple.object):
            result.add(Triple(triple.subject, RDF_TYPE, super_class))

    return result


#: ``id(graph) -> (graph_version, saturated_graph)``.  Entries are evicted by
#: a ``weakref.finalize`` hook when the source graph is collected, so the
#: cache never resurrects a stale id; the version check catches mutation.
#: Guarded by ``_SATURATION_CACHE_LOCK``: the query service reaches this
#: cache from every request thread the server's executor lets in at once
#: (via ``pruning_graph(saturated=True)``), and an unguarded
#: dict-mutation + finalize registration pair can drop entries or register
#: duplicate finalizers under that concurrency.
#: Re-entrant: the eviction hook runs from ``weakref.finalize`` callbacks,
#: which fire at arbitrary allocation points — including inside a locked
#: block of :func:`saturate_cached` on the same thread; a plain lock would
#: self-deadlock there.
_SATURATION_CACHE: Dict[int, Tuple[int, RDFGraph]] = {}
_SATURATION_CACHE_LOCK = threading.RLock()


def saturate_cached(graph: RDFGraph, schema: Optional[RDFSchema] = None) -> RDFGraph:
    """Return ``G∞``, reusing a cached saturation while *graph* is unchanged.

    Workload loops (:func:`repro.queries.evaluation.has_answers` with
    ``saturated=True``, :func:`repro.core.properties.check_representativeness`,
    the query service's pruning checks) used to pay a full ``O(|G∞|)``
    re-saturation per query.  This helper caches the saturation per graph
    *identity* and invalidates it through :attr:`RDFGraph.version` whenever
    the graph has been mutated since.  The cached graph is shared — callers
    must treat it as read-only.

    Thread-safe: lookups and installs hold the cache lock (the saturation
    itself runs outside it, so concurrent misses on *different* graphs
    still saturate in parallel; concurrent misses on the same graph race
    benignly — one result wins the install, both are correct).

    A caller-supplied *schema* bypasses the cache (the cache key would need
    to include the schema's identity and mutable schemas are cheap to misuse;
    explicit-schema saturation stays uncached and exact).
    """
    if schema is not None:
        return saturate(graph, schema=schema)
    key = id(graph)
    version = graph.version
    with _SATURATION_CACHE_LOCK:
        entry = _SATURATION_CACHE.get(key)
        if entry is not None and entry[0] == version:
            return entry[1]
    result = saturate(graph)
    with _SATURATION_CACHE_LOCK:
        entry = _SATURATION_CACHE.get(key)
        if entry is None:
            # register the eviction hook exactly once per graph identity
            weakref.finalize(graph, _evict_saturation, key)
            _SATURATION_CACHE[key] = (version, result)
        elif entry[0] == version:
            return entry[1]  # a concurrent saturation of the same graph won
        elif entry[0] < version:
            # never let a saturation of an older version overwrite a newer
            # one installed while we were saturating
            _SATURATION_CACHE[key] = (version, result)
    return result


def _evict_saturation(key: int) -> None:
    with _SATURATION_CACHE_LOCK:
        _SATURATION_CACHE.pop(key, None)


def is_saturated(graph: RDFGraph, schema: Optional[RDFSchema] = None) -> bool:
    """``True`` when *graph* already equals its own saturation.

    Routed through :func:`saturate_cached` when no explicit *schema* is
    given: workload loops call this per query, and each call used to pay a
    full ``O(|G∞|)`` saturation pass even on an unchanged graph.  The
    explicit-schema path stays uncached and exact.  Note the cache keeps
    the saturation alive as long as *graph* is — callers probing a huge
    graph exactly once and wanting the memory back can pass its schema
    explicitly to stay off the cache.
    """
    return set(saturate_cached(graph, schema=schema)) == set(graph)


def entails(graph: RDFGraph, triple: Triple, schema: Optional[RDFSchema] = None) -> bool:
    """``True`` when ``G ⊨_RDF s p o``, i.e. *triple* belongs to ``G∞``.

    Cached like :func:`is_saturated`: repeated entailment probes against an
    unchanged graph saturate it once, not once per probe.
    """
    return triple in saturate_cached(graph, schema=schema)
