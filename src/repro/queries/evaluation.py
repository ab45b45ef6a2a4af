"""BGP query evaluation over an :class:`~repro.model.graph.RDFGraph`.

Evaluation finds every embedding (homomorphism) of the query body into the
graph.  The join order is chosen greedily: at each step the pattern with the
most bound positions is evaluated next, which keeps the search close to an
index-nested-loop join and is adequate for the query sizes of the paper's
experiments.

The paper evaluates queries either against the explicit triples of ``G`` or
against its saturation ``G∞`` (Section 2.1, "Query answering"); the helper
:func:`evaluate_saturated` performs the latter.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.model.graph import RDFGraph
from repro.model.terms import Term
from repro.queries.bgp import BGPQuery, PatternTerm, TriplePattern, Variable
from repro.schema.rdfs import RDFSchema
from repro.schema.saturation import saturate_cached

__all__ = ["Bindings", "evaluate", "evaluate_saturated", "has_answers", "count_answers"]

#: A variable assignment produced during evaluation.
Bindings = Dict[Variable, Term]


def _resolve(term: PatternTerm, bindings: Bindings) -> Optional[Term]:
    """Return the constant that *term* must match given *bindings*, or ``None``."""
    if isinstance(term, Variable):
        return bindings.get(term)
    return term


def _match_pattern(
    graph: RDFGraph, pattern: TriplePattern, bindings: Bindings
) -> Iterator[Bindings]:
    """Yield every extension of *bindings* matching *pattern* in *graph*."""
    subject = _resolve(pattern.subject, bindings)
    predicate = _resolve(pattern.predicate, bindings)
    obj = _resolve(pattern.object, bindings)
    for triple in graph.triples(subject, predicate, obj):
        extended = dict(bindings)
        consistent = True
        for pattern_term, value in (
            (pattern.subject, triple.subject),
            (pattern.predicate, triple.predicate),
            (pattern.object, triple.object),
        ):
            if isinstance(pattern_term, Variable):
                bound = extended.get(pattern_term)
                if bound is None:
                    extended[pattern_term] = value
                elif bound != value:
                    consistent = False
                    break
        if consistent:
            yield extended


def _order_patterns(patterns: Sequence[TriplePattern]) -> List[TriplePattern]:
    """Greedy join ordering: repeatedly pick the most-bound remaining pattern."""
    remaining = list(patterns)
    ordered: List[TriplePattern] = []
    bound: Set[Variable] = set()
    while remaining:
        best = max(remaining, key=lambda p: (p.bound_count(bound), -len(p.variables())))
        ordered.append(best)
        remaining.remove(best)
        bound |= best.variables()
    return ordered


def _extend(
    graph: RDFGraph, ordered: Sequence[TriplePattern], index: int, bindings: Bindings
) -> Iterator[Bindings]:
    """Every extension of *bindings* through ``ordered[index:]`` — a module
    function, not a closure: a nested generator that refers to itself is a
    reference cycle per call that only the cyclic collector frees."""
    if index == len(ordered):
        yield bindings
        return
    for extended in _match_pattern(graph, ordered[index], bindings):
        yield from _extend(graph, ordered, index + 1, extended)


def iter_embeddings(graph: RDFGraph, query: BGPQuery) -> Iterator[Bindings]:
    """Yield every embedding of the query body into *graph*."""
    return _extend(graph, _order_patterns(query.patterns), 0, {})


def evaluate(graph: RDFGraph, query: BGPQuery, limit: Optional[int] = None) -> Set[Tuple[Term, ...]]:
    """Evaluate *query* against the explicit triples of *graph*.

    Returns the set of answer tuples (projections of the embeddings on the
    head variables).  For a boolean query the result is ``{()}`` when the
    query has at least one embedding and ``set()`` otherwise.
    """
    answers: Set[Tuple[Term, ...]] = set()
    for bindings in iter_embeddings(graph, query):
        answers.add(tuple(bindings[variable] for variable in query.head))
        if limit is not None and len(answers) >= limit:
            break
    return answers


def evaluate_saturated(
    graph: RDFGraph, query: BGPQuery, schema: Optional[RDFSchema] = None
) -> Set[Tuple[Term, ...]]:
    """Evaluate *query* against the saturation ``G∞`` (complete answers).

    The saturation is computed through :func:`saturate_cached`, so workload
    loops evaluating many queries against the same graph saturate it once.
    """
    return evaluate(saturate_cached(graph, schema=schema), query)


def _saturation_target(
    graph: RDFGraph, saturated: bool, saturated_graph: Optional[RDFGraph]
) -> RDFGraph:
    """The graph a check should run against.

    A caller that already holds ``G∞`` passes it as *saturated_graph* and no
    saturation work happens at all; otherwise ``saturated=True`` uses the
    per-graph saturation cache, paying ``O(|G∞|)`` only when the graph
    changed since the previous query.
    """
    if saturated_graph is not None:
        return saturated_graph
    if saturated:
        return saturate_cached(graph)
    return graph


def has_answers(
    graph: RDFGraph,
    query: BGPQuery,
    saturated: bool = False,
    saturated_graph: Optional[RDFGraph] = None,
) -> bool:
    """``True`` when the query has at least one answer on *graph*.

    With ``saturated=True`` the check runs against ``G∞`` — the notion used
    by query-based representativeness (Definition 1).  A pre-computed
    saturation can be supplied as *saturated_graph* to skip even the cache
    lookup.
    """
    target = _saturation_target(graph, saturated, saturated_graph)
    for _ in iter_embeddings(target, query):
        return True
    return False


def count_answers(
    graph: RDFGraph,
    query: BGPQuery,
    saturated: bool = False,
    saturated_graph: Optional[RDFGraph] = None,
) -> int:
    """Number of distinct answer tuples of *query* on *graph* (or ``G∞``)."""
    target = _saturation_target(graph, saturated, saturated_graph)
    return len(evaluate(target, query))
