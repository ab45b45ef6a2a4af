"""Checkers for the formal properties of summaries (Propositions 1-10).

These functions turn the paper's propositions into executable checks used by
the test suite, the property-based tests and the E7/E8 benchmarks:

* :func:`has_unique_data_properties` — Proposition 4: every data property of
  ``G`` appears exactly once in the weak summary;
* :func:`check_fixpoint` — Propositions 2/6/9: ``H(H_G) ≅ H_G``;
* :func:`check_representativeness` — Proposition 1 / Definition 1: every
  RBGP query with answers on ``G∞`` has answers on ``(H_G)∞``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.builders import summarize
from repro.core.isomorphism import graphs_isomorphic
from repro.core.summary import Summary
from repro.model.graph import RDFGraph
from repro.queries.bgp import BGPQuery
from repro.queries.evaluation import has_answers
from repro.schema.saturation import saturate_cached

__all__ = [
    "has_unique_data_properties",
    "check_fixpoint",
    "check_representativeness",
    "RepresentativenessReport",
]


class RepresentativenessReport:
    """Outcome of a representativeness / accuracy check over a query workload."""

    def __init__(self, total: int, preserved: int, failures: List[BGPQuery]):
        self.total = total
        self.preserved = preserved
        self.failures = failures

    @property
    def holds(self) -> bool:
        """``True`` when every applicable query was preserved."""
        return not self.failures

    @property
    def ratio(self) -> float:
        """Fraction of queries preserved (1.0 when the property holds)."""
        return self.preserved / self.total if self.total else 1.0

    def __repr__(self):
        return (
            f"RepresentativenessReport(total={self.total}, preserved={self.preserved}, "
            f"holds={self.holds})"
        )


def has_unique_data_properties(summary: Summary) -> bool:
    """Proposition 4: each data property labels exactly one edge of ``W_G``."""
    seen = set()
    for triple in summary.graph.data_triples:
        if triple.predicate in seen:
            return False
        seen.add(triple.predicate)
    return True


def check_fixpoint(summary: Summary) -> bool:
    """Propositions 2 / 6 / 9: summarizing the summary yields the summary.

    The summary of ``H_G`` (with the same kind) must be isomorphic to ``H_G``
    up to renaming of the minted summary nodes.
    """
    resummarized = summarize(summary.graph, summary.kind)
    return graphs_isomorphic(summary.graph, resummarized.graph)


def check_representativeness(
    graph: RDFGraph,
    summary: Summary,
    queries: Iterable[BGPQuery],
    require_answers_on_graph: bool = True,
    saturated_graph: Optional[RDFGraph] = None,
    saturated_summary: Optional[RDFGraph] = None,
) -> RepresentativenessReport:
    """Definition 1 instantiated on a concrete RBGP workload.

    For every query ``q`` with ``q(G∞) ≠ ∅``, checks ``q((H_G)∞) ≠ ∅``.
    Queries with no answer on ``G∞`` are skipped (they do not constrain
    representativeness) unless ``require_answers_on_graph`` is ``False``, in
    which case all queries are evaluated on the summary regardless.

    ``G∞`` and ``(H_G)∞`` are saturated at most once per call — through the
    per-graph cache of :func:`saturate_cached`, so repeated checks against an
    unchanged graph/summary pay nothing — and callers that already hold the
    saturations can pass them in directly.
    """
    if saturated_graph is None:
        saturated_graph = saturate_cached(graph)
    if saturated_summary is None:
        saturated_summary = saturate_cached(summary.graph)
    total = 0
    preserved = 0
    failures: List[BGPQuery] = []
    for query in queries:
        if require_answers_on_graph and not has_answers(saturated_graph, query):
            continue
        total += 1
        if has_answers(saturated_summary, query):
            preserved += 1
        else:
            failures.append(query)
    return RepresentativenessReport(total, preserved, failures)
