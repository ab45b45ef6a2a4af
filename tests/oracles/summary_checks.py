"""The paper's definitions as checks only the tests run.

* :func:`summary_homomorphism_holds` — the invariant under Definition 1:
  mapping every node of ``G`` to its representative is a homomorphism from
  ``G``'s data+type triples into ``H_G``;
* :func:`check_accuracy_witness` — Definition 2, witnessed form: every RBGP
  query with answers on ``(H_G)∞`` has answers on the saturation of some
  graph whose summary is ``H_G`` (the summary itself is such a witness,
  which is how Proposition 3 is proved).

The checks the benchmarks run too stay in :mod:`repro.core.properties`.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.properties import RepresentativenessReport
from repro.core.summary import Summary
from repro.model.graph import RDFGraph
from repro.model.namespaces import RDF_TYPE
from repro.model.triple import Triple
from repro.queries.bgp import BGPQuery
from repro.queries.evaluation import has_answers
from repro.schema.saturation import saturate_cached

__all__ = ["check_accuracy_witness", "summary_homomorphism_holds"]


def summary_homomorphism_holds(graph: RDFGraph, summary: Summary) -> bool:
    """Check that node representation is a homomorphism from ``G`` to ``H_G``.

    For every data triple ``s p o`` of ``G`` the triple
    ``rep(s) p rep(o)`` must be in ``H_G``; for every type triple ``s τ C``,
    ``rep(s) τ C`` must be in ``H_G``; schema triples must be copied.
    """
    for triple in graph.data_triples:
        source = summary.representative(triple.subject)
        target = summary.representative(triple.object)
        if source is None or target is None:
            return False
        if Triple(source, triple.predicate, target) not in summary.graph:
            return False
    for triple in graph.type_triples:
        source = summary.representative(triple.subject)
        if source is None:
            return False
        if Triple(source, RDF_TYPE, triple.object) not in summary.graph:
            return False
    for triple in graph.schema_triples:
        if triple not in summary.graph:
            return False
    return True


def check_accuracy_witness(
    summary: Summary, queries: Iterable[BGPQuery]
) -> RepresentativenessReport:
    """Definition 2, using the summary itself as the witness graph.

    A summary is accurate when every query matching ``(H_G)∞`` matches the
    saturation of *some* graph whose summary is ``H_G``.  Since a summary is
    a summary of itself (fixpoint, Proposition 2), ``H_G`` is always such a
    graph, so the check evaluates each query against ``(H_G)∞`` twice — the
    point of exposing it is to exercise the reasoning chain and to report
    which queries are supported by the summary at all.
    """
    saturated_summary = saturate_cached(summary.graph)
    total = 0
    preserved = 0
    failures: List[BGPQuery] = []
    for query in queries:
        if not has_answers(saturated_summary, query):
            continue
        total += 1
        # witness: the summary itself, whose saturation we just matched.
        preserved += 1
    return RepresentativenessReport(total, preserved, failures)
