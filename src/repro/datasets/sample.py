"""The paper's running examples, as ready-made graphs.

* :func:`figure2_graph` — the sample RDF graph of Figure 2, whose source and
  target cliques are listed in Table 1 and whose four summaries are drawn in
  Figures 4, 6, 7 and 9;
* :func:`typed_weak_counterexample_graph` — the graph of Figure 8, a
  counter-example to completeness of the typed weak summary (Prop. 7).
"""

from __future__ import annotations

from repro.model.graph import RDFGraph
from repro.model.namespaces import RDF_TYPE, RDFS_DOMAIN, Namespace
from repro.model.triple import Triple

__all__ = [
    "figure2_graph",
    "typed_weak_counterexample_graph",
    "FIG2",
]

#: Namespace of the Figure 2 resources and properties.
FIG2 = Namespace("http://example.org/fig2/")


def figure2_graph() -> RDFGraph:
    """The sample RDF graph of Figure 2.

    Data properties: ``author`` (a), ``title`` (t), ``editor`` (e),
    ``comment`` (c), ``reviewed`` (r), ``published`` (p).  Its cliques are
    exactly those of Table 1:

    * source cliques ``SC1 = {a, t, e, c}``, ``SC2 = {r}``, ``SC3 = {p}``;
    * target cliques ``TC1 = {a}``, ``TC2 = {t}``, ``TC3 = {e}``,
      ``TC4 = {c}``, ``TC5 = {r, p}``.
    """
    ns = FIG2
    graph = RDFGraph(name="figure2")
    author, title, editor = ns.author, ns.title, ns.editor
    comment, reviewed, published = ns.comment, ns.reviewed, ns.published
    r1, r2, r3, r4, r5, r6 = ns.r1, ns.r2, ns.r3, ns.r4, ns.r5, ns.r6
    a1, a2 = ns.a1, ns.a2
    t1, t2, t3, t4 = ns.t1, ns.t2, ns.t3, ns.t4
    e1, e2 = ns.e1, ns.e2
    c1 = ns.c1

    triples = [
        # r1, r2, r3: the typed publications of the upper row
        Triple(r1, author, a1),
        Triple(r1, title, t1),
        Triple(r2, title, t2),
        Triple(r2, editor, e1),
        Triple(r3, editor, e2),
        Triple(r3, comment, c1),
        # r4, r5: the untyped publications of the lower row
        Triple(r4, author, a2),
        Triple(r4, title, t3),
        Triple(r5, title, t4),
        Triple(r5, editor, e2),
        # r4 is the value of reviewed (from a1) and published (from e1)
        Triple(a1, reviewed, r4),
        Triple(e1, published, r4),
        # types
        Triple(r1, RDF_TYPE, ns.Book),
        Triple(r2, RDF_TYPE, ns.Book),
        Triple(r3, RDF_TYPE, ns.Journal),
        Triple(r6, RDF_TYPE, ns.Spec),
    ]
    graph.add_all(triples)
    return graph


def typed_weak_counterexample_graph() -> RDFGraph:
    """The graph of Figure 8: a counter-example to typed-weak completeness.

    The domain constraint ``a ←d c`` turns the untyped resource ``r1`` into
    a typed one in ``G∞``; the typed weak summary of ``G∞`` therefore
    separates ``r1`` from ``r2``, while the shortcut computation (summarize,
    saturate, summarize) does not — Proposition 7.
    """
    ns = Namespace("http://example.org/fig8/")
    graph = RDFGraph(name="figure8")
    graph.add_all(
        [
            Triple(ns.r1, ns.a, ns.y1),
            Triple(ns.r1, ns.b, ns.y2),
            Triple(ns.r2, ns.b, ns.x),
            Triple(ns.a, RDFS_DOMAIN, ns.c),
        ]
    )
    return graph
