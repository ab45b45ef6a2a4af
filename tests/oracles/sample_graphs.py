"""The paper's small worked examples that only the tests use.

* :func:`book_example_graph` — the introductory book/author example of
  Section 2.1, including its RDFS constraints (used to illustrate implicit
  triples and saturation);
* :func:`weak_completeness_graph` — a graph with ``≺sp`` constraints in the
  spirit of Figure 5, exercising Proposition 5;
* :func:`strong_completeness_graph` — the graph of Figure 10, exercising
  Proposition 8.

The figures a user may want to summarize (Figures 2 and 8) stay in
:mod:`repro.datasets.sample`.
"""

from repro.model.graph import RDFGraph
from repro.model.namespaces import (
    EX,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    Namespace,
)
from repro.model.terms import BlankNode, Literal
from repro.model.triple import Triple


def book_example_graph(with_schema: bool = True) -> RDFGraph:
    """The introductory example of Section 2.1 (book ``doi1`` and its author).

    With ``with_schema=True`` the four RDFS constraints of the running text
    are included, so that saturation yields the implicit triples
    ``doi1 rdf:type Publication``, ``doi1 hasAuthor _:b1`` and
    ``_:b1 rdf:type Person``.
    """
    ns = EX
    graph = RDFGraph(name="book_example")
    doi1 = ns.doi1
    b1 = BlankNode("b1")
    graph.add_all(
        [
            Triple(doi1, RDF_TYPE, ns.Book),
            Triple(doi1, ns.writtenBy, b1),
            Triple(doi1, ns.hasTitle, Literal("Le Port des Brumes")),
            Triple(b1, ns.hasName, Literal("G. Simenon")),
            Triple(doi1, ns.publishedIn, Literal("1932")),
        ]
    )
    if with_schema:
        graph.add_all(
            [
                Triple(ns.Book, RDFS_SUBCLASSOF, ns.Publication),
                Triple(ns.writtenBy, RDFS_SUBPROPERTYOF, ns.hasAuthor),
                Triple(ns.writtenBy, RDFS_DOMAIN, ns.Book),
                Triple(ns.writtenBy, RDFS_RANGE, ns.Person),
            ]
        )
    return graph


def weak_completeness_graph() -> RDFGraph:
    """A graph with ``≺sp`` constraints illustrating Proposition 5 (Figure 5).

    Two sub-properties ``b1`` and ``b2`` of a common property ``b`` are used
    by otherwise unrelated resources; saturation makes their source cliques
    merge, and the weak shortcut ``W((W_G)∞)`` must reflect that exactly as
    ``W(G∞)`` does.
    """
    ns = Namespace("http://example.org/fig5/")
    graph = RDFGraph(name="figure5")
    graph.add_all(
        [
            Triple(ns.x, ns.a1, ns.r1),
            Triple(ns.r1, ns.b1, ns.y1),
            Triple(ns.r2, ns.b2, ns.y2),
            Triple(ns.r2, ns.c, ns.z),
            Triple(ns.b1, RDFS_SUBPROPERTYOF, ns.b),
            Triple(ns.b2, RDFS_SUBPROPERTYOF, ns.b),
        ]
    )
    return graph


def strong_completeness_graph() -> RDFGraph:
    """The graph of Figure 10, illustrating Proposition 8.

    ``a1`` and ``a2`` are sub-properties of ``a``; before saturation the
    strong summary keeps ``N({b},{a1})``, ``N({c},{a1})`` and ``N({},{a2})``
    apart, and after saturation all three source cliques fuse into
    ``{a1, a2, a}``.
    """
    ns = Namespace("http://example.org/fig10/")
    graph = RDFGraph(name="figure10")
    graph.add_all(
        [
            Triple(ns.x1, ns.b, ns.r1),
            Triple(ns.x2, ns.c, ns.r2),
            Triple(ns.r1, ns.a1, ns.z1),
            Triple(ns.r2, ns.a1, ns.z2),
            Triple(ns.r3, ns.a2, ns.z3),
            Triple(ns.a1, RDFS_SUBPROPERTYOF, ns.a),
            Triple(ns.a2, RDFS_SUBPROPERTYOF, ns.a),
        ]
    )
    return graph
