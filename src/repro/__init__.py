"""repro — Query-Oriented Summarization of RDF Graphs.

A from-scratch Python reproduction of the weak, strong, typed weak and typed
strong RDF quotient summaries of Čebirić, Goasdoué and Manolescu, together
with every substrate they rely on: an RDF data model, N-Triples/Turtle I/O,
an encoded triple store (in-memory and SQLite), RDFS saturation, BGP/RBGP
query evaluation, synthetic dataset generators, and a summary-guarded query
service (:mod:`repro.service`) that prunes provably-empty queries against
the summaries before touching the base graph.

Quickstart
----------
>>> from repro import summarize
>>> from repro.datasets import figure2_graph
>>> summary = summarize(figure2_graph(), "weak")
>>> len(summary.graph) < len(figure2_graph())
True
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__all__ = [
    "summarize",
    "GraphCatalog",
    "QueryService",
    "EncodedSummaryEngine",
    "encoded_summarize",
    "weak_summary",
    "strong_summary",
    "type_summary",
    "typed_weak_summary",
    "typed_strong_summary",
    "Summary",
    "RDFGraph",
    "Triple",
    "URI",
    "BlankNode",
    "Literal",
    "saturate",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "core.builders": (
        "strong_summary", "summarize", "type_summary", "typed_strong_summary",
        "typed_weak_summary", "weak_summary",
    ),
    "core.encoded": ("EncodedSummaryEngine", "encoded_summarize"),
    "core.summary": ("Summary",),
    "model.graph": ("RDFGraph",),
    "model.terms": ("URI", "BlankNode", "Literal"),
    "model.triple": ("Triple",),
    "schema.saturation": ("saturate",),
    "service.catalog": ("GraphCatalog",),
    "service.service": ("QueryService",),
})
