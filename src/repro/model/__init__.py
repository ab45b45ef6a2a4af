"""Data model: RDF terms, triples, graphs and dictionary encoding."""

from repro._lazy import lazy_exports

__all__ = [
    "Dictionary",
    "EncodedTriple",
    "GraphStatistics",
    "RDFGraph",
    "Namespace",
    "EX",
    "OWL",
    "RDF",
    "RDFS",
    "XSD",
    "RDF_TYPE",
    "RDFS_DOMAIN",
    "RDFS_RANGE",
    "RDFS_SUBCLASSOF",
    "RDFS_SUBPROPERTYOF",
    "SCHEMA_PROPERTIES",
    "is_schema_property",
    "is_type_property",
    "URI",
    "BlankNode",
    "Literal",
    "Term",
    "is_blank",
    "is_literal",
    "is_uri",
    "term_sort_key",
    "Triple",
    "TripleKind",
    "classify_property",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "dictionary": ("Dictionary", "EncodedTriple"),
    "graph": ("GraphStatistics", "RDFGraph"),
    "namespaces": (
        "EX", "OWL", "RDF", "RDF_TYPE", "RDFS", "RDFS_DOMAIN", "RDFS_RANGE",
        "RDFS_SUBCLASSOF", "RDFS_SUBPROPERTYOF", "SCHEMA_PROPERTIES", "XSD",
        "Namespace", "is_schema_property", "is_type_property",
    ),
    "terms": (
        "URI", "BlankNode", "Literal", "Term", "is_blank", "is_literal", "is_uri",
        "term_sort_key",
    ),
    "triple": ("Triple", "TripleKind", "classify_property"),
})
