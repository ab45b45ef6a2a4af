"""Core contribution: property cliques, node equivalences and RDF summaries."""

from repro._lazy import lazy_exports

__all__ = [
    "backward_bisimulation_partition",
    "bisimulation_summary",
    "forward_bisimulation_partition",
    "full_bisimulation_partition",
    "SUMMARY_KINDS",
    "strong_summary",
    "summarize",
    "type_summary",
    "typed_strong_summary",
    "typed_weak_summary",
    "weak_summary",
    "ENCODED_KINDS",
    "EncodedSummaryEngine",
    "encoded_summarize",
    "summarize_graph_encoded",
    "PropertyCliques",
    "compute_cliques",
    "property_distance",
    "saturated_clique",
    "NodePartition",
    "CliqueSummarizer",
    "canonical_signature",
    "graphs_isomorphic",
    "summaries_equivalent",
    "SUMMARY_NS",
    "SummaryNamer",
    "RepresentativenessReport",
    "check_accuracy_witness",
    "check_fixpoint",
    "check_representativeness",
    "has_unique_data_properties",
    "summary_homomorphism_holds",
    "build_quotient_summary",
    "ShortcutComparison",
    "completeness_holds",
    "direct_summary_of_saturation",
    "shortcut_summary",
    "Summary",
    "SummaryStatistics",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "bisimulation": (
        "backward_bisimulation_partition", "bisimulation_summary",
        "forward_bisimulation_partition", "full_bisimulation_partition",
    ),
    "builders": (
        "SUMMARY_KINDS", "strong_summary", "summarize", "type_summary",
        "typed_strong_summary", "typed_weak_summary", "weak_summary",
    ),
    "encoded": (
        "ENCODED_KINDS", "EncodedSummaryEngine", "encoded_summarize",
        "summarize_graph_encoded",
    ),
    "cliques": (
        "PropertyCliques", "compute_cliques", "property_distance", "saturated_clique",
    ),
    "equivalence": ("NodePartition",),
    "incremental": ("CliqueSummarizer",),
    "isomorphism": ("canonical_signature", "graphs_isomorphic", "summaries_equivalent"),
    "naming": ("SUMMARY_NS", "SummaryNamer"),
    "properties": (
        "RepresentativenessReport", "check_accuracy_witness", "check_fixpoint",
        "check_representativeness", "has_unique_data_properties",
        "summary_homomorphism_holds",
    ),
    "quotient": ("build_quotient_summary",),
    "shortcuts": (
        "ShortcutComparison", "completeness_holds", "direct_summary_of_saturation",
        "shortcut_summary",
    ),
    "summary": ("Summary", "SummaryStatistics"),
})
