"""Core contribution: property cliques, node equivalences and RDF summaries."""

from repro.core.bisimulation import (
    backward_bisimulation_partition,
    bisimulation_summary,
    forward_bisimulation_partition,
    full_bisimulation_partition,
)
from repro.core.builders import (
    SUMMARY_KINDS,
    strong_summary,
    summarize,
    type_summary,
    typed_strong_summary,
    typed_weak_summary,
    weak_summary,
)
from repro.core.encoded import (
    ENCODED_KINDS,
    EncodedSummaryEngine,
    encoded_summarize,
    summarize_graph_encoded,
)
from repro.core.cliques import (
    PropertyCliques,
    compute_cliques,
    property_distance,
    saturated_clique,
)
from repro.core.equivalence import NodePartition
from repro.core.incremental import IncrementalWeakSummarizer, incremental_weak_summary
from repro.core.isomorphism import canonical_signature, graphs_isomorphic, summaries_equivalent
from repro.core.naming import SUMMARY_NS, SummaryNamer
from repro.core.properties import (
    RepresentativenessReport,
    check_accuracy_witness,
    check_fixpoint,
    check_representativeness,
    has_unique_data_properties,
    summary_homomorphism_holds,
)
from repro.core.quotient import build_quotient_summary
from repro.core.shortcuts import (
    ShortcutComparison,
    completeness_holds,
    direct_summary_of_saturation,
    shortcut_summary,
)
from repro.core.summary import Summary, SummaryStatistics

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
    "IncrementalWeakSummarizer",
    "incremental_weak_summary",
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
