"""Per-graph summary metrics (the quantities plotted in Figures 11 and 12).

:func:`summary_size_table` builds, for a single input graph, one row per
summary kind holding the counts the paper plots: number of data nodes, of
all nodes, of data edges and of all edges, plus the edge compression ratio
discussed in Section 7 ("the summary occupies at most 0.028 of the data
size").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.builders import SUMMARY_KINDS
from repro.core.encoded import encoded_summarize
from repro.core.summary import Summary
from repro.model.graph import RDFGraph
from repro.store.memory import MemoryStore
from repro.utils.timing import Stopwatch

__all__ = ["SummaryMetricsRow", "summary_size_table", "format_table"]

#: The four summary kinds of the paper's experiments, in presentation order.
PAPER_KINDS = ("strong", "weak", "typed_weak", "typed_strong")


class SummaryMetricsRow:
    """Metrics of one summary of one input graph."""

    __slots__ = (
        "dataset",
        "kind",
        "input_triples",
        "input_nodes",
        "data_nodes",
        "all_nodes",
        "class_nodes",
        "data_edges",
        "all_edges",
        "edge_ratio",
        "build_seconds",
    )

    def __init__(self, **values):
        for name in self.__slots__:
            setattr(self, name, values.get(name))

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (
            f"SummaryMetricsRow({self.dataset}, {self.kind}: nodes={self.all_nodes}, "
            f"edges={self.all_edges}, t={self.build_seconds:.3f}s)"
        )


def summary_size_table(
    graph: RDFGraph,
    kinds: Iterable[str] = PAPER_KINDS,
    dataset_name: Optional[str] = None,
) -> List[SummaryMetricsRow]:
    """Summarize *graph* with every requested kind and collect size metrics.

    The graph is dictionary-encoded into one shared store and every kind
    runs store-resident (the paper's deployment shape), so per-kind timings
    measure summarization only, and the one-time encode is not repeated
    per kind.
    """
    dataset = dataset_name or graph.name or "graph"
    input_statistics = graph.statistics()
    rows: List[SummaryMetricsRow] = []
    store = MemoryStore()
    store.load_graph(graph)
    try:
        for kind in kinds:
            if kind not in SUMMARY_KINDS:
                raise KeyError(f"unknown summary kind: {kind!r}")
            with Stopwatch() as watch:
                summary = encoded_summarize(
                    store,
                    kind,
                    source_statistics=input_statistics,
                    source_name=graph.name,
                )
            statistics = summary.statistics()
            rows.append(
                SummaryMetricsRow(
                    dataset=dataset,
                    kind=kind,
                    input_triples=input_statistics.edge_count,
                    input_nodes=input_statistics.node_count,
                    data_nodes=statistics.data_node_count,
                    all_nodes=statistics.all_node_count,
                    class_nodes=statistics.class_node_count,
                    data_edges=statistics.data_edge_count,
                    all_edges=statistics.all_edge_count,
                    edge_ratio=statistics.all_edge_count / max(1, input_statistics.edge_count),
                    build_seconds=watch.elapsed,
                )
            )
    finally:
        store.close()
    return rows


def format_table(rows: Iterable[SummaryMetricsRow], columns: Optional[List[str]] = None) -> str:
    """Render metric rows as a fixed-width text table (for CLI and benches)."""
    rows = list(rows)
    if not rows:
        return "(no rows)\n"
    columns = columns or [
        "dataset",
        "kind",
        "input_triples",
        "data_nodes",
        "all_nodes",
        "data_edges",
        "all_edges",
        "edge_ratio",
        "build_seconds",
    ]

    def cell(row: SummaryMetricsRow, column: str) -> str:
        value = getattr(row, column)
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    widths = {
        column: max(len(column), max(len(cell(row, column)) for row in rows)) for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    body = [
        "  ".join(cell(row, column).ljust(widths[column]) for column in columns) for row in rows
    ]
    return "\n".join([header, separator, *body]) + "\n"
