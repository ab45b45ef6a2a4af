"""Experiment harness: the scale sweeps behind Figures 11, 12 and 13.

The paper's Section 7 runs the four summaries on BSBM datasets of increasing
size and reports, per summary kind and dataset size:

* Figure 11 — number of data nodes and of all nodes;
* Figure 12 — number of data edges and of all edges;
* Figure 13 — summarization time.

:func:`run_scale_sweep` regenerates all three series in one pass (each point
is one generated graph and four summary constructions) and
:func:`format_figure_series` prints them the way the paper's plots are
organised (one line per summary kind, one column per dataset size).

:func:`run_query_service_workload` is the workload driver of the serving
layer: it registers a graph in a :class:`~repro.service.catalog.GraphCatalog`,
generates a mixed (satisfiable / unsatisfiable) RBGP workload, and times the
summary-guarded :class:`~repro.service.service.QueryService` against direct
per-query evaluation on the same store — the experiment behind
``repro query --workload`` and ``benchmarks/bench_query_service.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.analysis.metrics import PAPER_KINDS, SummaryMetricsRow, summary_size_table
from repro.datasets.bsbm import generate_bsbm
from repro.model.graph import RDFGraph
from repro.service.catalog import GraphCatalog
from repro.service.workload import compare_guarded_vs_direct, generate_mixed_workload

__all__ = [
    "ScaleSweepResult",
    "run_scale_sweep",
    "format_figure_series",
    "run_query_service_workload",
    "format_query_service_report",
]


class ScaleSweepResult:
    """All metric rows of a scale sweep, indexed by (scale, kind)."""

    def __init__(self, rows: List[SummaryMetricsRow], scales: Sequence[int]):
        self.rows = rows
        self.scales = list(scales)

    def series(self, metric: str) -> Dict[str, List[object]]:
        """Return ``{kind: [value per scale]}`` for the requested metric."""
        result: Dict[str, List[object]] = {}
        for kind in PAPER_KINDS:
            kind_rows = [row for row in self.rows if row.kind == kind]
            kind_rows.sort(key=lambda row: row.input_triples)
            result[kind] = [getattr(row, metric) for row in kind_rows]
        return result

    def input_sizes(self) -> List[int]:
        """The input triple counts, one per scale point (ascending)."""
        sizes = sorted({row.input_triples for row in self.rows})
        return sizes


def run_scale_sweep(
    scales: Sequence[int] = (50, 100, 200, 400),
    generator: Optional[Callable[[int], RDFGraph]] = None,
    kinds: Iterable[str] = PAPER_KINDS,
    seed: int = 0,
) -> ScaleSweepResult:
    """Generate one graph per scale, summarize it with every kind, collect metrics.

    Parameters
    ----------
    scales:
        Generator scale parameters (BSBM: number of products).  The paper
        uses 10M-100M triples; laptop-scale defaults are provided here, and
        the benchmarks pass larger values.
    generator:
        Function mapping a scale to a graph; defaults to the BSBM-like
        generator with the given *seed*.
    kinds:
        Summary kinds to build at each point.
    """
    if generator is None:
        def generator(scale: int) -> RDFGraph:  # noqa: ANN001 - scale is an int
            return generate_bsbm(scale=scale, seed=seed)

    rows: List[SummaryMetricsRow] = []
    for scale in scales:
        graph = generator(scale)
        rows.extend(summary_size_table(graph, kinds=kinds, dataset_name=graph.name))
    return ScaleSweepResult(rows, scales)


def run_query_service_workload(
    graph: RDFGraph,
    count: int = 60,
    unsatisfiable_fraction: float = 0.5,
    kind: str = "weak+strong",
    seed: int = 0,
    size: int = 2,
    answer_limit: Optional[int] = 100,
    max_embeddings: Optional[int] = 1_000,
    strategy: str = "hash",
) -> Dict[str, object]:
    """Drive a mixed workload through the guarded service; report the gap.

    Returns a flat dictionary (JSON-serializable) with the comparison
    numbers of :class:`~repro.service.workload.ComparisonReport` plus the
    workload composition — the row format shared by the CLI ``query
    --workload`` command and the query-service benchmark.
    """
    name = graph.name or "graph"
    with GraphCatalog() as catalog:
        catalog.register(name, graph=graph)
        workload = generate_mixed_workload(
            graph,
            count=count,
            unsatisfiable_fraction=unsatisfiable_fraction,
            size=size,
            seed=seed,
            max_embeddings=max_embeddings,
            answer_limit=answer_limit,
        )
        report = compare_guarded_vs_direct(
            catalog, name, workload, kind=kind, answer_limit=answer_limit, strategy=strategy
        )
        result: Dict[str, object] = {
            "graph": name,
            "triples": len(graph),
            "kind": kind,
            "strategy": strategy,
            "answer_limit": answer_limit,
            "satisfiable_queries": sum(1 for item in workload if item.satisfiable),
            "unsatisfiable_queries": sum(1 for item in workload if not item.satisfiable),
        }
        result.update(report.as_dict())
        return result


def format_query_service_report(report: Dict[str, object]) -> str:
    """Render a :func:`run_query_service_workload` row for the terminal."""
    lines = [
        f"graph {report['graph']}: {report['triples']} triples, "
        f"{report['queries']} queries "
        f"({report['satisfiable_queries']} satisfiable / "
        f"{report['unsatisfiable_queries']} unsatisfiable), "
        f"guard: {report['kind']} summary",
        f"  guarded service : {report['guarded_seconds']:.4f}s "
        f"({report['pruned']} queries pruned)",
        f"  direct evaluation: {report['direct_seconds']:.4f}s",
        f"  speedup          : {report['speedup']:.2f}x",
        f"  soundness        : {report['pruning_errors']} pruning errors, "
        f"{report['disagreements']} disagreements "
        f"({'OK' if report['sound'] else 'FAILED'})",
    ]
    return "\n".join(lines)


def format_figure_series(result: ScaleSweepResult, metric: str, title: str) -> str:
    """Render one metric of a sweep as the paper's figures do (kind × size)."""
    sizes = result.input_sizes()
    series = result.series(metric)
    lines = [title, f"{'kind':<14}" + "".join(f"{size:>12}" for size in sizes)]
    for kind, values in series.items():
        rendered = []
        for value in values:
            if isinstance(value, float):
                rendered.append(f"{value:>12.4f}")
            else:
                rendered.append(f"{value:>12}")
        lines.append(f"{kind:<14}" + "".join(rendered))
    return "\n".join(lines) + "\n"
