"""Summary-guarded query service: catalog, planned encoded evaluation, pruning.

The durable layer on top of this package — persistent catalogs, the
concurrent executor and the HTTP front end — lives in :mod:`repro.server`;
:meth:`GraphCatalog.open` is the bridge between the two.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CatalogEntry",
    "GraphCatalog",
    "CompiledQuery",
    "EncodedEvaluator",
    "compile_query",
    "STRATEGIES",
    "CardinalityStatistics",
    "PredicateStatistics",
    "QueryPlanner",
    "QueryPlan",
    "ExecutionTrace",
    "QueryAnswer",
    "QueryService",
    "ComparisonReport",
    "WorkloadQuery",
    "WorkloadReport",
    "compare_guarded_vs_direct",
    "generate_mixed_workload",
    "run_workload",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "catalog": ("CatalogEntry", "GraphCatalog"),
    "evaluator": ("STRATEGIES", "CompiledQuery", "EncodedEvaluator", "compile_query"),
    "planner": ("ExecutionTrace", "QueryPlan", "QueryPlanner"),
    "service": ("QueryAnswer", "QueryService"),
    "statistics": ("CardinalityStatistics", "PredicateStatistics"),
    "workload": (
        "ComparisonReport", "WorkloadQuery", "WorkloadReport",
        "compare_guarded_vs_direct", "generate_mixed_workload", "run_workload",
    ),
})
