"""BGP / RBGP queries: model, parser, evaluation and workload generation."""

from repro._lazy import lazy_exports

__all__ = [
    "BGPQuery",
    "TriplePattern",
    "Variable",
    "count_answers",
    "evaluate",
    "evaluate_saturated",
    "has_answers",
    "iter_embeddings",
    "RBGPQueryGenerator",
    "generate_rbgp_workload",
    "parse_query",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "bgp": ("BGPQuery", "TriplePattern", "Variable"),
    "evaluation": (
        "count_answers", "evaluate", "evaluate_saturated", "has_answers",
        "iter_embeddings",
    ),
    "generator": ("RBGPQueryGenerator", "generate_rbgp_workload"),
    "parser": ("parse_query",),
})
