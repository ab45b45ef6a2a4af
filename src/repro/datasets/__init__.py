"""Dataset generators: the paper's figures, BSBM, LUBM, bibliography."""

from repro._lazy import lazy_exports

__all__ = [
    "BIB",
    "BibliographyGenerator",
    "generate_bibliography",
    "BSBM",
    "BSBMGenerator",
    "generate_bsbm",
    "graph_for_target_triples",
    "LUBM",
    "LUBMGenerator",
    "generate_lubm",
    "FIG2",
    "figure2_graph",
    "typed_weak_counterexample_graph",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "bibliography": ("BIB", "BibliographyGenerator", "generate_bibliography"),
    "bsbm": ("BSBM", "BSBMGenerator", "generate_bsbm", "graph_for_target_triples"),
    "lubm": ("LUBM", "LUBMGenerator", "generate_lubm"),
    "sample": ("FIG2", "figure2_graph", "typed_weak_counterexample_graph"),
})
