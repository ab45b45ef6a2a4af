"""Experiment analysis: summary metrics and the scale-sweep harness."""

from repro._lazy import lazy_exports

__all__ = [
    "ScaleSweepResult",
    "format_figure_series",
    "run_scale_sweep",
    "PAPER_KINDS",
    "SummaryMetricsRow",
    "format_table",
    "summary_size_table",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "harness": ("ScaleSweepResult", "format_figure_series", "run_scale_sweep"),
    "metrics": (
        "PAPER_KINDS", "SummaryMetricsRow", "format_table", "summary_size_table",
    ),
})
