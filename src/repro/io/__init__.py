"""Input/output: N-Triples, Turtle-subset and DOT serialization."""

from repro._lazy import lazy_exports

__all__ = [
    "graph_to_dot",
    "summary_to_dot",
    "write_dot",
    "dump_ntriples",
    "load_ntriples",
    "parse_ntriples",
    "parse_ntriples_line",
    "serialize_ntriples",
    "load_turtle",
    "parse_turtle",
    "serialize_turtle",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "dot": ("graph_to_dot", "summary_to_dot", "write_dot"),
    "ntriples": (
        "dump_ntriples", "load_ntriples", "parse_ntriples", "parse_ntriples_line",
        "serialize_ntriples",
    ),
    "turtle_lite": ("load_turtle", "parse_turtle", "serialize_turtle"),
})
