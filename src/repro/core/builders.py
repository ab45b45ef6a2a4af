"""The five summary constructions and the :func:`summarize` facade.

* :func:`weak_summary`          — ``W_G``  (Definition 11)
* :func:`strong_summary`        — ``S_G``  (Definition 15)
* :func:`type_summary`          — ``T_G``  (Definition 12, helper)
* :func:`typed_weak_summary`    — ``TW_G`` (Definition 14)
* :func:`typed_strong_summary`  — ``TS_G`` (Definition 17)

All constructions run in time linear in the number of edges of the input
graph (plus near-constant union-find overhead), matching the complexity
claims of Sections 3–6.

Every construction dictionary-encodes the graph and runs the integer-only
pipeline of :mod:`repro.core.encoded`, mirroring the paper's relational
prototype (Section 6): no ``Term`` is hashed on the hot path and the summary
is decoded only at the end.  The ``Term``-level definition the test suite
checks it against lives in ``tests/oracles/term_partitions.py``.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.encoded import summarize_graph_encoded
from repro.core.summary import Summary
from repro.errors import UnknownSummaryKindError
from repro.model.graph import RDFGraph

__all__ = [
    "weak_summary",
    "strong_summary",
    "type_summary",
    "typed_weak_summary",
    "typed_strong_summary",
    "summarize",
    "SUMMARY_KINDS",
    "normalize_kind",
]


def weak_summary(graph: RDFGraph) -> Summary:
    """Build the weak summary ``W_G`` (quotient by ``≡W``)."""
    return summarize(graph, "weak")


def strong_summary(graph: RDFGraph) -> Summary:
    """Build the strong summary ``S_G`` (quotient by ``≡S``)."""
    return summarize(graph, "strong")


def type_summary(graph: RDFGraph) -> Summary:
    """Build the type-based summary ``T_G`` (quotient by ``≡T``)."""
    return summarize(graph, "type")


def typed_weak_summary(graph: RDFGraph) -> Summary:
    """Build the typed weak summary ``TW_G = UW(T_G)``."""
    return summarize(graph, "typed_weak")


def typed_strong_summary(graph: RDFGraph) -> Summary:
    """Build the typed strong summary ``TS_G = US(T_G)``."""
    return summarize(graph, "typed_strong")


#: Mapping from kind name to builder, used by :func:`summarize` and the CLI.
SUMMARY_KINDS: Dict[str, Callable[[RDFGraph], Summary]] = {
    "weak": weak_summary,
    "strong": strong_summary,
    "type": type_summary,
    "typed_weak": typed_weak_summary,
    "typed_strong": typed_strong_summary,
}

#: Short aliases accepted by :func:`summarize` (the paper's W / S / TW / TS).
_ALIASES = {
    "w": "weak",
    "s": "strong",
    "t": "type",
    "tw": "typed_weak",
    "ts": "typed_strong",
    "typed-weak": "typed_weak",
    "typed-strong": "typed_strong",
}


def normalize_kind(kind: str) -> str:
    """Resolve a summary-kind name (or alias) to its canonical form.

    Shared by :func:`summarize`, the CLI and the query-service catalog so
    every entry point accepts the same spellings.
    """
    normalized = kind.strip().lower()
    normalized = _ALIASES.get(normalized, normalized)
    if normalized not in SUMMARY_KINDS:
        supported = ", ".join(sorted(SUMMARY_KINDS))
        raise UnknownSummaryKindError(f"unknown summary kind {kind!r}; supported: {supported}")
    return normalized


def summarize(graph: RDFGraph, kind: str = "weak") -> Summary:
    """Summarize *graph* with the requested summary *kind*.

    Parameters
    ----------
    graph:
        The input RDF graph.
    kind:
        One of ``"weak"``, ``"strong"``, ``"type"``, ``"typed_weak"``,
        ``"typed_strong"`` (or the aliases ``w`` / ``s`` / ``t`` / ``tw`` /
        ``ts``).

    Raises
    ------
    UnknownSummaryKindError
        When *kind* does not name a supported summary.
    """
    return summarize_graph_encoded(graph, normalize_kind(kind))
