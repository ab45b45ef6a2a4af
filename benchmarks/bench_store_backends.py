"""E9 — Section 6's architecture choice: the encoded-store substrate.

The paper's prototype drives summarization through SQL queries against
PostgreSQL; this reproduction offers an in-memory store and a SQLite-backed
store behind the same interface.  The benchmark compares loading plus
store-driven weak summarization on both backends and checks that both produce
the weak summary (isomorphic to the declarative quotient construction).
"""

from __future__ import annotations

from conftest import print_series

from repro.core.builders import weak_summary
from repro.core.encoded import encoded_summarize
from repro.core.isomorphism import graphs_isomorphic
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore
from repro.utils.timing import Stopwatch


def _pipeline(graph, backend):
    with backend() as store:
        store.load_graph(graph)
        return encoded_summarize(store, "weak")


def test_memory_store_pipeline(bsbm_medium, benchmark):
    summary = benchmark(_pipeline, bsbm_medium, MemoryStore)
    assert graphs_isomorphic(summary.graph, weak_summary(bsbm_medium).graph)


def test_sqlite_store_pipeline(bsbm_medium, benchmark):
    summary = benchmark(_pipeline, bsbm_medium, SQLiteStore)
    assert graphs_isomorphic(summary.graph, weak_summary(bsbm_medium).graph)


def test_backend_comparison_report(bsbm_medium, benchmark):
    def measure():
        measured = []
        for label, backend in (("memory", MemoryStore), ("sqlite", SQLiteStore)):
            with Stopwatch() as load_watch, backend() as store:
                store.load_graph(bsbm_medium)
            with backend() as store:
                store.load_graph(bsbm_medium)
                with Stopwatch() as summarize_watch:
                    summary = encoded_summarize(store, "weak")
            measured.append(
                (label, len(bsbm_medium), load_watch.elapsed, summarize_watch.elapsed, len(summary.graph))
            )
        return measured

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_series(
        "Store backends: load + store-driven weak summarization",
        ("backend", "input triples", "load (s)", "summarize (s)", "summary edges"),
        rows,
    )
    # both backends produce the same-size summary
    assert rows[0][4] == rows[1][4]


def test_declarative_vs_incremental_weak(bsbm_medium, benchmark):
    """The declarative quotient construction as a reference point."""
    summary = benchmark(weak_summary, bsbm_medium)
    assert len(summary.graph) > 0
