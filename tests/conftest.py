"""Shared fixtures: the paper's example graphs and small synthetic datasets."""

from __future__ import annotations

import pytest

from repro.datasets.bibliography import generate_bibliography
from repro.datasets.bsbm import generate_bsbm
from repro.datasets.lubm import generate_lubm
from oracles.random_graph import RandomGraphConfig, generate_random_graph
from repro.datasets.sample import (
    book_example_graph,
    figure2_graph,
    strong_completeness_graph,
    typed_weak_counterexample_graph,
    weak_completeness_graph,
)


@pytest.fixture
def fig2():
    """The sample graph of Figure 2 (Table 1 cliques)."""
    return figure2_graph()


@pytest.fixture
def book_graph():
    """The introductory book example with its RDFS constraints."""
    return book_example_graph()


@pytest.fixture
def fig5_graph():
    return weak_completeness_graph()


@pytest.fixture
def fig10_graph():
    return strong_completeness_graph()


@pytest.fixture
def fig8_graph():
    return typed_weak_counterexample_graph()


@pytest.fixture(scope="session")
def bsbm_small():
    """A small BSBM-like graph shared across tests (read-only)."""
    return generate_bsbm(scale=40, seed=7)


@pytest.fixture(scope="session")
def lubm_small():
    """A small LUBM-like graph shared across tests (read-only)."""
    return generate_lubm(universities=1, departments_per_university=2, seed=7)


@pytest.fixture(scope="session")
def bibliography_small():
    """A small bibliography graph shared across tests (read-only)."""
    return generate_bibliography(publications=60, untyped_fraction=0.3, seed=7)


@pytest.fixture
def random_graph():
    """A deterministic random heterogeneous graph."""
    return generate_random_graph(RandomGraphConfig(), seed=11)


def recount_profile(store):
    """What ``CardinalityStatistics(...).as_dict()`` must read for *store*,
    recounted from its rows alone with plain sets — the oracle of every
    "statistics are exact" assertion."""
    from repro.model.triple import TripleKind

    tables, class_rows, total = {}, {}, 0
    for kind in (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA):
        rows = [tuple(row) for batch in store.scan_batches(kind) for row in batch]
        total += len(rows)
        by_property = {}
        for subject, predicate, obj in rows:
            by_property.setdefault(predicate, []).append((subject, obj))
            if kind is TripleKind.TYPE:
                class_rows[str(obj)] = class_rows.get(str(obj), 0) + 1
        tables[kind.name.lower()] = {
            "rows": len(rows),
            "distinct_subjects": len({row[0] for row in rows}),
            "distinct_objects": len({row[2] for row in rows}),
            "predicates": {
                str(predicate): {
                    "rows": len(pairs),
                    "distinct_subjects": len({pair[0] for pair in pairs}),
                    "distinct_objects": len({pair[1] for pair in pairs}),
                }
                for predicate, pairs in by_property.items()
            },
        }
    return {"tables": tables, "class_rows": class_rows, "total_rows": total}


@pytest.fixture
def recount():
    return recount_profile
