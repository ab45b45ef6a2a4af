"""Tests for the graph catalog: registration, caching, incremental updates."""

import pytest

from repro.core.builders import summarize
from repro.core.isomorphism import graphs_isomorphic
from repro.errors import (
    CatalogError,
    DuplicateGraphError,
    UnknownGraphError,
    UnknownSummaryKindError,
)
from repro.model.graph import RDFGraph
from repro.service.catalog import GraphCatalog
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore

ALL_KINDS = ("weak", "strong", "type", "typed_weak", "typed_strong")


class TestRegistration:
    def test_register_graph_and_lookup(self, fig2):
        with GraphCatalog() as catalog:
            entry = catalog.register("fig2", graph=fig2)
            assert catalog.entry("fig2") is entry
            assert "fig2" in catalog
            assert catalog.names() == ["fig2"]

    def test_register_preloaded_store(self, fig2):
        store = SQLiteStore()
        store.load_graph(fig2)
        with GraphCatalog() as catalog:
            entry = catalog.register("fig2", store=store)
            assert entry.store is store
            assert len(entry.to_graph()) == len(fig2)

    def test_duplicate_name_rejected(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("g", graph=fig2)
            with pytest.raises(DuplicateGraphError):
                catalog.register("g", graph=fig2)

    def test_duplicate_register_is_a_catalog_error_with_a_clear_message(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("g", graph=fig2)
            with pytest.raises(CatalogError, match="'g' is already registered"):
                catalog.register("g", graph=RDFGraph())

    def test_duplicate_register_leaves_existing_entry_untouched(self, fig2):
        with GraphCatalog() as catalog:
            original = catalog.register("g", graph=fig2)
            with pytest.raises(DuplicateGraphError):
                catalog.register("g", graph=RDFGraph())
            # the existing entry is the same live object with its data and
            # caches intact — nothing was replaced, closed or invalidated
            assert catalog.entry("g") is original
            assert len(original.to_graph()) == len(fig2)
            assert len(original.summary("weak").graph) > 0

    def test_drop_then_reregister_round_trip(self, fig2, bibliography_small):
        with GraphCatalog() as catalog:
            catalog.register("g", graph=fig2)
            catalog.drop("g")
            assert "g" not in catalog
            entry = catalog.register("g", graph=bibliography_small)
            assert catalog.entry("g") is entry
            assert len(entry.to_graph()) == len(bibliography_small)
            assert entry.version == 0

    def test_catalog_error_hierarchy(self):
        assert issubclass(DuplicateGraphError, CatalogError)
        assert issubclass(UnknownGraphError, CatalogError)

    def test_unknown_name_rejected(self):
        with GraphCatalog() as catalog:
            with pytest.raises(UnknownGraphError):
                catalog.entry("missing")

    def test_register_needs_exactly_one_source(self, fig2):
        store = MemoryStore()
        with GraphCatalog() as catalog:
            with pytest.raises(ValueError):
                catalog.register("g")
            with pytest.raises(ValueError):
                catalog.register("g", graph=fig2, store=store)

    def test_drop_closes_and_forgets(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("g", graph=fig2)
            catalog.drop("g")
            assert "g" not in catalog


class TestSummaryCaching:
    def test_every_kind_matches_direct_summarization(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("fig2", graph=fig2)
            for kind in ALL_KINDS:
                cached = catalog.summary("fig2", kind)
                direct = summarize(fig2, kind)
                assert graphs_isomorphic(cached.graph, direct.graph), kind

    def test_summary_is_cached_until_update(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("fig2", graph=fig2)
            first = catalog.summary("fig2", "strong")
            assert catalog.summary("fig2", "strong") is first

    def test_kind_aliases_accepted(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("fig2", graph=fig2)
            assert catalog.summary("fig2", "tw").kind == "typed_weak"

    def test_unknown_kind_rejected(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("fig2", graph=fig2)
            with pytest.raises(UnknownSummaryKindError):
                catalog.summary("fig2", "nope")


class TestIncrementalUpdates:
    def test_add_triples_keeps_weak_summary_exact(self, bibliography_small):
        triples = sorted(bibliography_small)
        half = len(triples) // 2
        with GraphCatalog() as catalog:
            entry = catalog.register("bib", graph=RDFGraph(triples[:half]))
            entry.add_triples(triples[half:])
            expected = summarize(RDFGraph(triples), "weak")
            assert graphs_isomorphic(entry.summary("weak").graph, expected.graph)

    def test_one_by_one_additions_match_batch(self, fig2):
        triples = sorted(fig2)
        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(triples[:1]))
            for triple in triples[1:]:
                entry.add_triples([triple])
            expected = summarize(fig2, "weak")
            assert graphs_isomorphic(entry.summary("weak").graph, expected.graph)

    def test_update_invalidates_other_kinds(self, fig2):
        triples = sorted(fig2)
        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(triples[:-2]))
            stale = entry.summary("strong")
            entry.add_triples(triples[-2:])
            fresh = entry.summary("strong")
            assert fresh is not stale
            expected = summarize(fig2, "strong")
            assert graphs_isomorphic(fresh.graph, expected.graph)

    def test_version_bumps_on_update(self, fig2):
        triples = sorted(fig2)
        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(triples[:-1]))
            before = entry.version
            entry.add_triples(triples[-1:])
            assert entry.version == before + 1

    @pytest.mark.parametrize("backend", [MemoryStore, SQLiteStore], ids=["memory", "sqlite"])
    def test_duplicate_adds_are_noops(self, fig2, backend):
        triples = sorted(fig2)
        store = backend()
        store.load_graph(fig2)
        with GraphCatalog() as catalog:
            entry = catalog.register("g", store=store)
            rows_before = entry.store.statistics().total_rows
            version_before = entry.version
            assert entry.add_triples(triples[:3]) == 0
            assert entry.store.statistics().total_rows == rows_before
            assert entry.version == version_before

    def test_held_saturated_evaluator_survives_update(self, book_graph):
        from repro.queries.generator import generate_rbgp_workload
        from repro.schema.saturation import saturate

        triples = sorted(book_graph)
        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(triples[:-1], name="g"))
            held = entry.evaluator_for(saturated=True)
            query = generate_rbgp_workload(RDFGraph(triples[:-1]), count=1, seed=1)[0]
            before = held.evaluate(query)
            entry.add_triples(triples[-1:])
            fresh = entry.evaluator_for(saturated=True)
            # the saturated store is maintained *in place* now: the held
            # evaluator keeps working, is the same object a new request
            # gets, and serves the post-update G∞
            assert fresh is held
            from repro.queries.evaluation import evaluate

            after = held.evaluate(query)
            assert after == evaluate(saturate(entry.to_graph()), query)
            assert before <= after  # saturation only ever adds triples

    def test_saturated_store_maintained_without_rebuild(self, book_graph):
        from repro.schema.saturation import saturate

        triples = sorted(book_graph)
        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(triples[:-6], name="g"))
            entry.evaluator_for(saturated=True)
            assert entry.build_counters["saturation_builds"] == 1
            for index in range(6, 0, -2):
                stop = None if index == 2 else -(index - 2)
                entry.add_triples(triples[-index:stop])
            # every delta applied in place: still exactly one full build,
            # and the maintained store equals a from-scratch saturation
            assert entry.build_counters["saturation_builds"] == 1
            maintained = set(entry.evaluator_for(saturated=True).store.to_graph())
            assert maintained == set(saturate(entry.to_graph()))

    def test_saturated_statistics_updated_in_place(self, book_graph):
        from repro.service.statistics import CardinalityStatistics

        triples = sorted(book_graph)
        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(triples[:-3], name="g"))
            evaluator = entry.evaluator_for("hash", saturated=True)
            before = evaluator.statistics()  # force the saturated profile into being
            entry.add_triples(triples[-3:])
            profile = entry.evaluator_for("hash", saturated=True).statistics()
            assert profile is before
            assert profile == CardinalityStatistics.from_store(evaluator.store)

    def test_term_ingest_encoded_ingest_and_replay_are_one_routine(self, book_graph):
        """The three ways rows reach an entry differ only in the insert
        call: the same rows must leave the same version, weak summary,
        cardinality profiles and ``G∞``."""
        triples = sorted(book_graph)
        base, tail = triples[:-6], triples[-6:]

        def ingest(how):
            catalog = GraphCatalog()
            entry = catalog.register("g", graph=RDFGraph(base, name="g"))
            entry.statistics_index()  # both served stores live before the batch
            entry.evaluator_for(saturated=True)
            if how == "terms":
                assert entry.add_triples(tail) == len(tail)
            else:
                encoded = entry.store.dictionary.encode_triples(tail)
                rows = [(triple.kind, row) for triple, row in zip(tail, encoded)]
                if how == "encoded":
                    assert entry.add_encoded_rows(rows) == len(tail)
                else:
                    entry.replay(rows, version=entry.version + 1)
            saturated = entry.evaluator_for(saturated=True)
            state = (
                entry.version,
                set(entry.summary("weak").graph),
                entry.statistics_index().as_dict(),
                saturated.statistics().as_dict(),
                set(saturated.store.to_graph()),
            )
            catalog.close()
            return state

        by_terms = ingest("terms")
        assert by_terms[0] == 1 and len(by_terms[4]) > len(triples)
        assert ingest("encoded") == by_terms
        assert ingest("replay") == by_terms

    @pytest.mark.parametrize("saturated", [False, True], ids=["G", "G-inf"])
    def test_racing_first_users_share_one_served_store(self, book_graph, saturated):
        """Statistics, planner and evaluators are created on first use, by
        whichever reader gets there first — exactly once per store."""
        import sys
        import threading

        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=book_graph)
            start = threading.Barrier(8)
            seen = []

            def first_use(strategy):
                start.wait(timeout=10)
                evaluator = entry.evaluator_for(strategy, saturated=saturated)
                seen.append((strategy, evaluator, evaluator.planner(), evaluator.statistics()))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=first_use, args=(("hash", "sql")[index % 2],))
                    for index in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert len(seen) == 8
            assert len({id(planner) for _s, _e, planner, _p in seen}) == 1
            assert len({id(profile) for _s, _e, _pl, profile in seen}) == 1
            assert len({(strategy, id(evaluator)) for strategy, evaluator, _pl, _p in seen}) == 2
            assert entry.build_counters["saturation_builds"] == int(saturated)

    def test_saturation_metrics_track_deltas(self, book_graph):
        triples = sorted(book_graph)
        with GraphCatalog() as catalog:
            entry = catalog.register("g", graph=RDFGraph(triples[:-2], name="g"))
            assert entry.saturation_metrics() is None  # G∞ never requested
            entry.add_triples(triples[-2:-1])  # still no saturated state: no cost
            assert entry.saturation_metrics() is None
            entry.evaluator_for(saturated=True)
            metrics = entry.saturation_metrics()
            assert metrics["builds"] == 1 and metrics["deltas"] == 0
            entry.add_triples(triples[-1:])
            metrics = entry.saturation_metrics()
            assert metrics["deltas"] == 1
            assert metrics["last_delta_rows"] == 1
            assert metrics["store_rows"] >= metrics["derived_rows"]

    def test_shuffled_insertion_orders_converge(self, fig2):
        import random

        triples = sorted(fig2)
        expected = summarize(fig2, "weak")
        for seed in (1, 2, 3):
            shuffled = list(triples)
            random.Random(seed).shuffle(shuffled)
            with GraphCatalog() as catalog:
                entry = catalog.register("g", graph=RDFGraph(shuffled[:1]))
                for triple in shuffled[1:]:
                    entry.add_triples([triple])
                assert graphs_isomorphic(entry.summary("weak").graph, expected.graph)
