"""Integration tests across modules: file → store → summary → queries → export."""

from repro.core.builders import summarize, weak_summary
from repro.core.encoded import encoded_summarize
from repro.core.isomorphism import graphs_isomorphic
from repro.core.properties import check_fixpoint, check_representativeness
from repro.core.shortcuts import completeness_holds
from repro.io.dot import summary_to_dot
from repro.io.ntriples import dump_ntriples, load_ntriples, serialize_ntriples, parse_ntriples
from repro.queries.generator import generate_rbgp_workload
from repro.queries.parser import parse_query
from repro.queries.evaluation import evaluate, has_answers
from repro.schema.saturation import saturate
from repro.store.sqlite import SQLiteStore


class TestFileToSummaryPipeline:
    def test_roundtrip_through_files(self, tmp_path, bsbm_small):
        source = tmp_path / "bsbm.nt"
        dump_ntriples(bsbm_small, source)
        loaded = load_ntriples(source)
        assert set(loaded) == set(bsbm_small)

        summary = weak_summary(loaded)
        summary_path = tmp_path / "summary.nt"
        dump_ntriples(summary.graph, summary_path)
        reloaded = load_ntriples(summary_path)
        assert graphs_isomorphic(reloaded, summary.graph)

    def test_summary_serialization_is_stable(self, fig2):
        first = serialize_ntriples(weak_summary(fig2).graph)
        second = serialize_ntriples(weak_summary(fig2).graph)
        assert first == second

    def test_store_pipeline_matches_in_memory_pipeline(self, tmp_path, bibliography_small):
        database = tmp_path / "bib.db"
        with SQLiteStore(path=str(database)) as store:
            store.load_graph(bibliography_small)
            store.persist_dictionary()
            incremental = encoded_summarize(store, "weak")
        declarative = weak_summary(bibliography_small)
        assert graphs_isomorphic(incremental.graph, declarative.graph)


class TestQueryPipeline:
    def test_summary_answers_parsed_queries_that_graph_answers(self, bibliography_small):
        summary = summarize(bibliography_small, "typed_weak")
        query = parse_query(
            "PREFIX b: <http://bib.example.org/> "
            "SELECT ?x ?y WHERE { ?x b:writtenBy ?y . ?x a b:Book }"
        )
        if has_answers(saturate(bibliography_small), query):
            assert has_answers(saturate(summary.graph), query)

    def test_generated_workload_end_to_end(self, bsbm_small):
        queries = generate_rbgp_workload(saturate(bsbm_small), count=8, size=2, seed=13)
        for kind in ("weak", "strong", "typed_weak", "typed_strong"):
            summary = summarize(bsbm_small, kind)
            report = check_representativeness(bsbm_small, summary, queries)
            assert report.holds, (kind, [str(q) for q in report.failures])

    def test_summary_much_faster_to_query_than_graph(self, bsbm_small):
        # not a timing assertion (flaky) — a size argument: the summary the
        # query planner would explore is orders of magnitude smaller.
        summary = weak_summary(bsbm_small)
        assert len(summary.graph) * 20 < len(bsbm_small)


class TestSemanticPipeline:
    def test_saturation_then_summary_consistency_on_lubm(self, lubm_small):
        comparison = completeness_holds(lubm_small, "weak")
        assert comparison.equivalent

    def test_all_summaries_are_fixpoints_after_reload(self, tmp_path, fig2):
        for kind in ("weak", "strong", "typed_weak", "typed_strong"):
            summary = summarize(fig2, kind)
            path = tmp_path / f"{kind}.nt"
            dump_ntriples(summary.graph, path)
            reloaded = load_ntriples(path)
            resummarized = summarize(reloaded, kind)
            assert graphs_isomorphic(reloaded, resummarized.graph), kind

    def test_dot_export_of_every_kind(self, fig2):
        for kind in ("weak", "strong", "type", "typed_weak", "typed_strong"):
            summary = summarize(fig2, kind)
            dot = summary_to_dot(summary, show_extents=True)
            assert dot.count("->") == len(summary.graph)

    def test_exploration_scenario(self, bsbm_small):
        """A user explores an unknown dataset through its weak summary."""
        summary = weak_summary(bsbm_small)
        # every data property of the dataset is visible in the summary
        assert summary.graph.data_properties() == bsbm_small.data_properties()
        # and the summary tells which classes exist
        assert summary.graph.class_nodes() == bsbm_small.class_nodes()
        # a property the dataset does not use is absent from the summary
        assert check_fixpoint(summary)
