"""Tests for the formal properties: Propositions 1-4 and the checkers."""

from repro.core.builders import summarize, weak_summary
from repro.core.properties import (
    check_fixpoint,
    check_representativeness,
    has_unique_data_properties,
)
from repro.queries.generator import generate_rbgp_workload
from repro.schema.saturation import saturate

from oracles.summary_checks import check_accuracy_witness, summary_homomorphism_holds

ALL_KINDS = ("weak", "strong", "type", "typed_weak", "typed_strong")


class TestUniqueDataProperties:
    """Proposition 4."""

    def test_weak_summary_has_unique_data_properties(self, fig2, bsbm_small, bibliography_small):
        for graph in (fig2, bsbm_small, bibliography_small):
            assert has_unique_data_properties(weak_summary(graph))

    def test_weak_data_edge_count_equals_distinct_properties(self, bsbm_small):
        summary = weak_summary(bsbm_small)
        assert len(summary.graph.data_triples) == len(bsbm_small.data_properties())

    def test_weak_data_node_bound(self, bsbm_small):
        # number of data nodes is at most 2 * |D_G|^0_p
        summary = weak_summary(bsbm_small)
        assert len(summary.summary_data_nodes()) <= 2 * len(bsbm_small.data_properties())

    def test_strong_summary_may_repeat_properties(self, fig2):
        summary = summarize(fig2, "strong")
        assert not has_unique_data_properties(summary)


class TestFixpoint:
    """Propositions 2, 6 and 9: every summary kind is its own summary."""

    def test_fixpoint_on_fig2(self, fig2):
        for kind in ALL_KINDS:
            assert check_fixpoint(summarize(fig2, kind)), kind

    def test_fixpoint_on_bsbm(self, bsbm_small):
        for kind in ("weak", "strong", "typed_weak", "typed_strong"):
            assert check_fixpoint(summarize(bsbm_small, kind)), kind

    def test_fixpoint_on_bibliography(self, bibliography_small):
        for kind in ("weak", "strong"):
            assert check_fixpoint(summarize(bibliography_small, kind)), kind

    def test_fixpoint_on_random_graph(self, random_graph):
        for kind in ("weak", "strong", "typed_weak", "typed_strong"):
            assert check_fixpoint(summarize(random_graph, kind)), kind


class TestHomomorphism:
    def test_homomorphism_for_all_kinds(self, fig2, random_graph):
        for graph in (fig2, random_graph):
            for kind in ALL_KINDS:
                assert summary_homomorphism_holds(graph, summarize(graph, kind)), kind

    def test_homomorphism_on_lubm(self, lubm_small):
        for kind in ("weak", "typed_weak"):
            assert summary_homomorphism_holds(lubm_small, summarize(lubm_small, kind))


class TestRepresentativeness:
    """Proposition 1 / Definition 1 on generated RBGP workloads."""

    def test_fig2_workload_preserved_by_all_kinds(self, fig2):
        queries = generate_rbgp_workload(saturate(fig2), count=15, size=2, seed=1)
        for kind in ALL_KINDS:
            report = check_representativeness(fig2, summarize(fig2, kind), queries)
            assert report.holds, (kind, report.failures)

    def test_bibliography_workload_preserved(self, bibliography_small):
        queries = generate_rbgp_workload(saturate(bibliography_small), count=10, size=2, seed=2)
        for kind in ("weak", "strong", "typed_weak"):
            report = check_representativeness(
                bibliography_small, summarize(bibliography_small, kind), queries
            )
            assert report.holds, (kind, [str(q) for q in report.failures])

    def test_report_ratio_and_repr(self, fig2):
        queries = generate_rbgp_workload(fig2, count=5, seed=3)
        report = check_representativeness(fig2, weak_summary(fig2), queries)
        assert report.ratio == 1.0
        assert "preserved" in repr(report)

    def test_queries_without_answers_are_skipped(self, fig2):
        from repro.datasets.sample import FIG2
        from repro.queries.bgp import BGPQuery, TriplePattern, Variable

        dead_query = BGPQuery(
            [TriplePattern(Variable("x"), FIG2.nonexistent, Variable("y"))]
        )
        report = check_representativeness(fig2, weak_summary(fig2), [dead_query])
        assert report.total == 0
        assert report.holds


class TestAccuracy:
    """Proposition 3, witnessed form."""

    def test_accuracy_witness_on_fig2(self, fig2):
        queries = generate_rbgp_workload(saturate(fig2), count=10, seed=4)
        for kind in ("weak", "strong"):
            report = check_accuracy_witness(summarize(fig2, kind), queries)
            assert report.holds

    def test_accuracy_counts_only_matching_queries(self, fig2):
        from repro.datasets.sample import FIG2
        from repro.queries.bgp import BGPQuery, TriplePattern, Variable

        dead_query = BGPQuery(
            [TriplePattern(Variable("x"), FIG2.nonexistent, Variable("y"))]
        )
        report = check_accuracy_witness(weak_summary(fig2), [dead_query])
        assert report.total == 0
