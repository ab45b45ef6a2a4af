"""Tests for the completeness shortcuts (Propositions 5, 7, 8, 10)."""

from repro.core.isomorphism import graphs_isomorphic
from repro.core.shortcuts import (
    completeness_holds,
    direct_summary_of_saturation,
    shortcut_summary,
)
from oracles.random_graph import RandomGraphConfig, generate_random_graph
from repro.schema.saturation import saturate


class TestWeakCompleteness:
    """Proposition 5: W(G∞) = W((W_G)∞)."""

    def test_figure5_graph(self, fig5_graph):
        comparison = completeness_holds(fig5_graph, "weak")
        assert comparison.equivalent

    def test_figure10_graph_weak(self, fig10_graph):
        assert completeness_holds(fig10_graph, "weak").equivalent

    def test_book_example(self, book_graph):
        assert completeness_holds(book_graph, "weak").equivalent

    def test_lubm(self, lubm_small):
        assert completeness_holds(lubm_small, "weak").equivalent

    def test_bibliography(self, bibliography_small):
        assert completeness_holds(bibliography_small, "weak").equivalent

    def test_random_graphs_with_schema(self):
        for seed in range(4):
            graph = generate_random_graph(
                RandomGraphConfig(resources=20, properties=6, data_triples=40, schema_constraints=5),
                seed=seed,
            )
            assert completeness_holds(graph, "weak").equivalent, seed

    def test_schema_less_graph_trivially_complete(self, fig2):
        assert completeness_holds(fig2, "weak").equivalent


class TestStrongCompleteness:
    """Proposition 8: S(G∞) = S((S_G)∞)."""

    def test_figure10_graph(self, fig10_graph):
        comparison = completeness_holds(fig10_graph, "strong")
        assert comparison.equivalent

    def test_figure5_graph(self, fig5_graph):
        assert completeness_holds(fig5_graph, "strong").equivalent

    def test_book_example(self, book_graph):
        assert completeness_holds(book_graph, "strong").equivalent

    def test_bibliography(self, bibliography_small):
        assert completeness_holds(bibliography_small, "strong").equivalent

    def test_random_graphs_with_schema(self):
        for seed in range(4):
            graph = generate_random_graph(
                RandomGraphConfig(resources=20, properties=6, data_triples=40, schema_constraints=5),
                seed=seed + 100,
            )
            assert completeness_holds(graph, "strong").equivalent, seed


class TestTypedNonCompleteness:
    """Propositions 7 and 10: counter-examples exist for the typed kinds."""

    def test_figure8_typed_weak_counterexample(self, fig8_graph):
        comparison = completeness_holds(fig8_graph, "typed_weak")
        assert not comparison.equivalent

    def test_figure8_typed_strong_counterexample(self, fig8_graph):
        comparison = completeness_holds(fig8_graph, "typed_strong")
        assert not comparison.equivalent

    def test_figure8_weak_still_complete(self, fig8_graph):
        # the same graph is fine for the untyped summaries
        assert completeness_holds(fig8_graph, "weak").equivalent

    def test_counterexample_direct_has_more_nodes(self, fig8_graph):
        comparison = completeness_holds(fig8_graph, "typed_weak")
        direct_nodes = len(comparison.direct.summary_data_nodes())
        shortcut_nodes = len(comparison.shortcut.summary_data_nodes())
        assert direct_nodes != shortcut_nodes


class TestShortcutMechanics:
    def test_shortcut_equals_direct_structurally(self, fig10_graph):
        direct = direct_summary_of_saturation(fig10_graph, "strong")
        shortcut = shortcut_summary(fig10_graph, "strong")
        assert graphs_isomorphic(direct.graph, shortcut.graph)

    def test_shortcut_summarizes_much_smaller_graph(self, lubm_small):
        # the point of the shortcut: the graph saturated in step 2 is the
        # summary, which is far smaller than G
        from repro.core.builders import weak_summary

        summary = weak_summary(lubm_small)
        assert len(summary.graph) < len(lubm_small) / 5
        assert len(saturate(summary.graph)) < len(saturate(lubm_small))

    def test_comparison_repr(self, fig5_graph):
        comparison = completeness_holds(fig5_graph, "weak")
        assert "weak" in repr(comparison)
        assert "equivalent=True" in repr(comparison)
