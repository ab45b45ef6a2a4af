"""Tests for the summary-guarded query service, including pruning soundness."""

import pytest

from repro.datasets.random_graph import RandomGraphConfig, generate_random_graph
from repro.errors import UnknownSummaryKindError
from repro.queries.evaluation import evaluate
from repro.queries.generator import generate_rbgp_workload
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.service.workload import generate_mixed_workload

ALL_KINDS = ("weak", "strong", "type", "typed_weak", "typed_strong")


class TestAnswerPipeline:
    def test_answers_match_term_evaluation(self, bibliography_small):
        with GraphCatalog() as catalog:
            catalog.register("bib", graph=bibliography_small)
            service = QueryService(catalog)
            for query in generate_rbgp_workload(bibliography_small, count=8, seed=2):
                answer = service.answer("bib", query)
                assert answer.answers == evaluate(bibliography_small, query)
                assert not answer.pruned

    def test_unsatisfiable_query_is_pruned(self, bibliography_small):
        with GraphCatalog() as catalog:
            catalog.register("bib", graph=bibliography_small)
            service = QueryService(catalog)
            query = parse_query(
                "PREFIX b: <http://bib.example.org/> ASK { ?x b:cites ?y }"
            )
            answer = service.answer("bib", query)
            assert answer.empty
            # absent property: rejected at compilation or by the guard
            assert answer.pruned or answer.evaluation_seconds >= 0.0

    def test_non_rbgp_query_skips_guard_but_answers(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("fig2", graph=fig2)
            service = QueryService(catalog)
            query = parse_query(
                "PREFIX f: <http://example.org/fig2/> "
                "SELECT ?a WHERE { <http://example.org/fig2/r1> f:author ?a }"
            )
            answer = service.answer("fig2", query)
            assert not answer.prunable
            assert answer.answers == evaluate(fig2, query)

    def test_prune_disabled_still_correct(self, bibliography_small):
        with GraphCatalog() as catalog:
            catalog.register("bib", graph=bibliography_small)
            service = QueryService(catalog, prune=False)
            query = parse_query(
                "PREFIX b: <http://bib.example.org/> ASK { ?x b:cites ?y }"
            )
            answer = service.answer("bib", query)
            assert answer.empty and not answer.pruned

    def test_limit_caps_answers(self, bibliography_small):
        with GraphCatalog() as catalog:
            catalog.register("bib", graph=bibliography_small)
            service = QueryService(catalog)
            query = parse_query(
                "PREFIX b: <http://bib.example.org/> SELECT ?x WHERE { ?x b:writtenBy ?y }"
            )
            answer = service.answer("bib", query, limit=2)
            assert len(answer.answers) == 2
            # at most `limit` rows: none, explained or not (regression: the
            # unexplained path answered one row to limit=0)
            for explain in (False, True):
                assert service.answer("bib", query, limit=0, explain=explain).empty

    def test_statistics_accumulate(self, bibliography_small):
        with GraphCatalog() as catalog:
            catalog.register("bib", graph=bibliography_small)
            service = QueryService(catalog)
            satisfiable = parse_query(
                "PREFIX b: <http://bib.example.org/> ASK { ?x b:writtenBy ?y }"
            )
            unsatisfiable = parse_query(
                "PREFIX b: <http://bib.example.org/> ASK { ?x b:cites ?y }"
            )
            service.answer("bib", satisfiable)
            service.answer("bib", unsatisfiable)
            stats = service.statistics.as_dict()
            assert stats["queries"] == 2
            assert stats["pruned"] == 1
            assert stats["evaluated"] == 1

    def test_a_prunable_query_checks_one_summary_once(self, bibliography_small, monkeypatch):
        import repro.service.service as service_module

        checked = []
        real = service_module.has_answers

        def counting(graph, query):
            checked.append(graph)
            return real(graph, query)

        # the guard looks the check up as a module global when it runs
        monkeypatch.setattr(service_module, "has_answers", counting)
        with GraphCatalog() as catalog:
            entry = catalog.register("bib", graph=bibliography_small)
            service = QueryService(catalog)
            for text in ("ASK { ?x b:writtenBy ?y }", "ASK { ?x b:cites ?y }"):
                query = parse_query("PREFIX b: <http://bib.example.org/> " + text)
                for saturated in (False, True):
                    del checked[:]
                    service.answer("bib", query, saturated=saturated)
                    guard = entry.pruning_graph("strong", saturated=saturated)
                    assert len(checked) == 1 and checked[0] is guard
            del checked[:]
            service.answer("bib", parse_query("ASK { ?x ?p ?y }"))  # not an RBGP
            assert checked == []

    def test_cascade_kind_spec(self, bibliography_small):
        with GraphCatalog() as catalog:
            catalog.register("bib", graph=bibliography_small)
            # the old cascade spelling is one guard, the strong summary
            service = QueryService(catalog, kind="weak+strong")
            assert service.kind == "strong"
            query = parse_query(
                "PREFIX b: <http://bib.example.org/> ASK { ?x b:cites ?y }"
            )
            answer = service.answer("bib", query)
            assert answer.empty and answer.pruned and answer.kind == "strong"
            for spec in ("strong+weak", "type+weak"):
                with pytest.raises(UnknownSummaryKindError):
                    QueryService(catalog, kind=spec)

    def test_saturated_answers_are_certain_answers(self, book_graph):
        from repro.queries.evaluation import evaluate_saturated

        with GraphCatalog() as catalog:
            catalog.register("book", graph=book_graph)
            service = QueryService(catalog)
            for query in generate_rbgp_workload(book_graph, count=5, seed=4):
                answer = service.answer("book", query, saturated=True)
                assert answer.answers == evaluate_saturated(book_graph, query)


class TestPruningSoundnessProperty:
    """The service never declares a satisfiable query empty.

    Random graphs × all five summary kinds × mixed workloads with
    generation-time ground truth: every verdict must match, and pruning may
    only ever fire on genuinely empty queries.
    """

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sound_on_random_graphs(self, kind):
        for seed in (11, 23, 47):
            graph = generate_random_graph(RandomGraphConfig(), seed=seed)
            graph.name = f"random_{seed}"
            workload = generate_mixed_workload(
                graph, count=20, unsatisfiable_fraction=0.5, seed=seed
            )
            assert workload, "workload generation produced no queries"
            with GraphCatalog() as catalog:
                catalog.register(graph.name, graph=graph)
                service = QueryService(catalog, kind=kind)
                for item in workload:
                    answer = service.answer(graph.name, item.query)
                    if item.satisfiable:
                        assert not answer.empty, (
                            f"{kind} guard declared satisfiable query empty: {item.query}"
                        )
                        assert answer.answers == evaluate(graph, item.query)
                    else:
                        assert answer.empty

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sound_on_generated_satisfiable_workloads(self, kind, random_graph):
        random_graph.name = "rg"
        with GraphCatalog() as catalog:
            catalog.register("rg", graph=random_graph)
            service = QueryService(catalog, kind=kind)
            for query in generate_rbgp_workload(random_graph, count=10, size=2, seed=13):
                answer = service.answer("rg", query)
                assert not answer.empty
