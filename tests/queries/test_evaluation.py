"""Tests for BGP query evaluation."""

from repro.datasets.sample import FIG2
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.terms import Literal
from repro.queries.bgp import BGPQuery, TriplePattern, Variable
from repro.queries.evaluation import (
    count_answers,
    evaluate,
    evaluate_saturated,
    has_answers,
    iter_embeddings,
)


def _var(name):
    return Variable(name)


class TestEvaluate:
    def test_single_pattern_all_matches(self, fig2):
        query = BGPQuery([TriplePattern(_var("x"), FIG2.title, _var("y"))], head=[_var("x")])
        answers = evaluate(fig2, query)
        assert answers == {(FIG2.r1,), (FIG2.r2,), (FIG2.r4,), (FIG2.r5,)}

    def test_join_across_patterns(self, fig2):
        query = BGPQuery(
            [
                TriplePattern(_var("x"), FIG2.author, _var("a")),
                TriplePattern(_var("a"), FIG2.reviewed, _var("r")),
            ],
            head=[_var("x"), _var("r")],
        )
        assert evaluate(fig2, query) == {(FIG2.r1, FIG2.r4)}

    def test_type_pattern(self, fig2):
        query = BGPQuery(
            [TriplePattern(_var("x"), RDF_TYPE, FIG2.Book)], head=[_var("x")]
        )
        assert evaluate(fig2, query) == {(FIG2.r1,), (FIG2.r2,)}

    def test_constant_object(self, fig2):
        query = BGPQuery(
            [TriplePattern(_var("x"), FIG2.editor, FIG2.e2)], head=[_var("x")]
        )
        assert evaluate(fig2, query) == {(FIG2.r3,), (FIG2.r5,)}

    def test_boolean_query_true(self, fig2):
        query = BGPQuery([TriplePattern(_var("x"), FIG2.comment, _var("y"))])
        assert evaluate(fig2, query) == {()}

    def test_boolean_query_false(self, fig2):
        query = BGPQuery([TriplePattern(_var("x"), FIG2.missing, _var("y"))])
        assert evaluate(fig2, query) == set()

    def test_shared_variable_must_bind_consistently(self, fig2):
        # x editor x: no resource is its own editor
        query = BGPQuery([TriplePattern(_var("x"), FIG2.editor, _var("x"))])
        assert evaluate(fig2, query) == set()

    def test_limit(self, fig2):
        query = BGPQuery([TriplePattern(_var("x"), FIG2.title, _var("y"))], head=[_var("x")])
        assert len(evaluate(fig2, query, limit=2)) == 2

    def test_iter_embeddings_counts(self, fig2):
        query = BGPQuery([TriplePattern(_var("x"), FIG2.title, _var("y"))], head=[_var("x")])
        assert len(list(iter_embeddings(fig2, query))) == 4


class TestSaturatedEvaluation:
    def test_incomplete_vs_complete_answers(self, book_graph):
        query = BGPQuery(
            [TriplePattern(_var("x"), RDF_TYPE, EX.Publication)], head=[_var("x")]
        )
        assert evaluate(book_graph, query) == set()
        assert evaluate_saturated(book_graph, query) == {(EX.doi1,)}

    def test_has_answers_flag(self, book_graph):
        query = BGPQuery([TriplePattern(_var("x"), EX.hasAuthor, _var("y"))])
        assert not has_answers(book_graph, query)
        assert has_answers(book_graph, query, saturated=True)

    def test_count_answers(self, fig2):
        query = BGPQuery([TriplePattern(_var("x"), FIG2.title, _var("y"))], head=[_var("x")])
        assert count_answers(fig2, query) == 4

    def test_count_answers_saturated(self, book_graph):
        query = BGPQuery(
            [TriplePattern(_var("x"), RDF_TYPE, EX.Person)], head=[_var("x")]
        )
        assert count_answers(book_graph, query) == 0
        assert count_answers(book_graph, query, saturated=True) == 1


class TestJoinOrdering:
    def test_selective_pattern_first_gives_same_answers(self, bsbm_small):
        from repro.datasets.bsbm import BSBM

        query = BGPQuery(
            [
                TriplePattern(_var("o"), BSBM.offeredProduct, _var("p")),
                TriplePattern(_var("o"), BSBM.vendor, _var("v")),
                TriplePattern(_var("p"), RDF_TYPE, BSBM.Product),
            ],
            head=[_var("o")],
        )
        answers = evaluate(bsbm_small, query)
        # every offer references a product and a vendor, so all offers match
        offers = {t.subject for t in bsbm_small.triples(predicate=BSBM.offeredProduct)}
        assert {a[0] for a in answers} == offers


def test_has_answers_leaves_nothing_for_the_cyclic_collector(fig2):
    """A guard check frees everything it made by reference counting: no
    self-referencing closure survives the call for ``gc`` to find."""
    import gc

    from repro import summarize

    summary = summarize(fig2, "weak").graph
    satisfiable = BGPQuery(
        [
            TriplePattern(_var("x"), FIG2.author, _var("a")),
            TriplePattern(_var("x"), FIG2.title, _var("t")),
        ],
        head=[_var("x")],
    )
    refuted = BGPQuery([TriplePattern(_var("x"), FIG2.reviewed, FIG2.title)], head=[_var("x")])
    gc.collect()
    gc.disable()
    try:
        assert has_answers(summary, satisfiable)
        assert not has_answers(summary, refuted)
        assert gc.collect() == 0
    finally:
        gc.enable()
