"""Tests for the encoded BGP evaluator (service layer)."""

import pytest

from repro.model.namespaces import EX, RDFS_SUBCLASSOF, RDF_TYPE
from repro.model.terms import Literal, URI
from repro.queries.bgp import BGPQuery, TriplePattern, Variable
from repro.queries.evaluation import evaluate
from repro.queries.generator import generate_rbgp_workload
from repro.queries.parser import parse_query
from repro.service.evaluator import EncodedEvaluator, compile_query
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore


@pytest.fixture(params=[MemoryStore, SQLiteStore], ids=["memory", "sqlite"])
def backend(request):
    return request.param


def _evaluator_for(graph, backend):
    store = backend()
    store.load_graph(graph)
    return EncodedEvaluator(store)


class TestCompilation:
    def test_constants_encode_to_store_ids(self, fig2, backend):
        evaluator = _evaluator_for(fig2, backend)
        query = parse_query(
            "PREFIX f: <http://example.org/fig2/> SELECT ?x WHERE { ?x f:author ?a }"
        )
        compiled = evaluator.compile(query)
        assert not compiled.trivially_empty
        assert compiled.patterns[0].predicate >= 0

    def test_unknown_constant_is_trivially_empty(self, fig2, backend):
        evaluator = _evaluator_for(fig2, backend)
        query = parse_query("SELECT ?x WHERE { ?x <http://nowhere/p> ?y }")
        compiled = evaluator.compile(query)
        assert compiled.trivially_empty
        assert compiled.unsatisfiable_term == URI("http://nowhere/p")
        assert evaluator.evaluate(compiled) == set()
        assert not evaluator.has_answers(query)

    def test_variable_slots_are_shared_across_patterns(self, fig2):
        evaluator = _evaluator_for(fig2, MemoryStore)
        query = parse_query(
            "PREFIX f: <http://example.org/fig2/> "
            "SELECT ?x WHERE { ?x f:author ?a . ?x a f:Book }"
        )
        compiled = evaluator.compile(query)
        assert compiled.patterns[0].subject == compiled.patterns[1].subject


class TestEquivalenceWithTermEvaluator:
    def test_generated_workloads(self, fig2, bibliography_small, backend):
        for graph, seed in ((fig2, 3), (bibliography_small, 5)):
            evaluator = _evaluator_for(graph, backend)
            for query in generate_rbgp_workload(graph, count=10, size=2, seed=seed):
                assert evaluator.evaluate(query) == evaluate(graph, query)

    def test_constant_object_query(self, fig2, backend):
        evaluator = _evaluator_for(fig2, backend)
        query = parse_query(
            "PREFIX f: <http://example.org/fig2/> "
            "SELECT ?x WHERE { ?x f:author ?a . ?x a f:Book }"
        )
        assert evaluator.evaluate(query) == evaluate(fig2, query)

    def test_decoded_answer_holds_one_term_object_per_distinct_id(self, bibliography_small):
        """Decoding mints each distinct id of the rows once: a term that
        fills many cells is one object in all of them."""
        evaluator = _evaluator_for(bibliography_small, MemoryStore)
        query = parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        answers = evaluator.evaluate(query)
        ids = {identifier for row in answers.rows for identifier in row}
        cells = [cell for row in answers for cell in row]
        assert len(cells) > len(ids)  # some id fills more than one cell
        assert len({id(cell) for cell in cells}) == len(ids)
        assert answers == evaluate(bibliography_small, query)

    def test_literal_constant(self, book_graph, backend):
        literal = sorted(book_graph.literals())[0]
        variable = Variable("x")
        pattern = next(iter(book_graph.triples(obj=literal)))
        query = BGPQuery([TriplePattern(variable, pattern.predicate, literal)], head=(variable,))
        evaluator = _evaluator_for(book_graph, backend)
        assert evaluator.evaluate(query) == evaluate(book_graph, query)

    def test_variable_predicate_spans_all_tables(self, book_graph, backend):
        variable_x, variable_p, variable_y = Variable("x"), Variable("p"), Variable("y")
        query = BGPQuery(
            [TriplePattern(variable_x, variable_p, variable_y)],
            head=(variable_p,),
        )
        evaluator = _evaluator_for(book_graph, backend)
        assert evaluator.evaluate(query) == evaluate(book_graph, query)

    def test_schema_pattern(self, book_graph, backend):
        variable_c, variable_d = Variable("c"), Variable("d")
        query = BGPQuery(
            [TriplePattern(variable_c, RDFS_SUBCLASSOF, variable_d)],
            head=(variable_c, variable_d),
        )
        evaluator = _evaluator_for(book_graph, backend)
        assert evaluator.evaluate(query) == evaluate(book_graph, query)

    def test_repeated_variable_in_one_pattern(self, backend):
        from repro.model.graph import RDFGraph
        from repro.model.triple import Triple

        graph = RDFGraph(
            [
                Triple(EX.a, EX.p, EX.a),
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.b, EX.p, EX.a),
            ]
        )
        variable = Variable("x")
        query = BGPQuery([TriplePattern(variable, EX.p, variable)], head=(variable,))
        evaluator = _evaluator_for(graph, backend)
        assert evaluator.evaluate(query) == evaluate(graph, query) == {(EX.a,)}


class TestSQLPushdownStrategy:
    """strategy='sql': the whole join runs inside SQLite; answers must be
    identical to the Python executors (with a hash fallback elsewhere)."""

    def _sql_evaluator(self, graph):
        store = SQLiteStore()
        store.load_graph(graph)
        return EncodedEvaluator(store, strategy="sql")

    def test_generated_workloads_match_term_evaluation(self, fig2, bibliography_small):
        for graph, seed in ((fig2, 3), (bibliography_small, 5)):
            evaluator = self._sql_evaluator(graph)
            for query in generate_rbgp_workload(graph, count=10, size=2, seed=seed):
                assert evaluator.evaluate(query) == evaluate(graph, query), query

    def test_boolean_semantics(self, fig2):
        evaluator = self._sql_evaluator(fig2)
        yes = parse_query("ASK { ?x <http://example.org/fig2/editor> ?y }")
        no = parse_query(
            "ASK { ?y <http://example.org/fig2/comment> ?x . "
            "?x <http://example.org/fig2/editor> ?z }"
        )
        assert evaluator.evaluate(yes) == {()}
        assert evaluator.evaluate(no) == set()

    def test_repeated_variable_in_one_pattern(self):
        from repro.model.graph import RDFGraph
        from repro.model.triple import Triple

        graph = RDFGraph(
            [Triple(EX.a, EX.p, EX.a), Triple(EX.a, EX.p, EX.b), Triple(EX.b, EX.p, EX.b)]
        )
        evaluator = self._sql_evaluator(graph)
        x = Variable("x")
        query = BGPQuery([TriplePattern(x, EX.p, x)], head=(x,))
        assert evaluator.evaluate(query) == {(EX.a,), (EX.b,)}

    def test_limit_is_a_subset_of_the_full_answers(self, bibliography_small):
        evaluator = self._sql_evaluator(bibliography_small)
        query = generate_rbgp_workload(bibliography_small, count=1, size=1, seed=1)[0]
        full = evaluator.evaluate(query)
        if len(full) > 1:
            clipped = evaluator.evaluate(query, limit=1)
            assert len(clipped) == 1 and clipped <= full

    def test_variable_predicate_falls_back_to_hash(self, book_graph):
        evaluator = self._sql_evaluator(book_graph)
        x, p, y = Variable("x"), Variable("p"), Variable("y")
        query = BGPQuery([TriplePattern(x, p, y)], head=(x, p, y))
        assert evaluator.evaluate(query) == evaluate(book_graph, query)

    def test_memory_store_falls_back_to_hash(self, fig2):
        store = MemoryStore()
        store.load_graph(fig2)
        evaluator = EncodedEvaluator(store, strategy="sql")
        query = parse_query("SELECT ?x WHERE { ?x <http://example.org/fig2/editor> ?y . }")
        assert evaluator.evaluate(query) == evaluate(fig2, query)

    def test_trace_records_the_statement(self, fig2):
        evaluator = self._sql_evaluator(fig2)
        query = parse_query("SELECT ?x WHERE { ?x <http://example.org/fig2/editor> ?y . }")
        trace = evaluator.explain(query)
        assert trace.strategy == "sql"
        assert trace.stages and "SELECT DISTINCT" in trace.stages[0].description

    def test_dictionary_miss_is_instantly_empty(self, fig2):
        evaluator = self._sql_evaluator(fig2)
        query = parse_query("SELECT ?x WHERE { ?x <http://nowhere.example/p> ?y . }")
        assert evaluator.evaluate(query) == set()


class TestLimitsAndBooleans:
    def test_boolean_semantics(self, fig2, backend):
        evaluator = _evaluator_for(fig2, backend)
        query = parse_query(
            "PREFIX f: <http://example.org/fig2/> ASK { ?x f:author ?a }"
        )
        assert evaluator.evaluate(query) == {()}
        assert evaluator.has_answers(query)

    def test_limit_truncates(self, bibliography_small, backend):
        evaluator = _evaluator_for(bibliography_small, backend)
        query = parse_query("SELECT ?x ?y WHERE { ?x <http://bib.example.org/writtenBy> ?y }")
        full = evaluator.evaluate(query)
        limited = evaluator.evaluate(query, limit=3)
        assert len(limited) == 3
        assert limited <= full

    def test_limit_decodes_only_the_rows_it_keeps(self, bibliography_small, monkeypatch):
        """Answers are deduplicated on id tuples: no binding is decoded
        to Terms just to be dropped as a duplicate or cut by the limit."""
        evaluator = _evaluator_for(bibliography_small, MemoryStore)
        query = parse_query("SELECT ?y WHERE { ?x <http://bib.example.org/writtenBy> ?y }")
        full = evaluator.evaluate(query)
        decoded = []
        dictionary = evaluator.store.dictionary
        monkeypatch.setattr(
            dictionary, "decode", lambda identifier: decoded.append(identifier) or None
        )
        limited = evaluator.evaluate(query, limit=3)
        assert len(limited) == 3 and limited <= full
        assert decoded == []  # kept rows index the decode table directly

    def test_count_answers(self, fig2, backend):
        evaluator = _evaluator_for(fig2, backend)
        query = parse_query(
            "PREFIX f: <http://example.org/fig2/> SELECT ?x WHERE { ?x f:author ?a }"
        )
        assert evaluator.count_answers(query) == len(evaluate(fig2, query))
