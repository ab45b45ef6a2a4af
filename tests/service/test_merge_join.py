"""Merge-join strategy tests: answer equality, fallback, trace algorithms.

``strategy="merge"`` must answer exactly like the reference ``Term``-object
evaluator (as ``hash`` does — ``test_hash_join.py``) on every backend: over sorted posting runs on the memory
backend, and by silently degrading to the hash fetch wherever a run is
unavailable (the SQLite backend, variable predicates, ineligible join
shapes, or a statistics gate that prefers hashing).
"""

import random

import pytest

from repro.model.graph import RDFGraph
from repro.model.namespaces import EX
from repro.model.triple import Triple
from repro.queries.bgp import BGPQuery, TriplePattern, Variable
from repro.queries.evaluation import evaluate
from repro.queries.generator import generate_rbgp_workload
from repro.service.evaluator import STRATEGIES, EncodedEvaluator
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore


@pytest.fixture(params=[MemoryStore, SQLiteStore], ids=["memory", "sqlite"])
def backend(request):
    return request.param


def _merged(graph, backend):
    store = backend()
    store.load_graph(graph)
    return EncodedEvaluator(store, strategy="merge")


def _shuffles(query: BGPQuery, seed: int, count: int = 3):
    rng = random.Random(seed)
    yield query
    for _ in range(count):
        patterns = list(query.patterns)
        rng.shuffle(patterns)
        yield BGPQuery(patterns, head=query.head, name=query.name)


def _chain_graph():
    triples = []
    for index in range(6):
        author = EX[f"a{index % 3}"]
        paper = EX[f"r{index}"]
        venue = EX[f"v{index % 2}"]
        triples.append(Triple(paper, EX.author, author))
        triples.append(Triple(paper, EX.venue, venue))
        triples.append(Triple(author, EX.affiliation, EX[f"u{index % 2}"]))
    return RDFGraph(triples)


class TestMergeStrategyRegistered:
    def test_merge_is_a_known_strategy(self):
        assert "merge" in STRATEGIES

    @pytest.mark.parametrize("name", ["zigzag", "nested"])
    def test_unknown_strategy_still_rejected(self, name):
        """``nested`` was a strategy once; what is left of it is an order
        the one pipeline may walk under a limit, and it has no name."""
        with MemoryStore() as store:
            with pytest.raises(ValueError):
                EncodedEvaluator(store, strategy=name)

    def test_strategies_are_the_three_planned_ones(self):
        assert STRATEGIES == ("hash", "sql", "merge")


class TestAnswerEquality:
    def test_generated_workloads_shuffled(self, fig2, bibliography_small, backend):
        for graph, seed in ((fig2, 3), (bibliography_small, 5)):
            merged = _merged(graph, backend)
            for query in generate_rbgp_workload(graph, count=8, size=2, seed=seed):
                expected = evaluate(graph, query)
                for variant in _shuffles(query, seed):
                    assert merged.evaluate(variant) == expected

    def test_three_pattern_joins(self, bsbm_small, backend):
        merged = _merged(bsbm_small, backend)
        for query in generate_rbgp_workload(bsbm_small, count=6, size=3, seed=11):
            expected = evaluate(bsbm_small, query)
            for variant in _shuffles(query, 11):
                assert merged.evaluate(variant) == expected

    def test_chain_fork_and_constant_shapes(self, backend):
        graph = _chain_graph()
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        queries = [
            # chain: join on the object of the first pattern
            BGPQuery(
                [TriplePattern(x, EX.author, y), TriplePattern(y, EX.affiliation, z)],
                head=(x, z),
            ),
            # fork: two patterns share the subject
            BGPQuery(
                [TriplePattern(x, EX.author, y), TriplePattern(x, EX.venue, z)],
                head=(y, z),
            ),
            # semi-join: the non-key column is pinned by a constant
            BGPQuery(
                [TriplePattern(x, EX.author, y), TriplePattern(x, EX.venue, EX.v0)],
                head=(x, y),
            ),
            # object-object join
            BGPQuery(
                [TriplePattern(x, EX.author, z), TriplePattern(y, EX.author, z)],
                head=(x, y),
            ),
        ]
        merged = _merged(graph, backend)
        for query in queries:
            expected = evaluate(graph, query)
            assert merged.evaluate(query) == expected

    def test_self_loop_pattern_not_merged_but_correct(self, backend):
        graph = RDFGraph(
            [Triple(EX.a, EX.p, EX.a), Triple(EX.a, EX.p, EX.b), Triple(EX.b, EX.q, EX.a)]
        )
        x, y = Variable("x"), Variable("y")
        query = BGPQuery(
            [TriplePattern(x, EX.q, y), TriplePattern(y, EX.p, y)], head=(x, y)
        )
        merged = _merged(graph, backend)
        assert merged.evaluate(query) == evaluate(graph, query)

    def test_limits_respected(self, backend):
        graph = _chain_graph()
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = BGPQuery(
            [TriplePattern(x, EX.author, y), TriplePattern(y, EX.affiliation, z)],
            head=(x, z),
        )
        merged = _merged(graph, backend)
        full = merged.evaluate(query)
        limited = merged.evaluate(query, limit=2)
        assert len(limited) == 2
        assert limited <= full
        assert merged.has_answers(query)


class TestTraceAlgorithm:
    def _chain_query(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        return BGPQuery(
            [TriplePattern(x, EX.author, y), TriplePattern(y, EX.affiliation, z)],
            head=(x, z),
        )

    def test_memory_trace_reports_merge_stage(self):
        with MemoryStore() as store:
            store.load_graph(_chain_graph())
            merged = EncodedEvaluator(store, strategy="merge")
            trace = merged.explain(self._chain_query())
            algorithms = [stage.algorithm for stage in trace.stages]
            assert "merge" in algorithms
            assert all(algorithm in ("hash", "merge") for algorithm in algorithms)
            assert all("algorithm" in stage.as_dict() for stage in trace.stages)

    def test_sqlite_falls_back_to_hash_everywhere(self):
        with SQLiteStore() as store:
            store.load_graph(_chain_graph())
            merged = EncodedEvaluator(store, strategy="merge")
            trace = merged.explain(self._chain_query())
            assert [stage.algorithm for stage in trace.stages] == ["hash", "hash"]

    def test_pushed_down_sql_stage_carries_no_algorithm(self):
        with SQLiteStore() as store:
            store.load_graph(_chain_graph())
            pushed = EncodedEvaluator(store, strategy="sql")
            trace = pushed.explain(self._chain_query())
            assert trace.stages and all(stage.algorithm is None for stage in trace.stages)

    def test_statistics_gate_prefers_hash_for_tiny_runs(self):
        # EX.solo has one row while the binding table carries 30 rows:
        # fetching the one-row relation and hashing beats 30 dict probes,
        # and the gate must report the stage as a hash stage
        triples = [Triple(EX[f"s{i}"], EX.wide, EX.hub) for i in range(30)]
        triples.append(Triple(EX.hub, EX.solo, EX.target))
        with MemoryStore() as store:
            store.load_graph(RDFGraph(triples))
            merged = EncodedEvaluator(store, strategy="merge")
            x, y, z = Variable("x"), Variable("y"), Variable("z")
            query = BGPQuery(
                [TriplePattern(x, EX.wide, y), TriplePattern(y, EX.solo, z)],
                head=(x, z),
            )
            trace = merged.explain(query)
            by_description = {
                stage.description: stage.algorithm for stage in trace.stages
            }
            solo_stage = [
                algorithm
                for description, algorithm in by_description.items()
                if "solo" in description
            ]
            assert solo_stage == ["hash"]
            assert len(merged.evaluate(query)) == 30
