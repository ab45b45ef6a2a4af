"""Equivalence and probe-complexity tests for the vectorized hash join.

The property the planned executor hangs on: for every query, on every
backend, in every pattern order, ``strategy="hash"`` answers == the
reference ``Term``-object evaluator's answers — while the hash executor
touches the store O(patterns) times, never once per binding.  A limit is a
property of the same pipeline: whatever the order, the chunking or the
trace, a limit-bounded run answers a subset of the oracle's, of exactly the
size the limit allows.
"""

import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.sample import book_example_graph, figure2_graph
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.triple import Triple, TripleKind
from repro.queries.bgp import BGPQuery, TriplePattern, Variable
from repro.queries.evaluation import evaluate
from repro.queries.generator import generate_rbgp_workload
from repro.service import evaluator as evaluator_module
from repro.service.evaluator import STRATEGIES, EncodedEvaluator
from repro.service.planner import ExecutionTrace
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore


@pytest.fixture(params=[MemoryStore, SQLiteStore], ids=["memory", "sqlite"])
def backend(request):
    return request.param


def _hashed(graph, backend):
    store = backend()
    store.load_graph(graph)
    return EncodedEvaluator(store, strategy="hash")


def _shuffles(query: BGPQuery, seed: int, count: int = 3):
    """The query plus `count` pattern-order permutations of it."""
    rng = random.Random(seed)
    yield query
    for _ in range(count):
        patterns = list(query.patterns)
        rng.shuffle(patterns)
        yield BGPQuery(patterns, head=query.head, name=query.name)


def _repeated_variable_case():
    """A graph with self-loops, and queries repeating a variable in one pattern."""
    graph = RDFGraph(
        [
            Triple(EX.a, EX.p, EX.a),
            Triple(EX.a, EX.p, EX.b),
            Triple(EX.b, EX.p, EX.b),
            Triple(EX.b, EX.q, EX.a),
        ]
    )
    x, y = Variable("x"), Variable("y")
    loop = BGPQuery([TriplePattern(x, EX.p, x)], head=(x,))
    chained = BGPQuery([TriplePattern(x, EX.p, x), TriplePattern(x, EX.q, y)], head=(x, y))
    return graph, (loop, chained)


def _chain_graph():
    """Papers with an author and a venue; authors with an affiliation."""
    triples = []
    for index in range(6):
        author = EX[f"a{index % 3}"]
        paper = EX[f"r{index}"]
        triples.append(Triple(paper, EX.author, author))
        triples.append(Triple(paper, EX.venue, EX[f"v{index % 2}"]))
        triples.append(Triple(author, EX.affiliation, EX[f"u{index % 2}"]))
    return RDFGraph(triples)


class TestStrategies:
    def test_strategies_are_hash_and_sql(self):
        assert STRATEGIES == ("hash", "sql")

    @pytest.mark.parametrize("name", ["zigzag", "nested", "merge"])
    def test_unknown_strategy_rejected(self, name):
        """``nested`` and ``merge`` were strategies once; what is left of
        ``nested`` is an order the one pipeline may walk under a limit."""
        with MemoryStore() as store:
            with pytest.raises(ValueError):
                EncodedEvaluator(store, strategy=name)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stage_traces_name_no_algorithm(self, backend, strategy):
        """One executor with several access paths: a stage is described by
        its pattern (or pushed-down statement), the path it read the store
        by, and its numbers — there is no join-algorithm field."""
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = BGPQuery(
            [TriplePattern(x, EX.author, y), TriplePattern(y, EX.affiliation, z)],
            head=(x, z),
        )
        with backend() as store:
            store.load_graph(_chain_graph())
            trace = EncodedEvaluator(store, strategy=strategy).explain(query)
        pushed_down = strategy == "sql" and backend is SQLiteStore
        # a six-row relation is read whole rather than probed 3+ times
        assert [stage.access for stage in trace.stages] == (
            ["sql"] if pushed_down else ["scan", "hash"]
        )
        assert trace.total_probes == len(trace.stages)
        for stage in trace.stages:
            assert stage.as_dict()["access"] == stage.access
            assert not hasattr(stage, "algorithm")
            assert "algorithm" not in stage.as_dict()


class TestOracleEquivalence:
    """``hash`` answers == the oracle's on every shape and backend."""

    strategy = "hash"

    def _evaluator(self, graph, backend):
        store = backend()
        store.load_graph(graph)
        return EncodedEvaluator(store, strategy=self.strategy)

    def test_generated_workloads_shuffled(self, fig2, bibliography_small, backend):
        for graph, seed in ((fig2, 3), (bibliography_small, 5)):
            evaluator = self._evaluator(graph, backend)
            for query in generate_rbgp_workload(graph, count=8, size=2, seed=seed):
                expected = evaluate(graph, query)
                for variant in _shuffles(query, seed):
                    assert evaluator.evaluate(variant) == expected

    def test_three_pattern_joins(self, bsbm_small, backend):
        evaluator = self._evaluator(bsbm_small, backend)
        for query in generate_rbgp_workload(bsbm_small, count=6, size=3, seed=11):
            expected = evaluate(bsbm_small, query)
            for variant in _shuffles(query, 11):
                assert evaluator.evaluate(variant) == expected

    def test_variable_predicate_join(self, book_graph, backend):
        x, p, y, z = Variable("x"), Variable("p"), Variable("y"), Variable("z")
        query = BGPQuery(
            [TriplePattern(x, p, y), TriplePattern(y, p, z)],
            head=(x, z),
        )
        evaluator = self._evaluator(book_graph, backend)
        expected = evaluate(book_graph, query)
        assert evaluator.evaluate(query) == expected

    def test_repeated_variable_in_pattern(self, backend):
        graph, queries = _repeated_variable_case()
        evaluator = self._evaluator(graph, backend)
        for query in queries:
            expected = evaluate(graph, query)
            assert evaluator.evaluate(query) == expected

    def test_join_after_a_self_loop_pattern(self, backend):
        graph = RDFGraph(
            [Triple(EX.a, EX.p, EX.a), Triple(EX.a, EX.p, EX.b), Triple(EX.b, EX.q, EX.a)]
        )
        x, y = Variable("x"), Variable("y")
        query = BGPQuery([TriplePattern(x, EX.q, y), TriplePattern(y, EX.p, y)], head=(x, y))
        assert self._evaluator(graph, backend).evaluate(query) == evaluate(graph, query)

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
        evaluator = self._evaluator(graph, backend)
        for query in queries:
            expected = evaluate(graph, query)
            assert evaluator.evaluate(query) == expected
            limited = evaluator.evaluate(query, limit=2)
            assert limited <= expected and len(limited) == min(2, len(expected))

    def test_cartesian_product_patterns(self, backend):
        graph = RDFGraph(
            [Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.q, EX.d), Triple(EX.e, EX.q, EX.f)]
        )
        x, y, w, z = Variable("x"), Variable("y"), Variable("w"), Variable("z")
        query = BGPQuery(
            [TriplePattern(x, EX.p, y), TriplePattern(w, EX.q, z)], head=(x, w)
        )
        evaluator = self._evaluator(graph, backend)
        assert evaluator.evaluate(query) == evaluate(graph, query)

    def test_boolean_and_limit_semantics(self, bibliography_small, backend):
        evaluator = self._evaluator(bibliography_small, backend)
        for query in generate_rbgp_workload(bibliography_small, count=4, size=2, seed=9):
            ask = BGPQuery(query.patterns, head=(), name="ask")
            full = evaluator.evaluate(query)
            assert full == evaluate(bibliography_small, query)
            assert evaluator.evaluate(ask) == evaluate(bibliography_small, ask)
            assert evaluator.has_answers(query) == bool(full)
            limited = evaluator.evaluate(query, limit=2)
            assert limited <= full
            assert len(limited) == min(2, len(full))

    def test_fully_ground_queries(self, backend):
        """Zero-variable (ground) queries must answer, not crash (regression:
        `max()` over an empty slot-position list)."""
        graph = RDFGraph([Triple(EX.a, EX.p, EX.b), Triple(EX.b, EX.q, EX.c)])
        evaluator = self._evaluator(graph, backend)
        present = BGPQuery([TriplePattern(EX.a, EX.p, EX.b)])
        ground_join = BGPQuery(
            [TriplePattern(EX.a, EX.p, EX.b), TriplePattern(EX.b, EX.q, EX.c)]
        )
        absent = BGPQuery([TriplePattern(EX.a, EX.q, EX.b)])
        for query, expected in ((present, {()}), (ground_join, {()}), (absent, set())):
            assert evaluator.evaluate(query) == expected
            assert evaluator.evaluate(query, limit=1) == expected
            assert evaluator.has_answers(query) == bool(expected)

    def test_unsatisfiable_joins_are_empty(self, backend):
        graph = RDFGraph(
            [Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.q, EX.d)]
        )
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = BGPQuery(
            [TriplePattern(x, EX.p, y), TriplePattern(y, EX.q, z)], head=(x,)
        )
        evaluator = self._evaluator(graph, backend)
        assert evaluator.evaluate(query) == set()


class TestPushdownEquivalence(TestOracleEquivalence):
    """The same shapes under ``sql``: one pushed-down join on SQLite; on
    the memory backend, or for a pattern spanning tables, the pipeline."""

    strategy = "sql"


class _ProbeCountingStore(MemoryStore):
    """A memory store that counts every lookup a join stage makes of it:
    ``select`` / ``select_many`` (the fetch), ``postings`` (the streamed
    scan) and ``posting_run`` (one per probe chunk)."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def select(self, kind, subject=None, predicate=None, obj=None):
        self.calls["select"] += 1
        return super().select(kind, subject, predicate, obj)

    def select_many(self, kind, subjects=None, predicate=None, objects=None):
        self.calls["select_many"] += 1
        return super().select_many(kind, subjects, predicate, objects)

    def postings(self, kind, subject=None, predicate=None, obj=None):
        self.calls["postings"] += 1
        return super().postings(kind, subject, predicate, obj)

    def posting_run(self, kind, predicate, column):
        self.calls["posting_run"] += 1
        return super().posting_run(kind, predicate, column)

    @property
    def probes(self):
        return sum(self.calls.values())

    def reset(self):
        self.calls.clear()


class TestProbeComplexity:
    def _chain_fixture(self, fan_out: int = 40):
        """A two-hop chain with `fan_out` bindings at the first level."""
        triples = []
        for index in range(fan_out):
            mid = EX.term(f"m{index}")
            triples.append(Triple(EX.term(f"s{index}"), EX.p, mid))
            triples.append(Triple(mid, EX.q, EX.term(f"t{index}")))
        store = _ProbeCountingStore()
        store.load_graph(RDFGraph(triples))
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = BGPQuery(
            [TriplePattern(x, EX.p, y), TriplePattern(y, EX.q, z)], head=(x, z)
        )
        return store, query

    def test_hash_join_issues_o_patterns_probes(self):
        store, query = self._chain_fixture()
        evaluator = EncodedEvaluator(store, strategy="hash")
        evaluator.statistics()  # profile build scans, it does not probe
        store.reset()
        answers = evaluator.evaluate(query)
        assert len(answers) == 40
        # one batched lookup per (pattern, routed table): 2 data patterns
        assert store.probes == len(query.patterns)

    def test_hash_probe_count_immune_to_join_width(self):
        """Three patterns, three probes — per-binding probing is gone."""
        triples = []
        for index in range(25):
            a, b, c = EX.term(f"a{index}"), EX.term(f"b{index}"), EX.term(f"c{index}")
            triples.append(Triple(a, EX.p, b))
            triples.append(Triple(b, EX.q, c))
            triples.append(Triple(c, EX.r, a))
        store = _ProbeCountingStore()
        store.load_graph(RDFGraph(triples))
        w, x, y, z = Variable("w"), Variable("x"), Variable("y"), Variable("z")
        query = BGPQuery(
            [
                TriplePattern(w, EX.p, x),
                TriplePattern(x, EX.q, y),
                TriplePattern(y, EX.r, z),
            ],
            head=(w, z),
        )
        evaluator = EncodedEvaluator(store, strategy="hash")
        evaluator.statistics()
        store.reset()
        assert len(evaluator.evaluate(query)) == 25
        assert store.probes == 3

    def test_trace_reports_probes_and_cardinalities(self):
        store, query = self._chain_fixture()
        evaluator = EncodedEvaluator(store, strategy="hash")
        trace = evaluator.explain(query)
        assert trace.strategy == "hash"
        assert trace.plan_cached is False
        assert trace.total_probes == 2
        assert [stage.produced for stage in trace.stages] == [40, 40]
        assert all(stage.estimate is not None for stage in trace.stages)
        again = evaluator.explain(query)
        assert again.plan_cached is True

    def test_a_traced_run_still_honours_the_limit(self):
        """The trace records what ran — the limit-bounded run, which streams
        one chunk of the first stage's posting range and stops part-way
        through the last stage — not a full join run for its sake."""
        store, query = self._chain_fixture()
        evaluator = EncodedEvaluator(store, strategy="hash")
        full = evaluator.evaluate(query)
        assert len(full) == 40
        store.reset()
        trace = ExecutionTrace()
        limited = evaluator.evaluate(query, limit=7, trace=trace)
        assert len(limited) == 7 and limited <= full
        # (access, positions or rows read, bindings kept, lookups): the scan
        # read the first chunk of 16 of its 40 positions; 16 bindings are
        # too many against the 40-row relation to probe, so it is fetched
        # whole and hash-joined
        assert [
            (stage.access, stage.fetched, stage.produced, stage.probes) for stage in trace.stages
        ] == [("scan", 16, 16, 1), ("hash", 40, 16, 1)]
        assert store.calls == {"postings": 1, "select_many": 1}
        assert trace.total_probes == store.probes


class TestLimitBoundedRuns:
    """A limit never selects an executor: it bounds the walk of the one
    pipeline, in the planner's order or — where ``_prefer_pipelined``
    distrusts it — the most-bound-first one."""

    def test_a_trace_changes_nothing_and_the_walk_stops_at_the_limit(self):
        # 5,100 first-stage bindings: past _prefer_pipelined's 5,000 rows
        store, query = TestProbeComplexity()._chain_fixture(fan_out=5_100)
        evaluator = EncodedEvaluator(store, strategy="hash")
        unlimited = ExecutionTrace()
        full = evaluator.evaluate(query, trace=unlimited)
        assert [(stage.access, stage.produced) for stage in unlimited.stages] == [
            ("scan", 5_100),
            ("hash", 5_100),
        ]

        calls = []
        for trace in (None, ExecutionTrace()):
            store.reset()
            limited = evaluator.evaluate(query, limit=3, trace=trace)
            assert len(limited) == 3 and limited <= full
            calls.append(dict(store.calls))
        untraced, traced = calls
        assert untraced == traced == {"postings": 1, "posting_run": 1}
        # one chunk of 16 positions scanned, its 16 bindings probed (one
        # posting position each), and the walk stopped: nowhere near the
        # 5,100 of the blocking join
        assert [
            (stage.access, stage.fetched, stage.produced, stage.probes) for stage in trace.stages
        ] == [("scan", 16, 16, 1), ("probe", 16, 16, 16)]

    @pytest.fixture(scope="class")
    def oracle_cases(self, bibliography_small, bsbm_small):
        """``(graph, [(query, the oracle's full answers)])``: generated joins
        in two pattern orders, a variable-predicate join, repeated variables."""
        x, p, y, z = Variable("x"), Variable("p"), Variable("y"), Variable("z")
        variable_predicate = BGPQuery(
            [TriplePattern(x, p, y), TriplePattern(y, p, z)], head=(x, z)
        )
        loops, loop_queries = _repeated_variable_case()
        cases = [(book_example_graph(), [variable_predicate]), (loops, list(loop_queries))]
        for graph, size, seed in (
            (figure2_graph(), 2, 3),
            (bibliography_small, 2, 5),
            (bsbm_small, 3, 11),
        ):
            workload = generate_rbgp_workload(graph, count=4, size=size, seed=seed)
            cases.append(
                (graph, [variant for query in workload for variant in _shuffles(query, seed, 1)])
            )
        return [
            (graph, [(query, evaluate(graph, query)) for query in queries])
            for graph, queries in cases
        ]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("most_bound_first", [False, True], ids=["planned", "most-bound"])
    @pytest.mark.parametrize("first_chunk", [1, evaluator_module._FIRST_CHUNK])
    def test_exactly_the_limit_whatever_the_order_chunking_or_trace(
        self, oracle_cases, backend, strategy, most_bound_first, first_chunk, monkeypatch
    ):
        monkeypatch.setattr(
            evaluator_module, "_prefer_pipelined", lambda plan, limit: most_bound_first
        )
        # (from 1, the small fixtures cross chunk boundaries too)
        monkeypatch.setattr(evaluator_module, "_FIRST_CHUNK", first_chunk)
        for graph, queries in oracle_cases:
            store = backend()
            store.load_graph(graph)
            evaluator = EncodedEvaluator(store, strategy=strategy)
            for query, full in queries:
                for limit in sorted({1, 3, max(len(full), 1), len(full) + 1}):
                    for trace in (None, ExecutionTrace()):
                        limited = evaluator.evaluate(query, limit=limit, trace=trace)
                        assert limited <= full
                        assert len(limited) == min(limit, len(full))

    def test_no_rows_under_a_limit_of_zero(self, bibliography_small, backend):
        """At most *limit* rows — so none, traced or not, joined or pushed
        down (regression: the untraced limit path answered one row)."""
        query = generate_rbgp_workload(bibliography_small, count=1, size=2, seed=9)[0]
        store = backend()
        store.load_graph(bibliography_small)
        for strategy in STRATEGIES:
            evaluator = EncodedEvaluator(store, strategy=strategy)
            assert evaluator.evaluate(query)
            for trace in (None, ExecutionTrace()):
                assert evaluator.evaluate(query, limit=0, trace=trace) == set()
                ask = BGPQuery(query.patterns, head=())
                assert evaluator.evaluate(ask, limit=0, trace=trace) == set()


class TestPipelinedExecutor:
    """What is left of the pipelined executor: ``_pipelined_order``, the
    most-bound-first order ``_prefer_pipelined`` may send the pipeline down."""

    def test_matches_the_oracle_on_every_shape(
        self, fig2, bibliography_small, book_graph, backend, monkeypatch
    ):
        """Forced on for every limit-bounded run, with a limit no answer
        set reaches, it must still produce exactly the oracle's answers —
        shuffled joins, variable predicates, repeated variables, ground
        and unsatisfiable queries alike."""
        monkeypatch.setattr(evaluator_module, "_prefer_pipelined", lambda plan, limit: True)
        x, p, y, z = Variable("x"), Variable("p"), Variable("y"), Variable("z")
        variable_predicate = BGPQuery(
            [TriplePattern(x, p, y), TriplePattern(y, p, z)], head=(x, z)
        )
        loops, loop_queries = _repeated_variable_case()
        cases = [(book_graph, [variable_predicate]), (loops, loop_queries)]
        for graph, seed in ((fig2, 3), (bibliography_small, 5)):
            workload = generate_rbgp_workload(graph, count=8, size=2, seed=seed)
            cases.append(
                (graph, [variant for query in workload for variant in _shuffles(query, seed)])
            )
        for graph, queries in cases:
            evaluator = _hashed(graph, backend)
            for query in queries:
                expected = evaluate(graph, query)
                assert evaluator.evaluate(query, limit=10**9) == expected
                ask = BGPQuery(query.patterns, head=())
                assert evaluator.evaluate(ask, limit=1) == ({()} if expected else set())


_NODES = [EX.term(f"n{index}") for index in range(6)]
_PROPERTIES = [EX.term(f"p{index}") for index in range(3)]
_CLASSES = [EX.term(f"C{index}") for index in range(2)]
_VARIABLES = [Variable(name) for name in "xyzw"]


def _position(constants):
    return st.one_of(st.sampled_from(_VARIABLES), st.sampled_from(constants))


_generated_graphs = st.lists(
    st.one_of(
        st.builds(
            Triple, st.sampled_from(_NODES), st.sampled_from(_PROPERTIES), st.sampled_from(_NODES)
        ),
        st.builds(Triple, st.sampled_from(_NODES), st.just(RDF_TYPE), st.sampled_from(_CLASSES)),
    ),
    min_size=1,
    max_size=40,
).map(RDFGraph)


@st.composite
def _generated_queries(draw):
    """BGPs of one to four patterns over four variables: repeated variables,
    variable predicates, constant subjects / objects, and any head —
    boolean ones included."""
    patterns = draw(
        st.lists(
            st.builds(
                TriplePattern,
                _position(_NODES),
                st.one_of(st.sampled_from([*_PROPERTIES, RDF_TYPE]), st.sampled_from(_VARIABLES)),
                _position(_NODES + _CLASSES),
            ),
            min_size=1,
            max_size=4,
        )
    )
    variables = sorted({v for pattern in patterns for v in pattern.variables()}, key=str)
    head = draw(st.lists(st.sampled_from(variables), unique=True)) if variables else []
    return BGPQuery(patterns, head=head)


def _store_in_state(graph, state, split):
    """*graph* in a memory store: bulk-loaded (``bulk``), or its first
    *split* triples adopted as columns — copied arrays (``tails``) or
    ``ColumnView``s over borrowed buffers (``adopted``) — indexed, and the
    rest inserted three at a time, which leaves unmerged run tails."""
    store = MemoryStore()
    if state == "bulk":
        store.load_graph(graph)
        return store
    triples = list(graph)
    base = MemoryStore()
    base.load_graph(RDFGraph(triples[:split]))
    store.dictionary = base.dictionary
    load = store.load_column_bytes if state == "tails" else store.adopt_column_buffers
    for kind in TripleKind:
        _rows, *blobs = base.column_bytes(kind)
        load(kind, *blobs)
        store.count_rows(kind)  # index what was adopted: inserts now go to tails
    for start in range(split, len(triples), 3):
        store.insert_triples(triples[start : start + 3])
    return store


class TestAccessPathsAgainstTheOracle:
    """Scan, probe, hash and exists stages, whichever each chunk takes,
    answer what the ``Term``-level oracle answers: the full answer equal to
    it, a limit-k answer a subset of it of size min(k, |full|) and, in the
    planner's order, the first k rows of the full run — on sorted runs,
    unmerged run tails and adopted columns alike."""

    @settings(max_examples=300, deadline=None)
    @given(
        graph=_generated_graphs,
        query=_generated_queries(),
        state=st.sampled_from(["bulk", "tails", "adopted"]),
        split=st.integers(0, 40),
        first_chunk=st.sampled_from([1, evaluator_module._FIRST_CHUNK]),
        most_bound_first=st.booleans(),
    )
    def test_limited_and_unlimited_walks(
        self, graph, query, state, split, first_chunk, most_bound_first
    ):
        expected = evaluate(graph, query)
        store = _store_in_state(graph, state, min(split, len(graph)))
        evaluator = EncodedEvaluator(store)
        compiled = evaluator.compile(query)
        with patch.object(evaluator_module, "_FIRST_CHUNK", first_chunk), patch.object(
            evaluator_module, "_prefer_pipelined", lambda plan, limit: most_bound_first
        ):
            assert evaluator.evaluate(query) == expected
            in_order = evaluator.evaluate_ids(compiled)
            for limit in (1, 2, 5):
                limited = evaluator.evaluate(query, limit=limit)
                assert limited <= expected
                assert len(limited) == min(limit, len(expected))
                assert evaluator.evaluate(query, limit=limit, trace=ExecutionTrace()) == limited
                if not most_bound_first:
                    # in the planner's order, whatever the chunks and the
                    # paths they took, rows come first-produced in one order
                    assert evaluator.evaluate_ids(compiled, limit) == in_order[:limit]


class TestExistenceStages:
    """A stage none of whose fresh variables is read again keeps each
    binding once, when a match exists; the others extend it."""

    def _fan_out(self):
        """Ten papers, each with one venue and five authors."""
        triples = []
        for index in range(10):
            paper = EX.term(f"r{index}")
            triples.append(Triple(paper, EX.venue, EX.term(f"v{index % 2}")))
            triples.extend(Triple(paper, EX.author, EX.term(f"a{k}")) for k in range(5))
        return RDFGraph(triples)

    def _stages(self, query, limit=None):
        """``(answers, [(access, produced) per stage])`` of one traced run."""
        graph = self._fan_out()
        store = MemoryStore()
        store.load_graph(graph)
        trace = ExecutionTrace()
        answers = EncodedEvaluator(store).evaluate(query, limit=limit, trace=trace)
        expected = evaluate(graph, query)
        assert answers <= expected and len(answers) == min(limit or len(expected), len(expected))
        return answers, [(stage.access, stage.produced) for stage in trace.stages]

    def test_a_dead_fresh_variable_keeps_each_binding_once(self):
        x, y, a = Variable("x"), Variable("y"), Variable("a")
        query = BGPQuery([TriplePattern(x, EX.venue, y), TriplePattern(x, EX.author, a)], head=(x, y))
        answers, stages = self._stages(query)
        assert len(answers) == 10
        # not the 50 (paper, author) rows the join would have produced
        assert stages == [("scan", 10), ("exists", 10)]
        # read by the head, the author is joined in: ten bindings are few
        # against the fifty author rows, so each is probed
        wide = BGPQuery(query.patterns, head=(x, a))
        assert self._stages(wide)[1] == [("scan", 10), ("probe", 50)]

    def test_a_constant_or_a_boolean_head_makes_an_exists_stage(self):
        x, y, a = Variable("x"), Variable("y"), Variable("a")
        by_constant = BGPQuery(
            [TriplePattern(x, EX.venue, y), TriplePattern(x, EX.author, EX.term("a3"))], head=(x,)
        )
        assert self._stages(by_constant) == (
            {(EX.term(f"r{index}"),) for index in range(10)},
            [("scan", 10), ("exists", 10)],
        )
        ask = BGPQuery([TriplePattern(x, EX.venue, y), TriplePattern(x, EX.author, a)])
        assert self._stages(ask, limit=1) == ({()}, [("scan", 10), ("exists", 10)])

    def test_a_small_chunk_probes_the_posting_run(self):
        """Under a limit the first chunk (one venue's binding) is probed in
        the author run, not fetched and hashed."""
        x, a = Variable("x"), Variable("a")
        query = BGPQuery(
            [TriplePattern(x, EX.venue, EX.term("v0")), TriplePattern(x, EX.author, a)],
            head=(x, a),
        )
        answers, stages = self._stages(query, limit=3)
        assert len(answers) == 3
        assert stages == [("scan", 5), ("probe", 25)]


class TestServiceIntegration:
    def test_service_strategies_agree(self, bsbm_small):
        from repro.service.catalog import GraphCatalog
        from repro.service.service import QueryService

        with GraphCatalog() as catalog:
            catalog.register("g", graph=bsbm_small)
            hashed = QueryService(catalog, kind="weak", strategy="hash")
            pushed = QueryService(catalog, kind="weak", strategy="sql")
            for query in generate_rbgp_workload(bsbm_small, count=8, size=2, seed=2):
                a = hashed.answer("g", query)
                b = pushed.answer("g", query)
                assert a.answers == b.answers == evaluate(bsbm_small, query)
                assert a.strategy == "hash" and b.strategy == "sql"

    def test_saturated_path_honours_the_strategy(self, book_graph):
        from repro.service.catalog import GraphCatalog
        from repro.service.service import QueryService

        with GraphCatalog() as catalog:
            entry = catalog.register("b", graph=book_graph)
            sql_ev = entry.evaluator_for("sql", saturated=True)
            assert sql_ev.strategy == "sql"
            assert entry.evaluator_for("sql", saturated=True) is sql_ev
            assert entry.evaluator_for("hash", saturated=True).strategy == "hash"
            with pytest.raises(ValueError):
                entry.evaluator_for("nested", saturated=True)
            x = Variable("x")
            from repro.model.namespaces import RDF_TYPE
            from repro.model.terms import URI

            query = BGPQuery(
                [TriplePattern(x, RDF_TYPE, URI("http://example.org/Publication"))],
                head=(x,),
            )
            a = QueryService(catalog, kind="weak", strategy="sql").answer(
                "b", query, saturated=True
            )
            b = QueryService(catalog, kind="weak", strategy="hash").answer(
                "b", query, saturated=True
            )
            assert a.answers == b.answers and a.answers
            assert a.strategy == "sql" and b.strategy == "hash"

    def test_explain_carries_trace_through_service(self, bsbm_small):
        from repro.service.catalog import GraphCatalog
        from repro.service.service import QueryService

        with GraphCatalog() as catalog:
            catalog.register("g", graph=bsbm_small)
            service = QueryService(catalog, kind="weak")
            for query in generate_rbgp_workload(bsbm_small, count=3, size=2, seed=4):
                answer = service.answer("g", query, explain=True)
                if not answer.pruned:
                    assert answer.trace is not None
                    assert answer.trace.strategy == "hash"
                    assert len(answer.trace.stages) == len(query.patterns)
                    break
            else:
                pytest.fail("no unpruned query in the sample")
