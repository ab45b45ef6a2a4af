"""Tests for the statistics-driven query planner (`repro.service.planner`)."""

import pytest

from repro import telemetry
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.triple import Triple, TripleKind
from repro.queries.bgp import BGPQuery, TriplePattern, Variable
from repro.service.evaluator import compile_query
from repro.service.planner import ExecutionTrace, QueryPlanner, plan_shape
from repro.service.statistics import CardinalityStatistics
from repro.store.memory import MemoryStore


def _skewed_store():
    """`p` is broad (9 rows), `q` is rare (1 row), class C2 is tiny."""
    triples = []
    for index in range(9):
        triples.append(Triple(EX.term(f"s{index}"), EX.p, EX.term(f"o{index}")))
        triples.append(Triple(EX.term(f"s{index}"), RDF_TYPE, EX.C1))
    triples.append(Triple(EX.term("s0"), EX.q, EX.term("o0")))
    triples.append(Triple(EX.term("s0"), RDF_TYPE, EX.C2))
    store = MemoryStore()
    store.load_graph(RDFGraph(triples))
    return store


@pytest.fixture
def cache_traffic():
    """``() -> (hits, misses, evictions)``: the registry's
    ``planner.cache.*`` counts since the test began."""
    counters = [
        telemetry.counter(f"planner.cache.{name}") for name in ("hits", "misses", "evictions")
    ]
    start = [counter.value for counter in counters]
    return lambda: tuple(int(counter.value - base) for counter, base in zip(counters, start))


@pytest.fixture
def planner_and_store():
    store = _skewed_store()
    return QueryPlanner(CardinalityStatistics.from_store(store)), store


class TestEstimates:
    def test_unbound_pattern_estimates_predicate_rows(self, planner_and_store):
        planner, store = planner_and_store
        x, y = Variable("x"), Variable("y")
        compiled = compile_query(
            BGPQuery([TriplePattern(x, EX.p, y)], head=(x,)), store.dictionary
        )
        assert planner.estimate_pattern(compiled.patterns[0], set()) == pytest.approx(9.0)

    def test_bound_subject_divides_by_distinct_subjects(self, planner_and_store):
        planner, store = planner_and_store
        x, y = Variable("x"), Variable("y")
        compiled = compile_query(
            BGPQuery([TriplePattern(x, EX.p, y)], head=(x,)), store.dictionary
        )
        # 9 rows / 9 distinct subjects = 1 expected row per bound subject
        bound = {0}  # x occupies slot 0
        assert planner.estimate_pattern(compiled.patterns[0], bound) == pytest.approx(1.0)

    def test_type_pattern_uses_class_membership(self, planner_and_store):
        planner, store = planner_and_store
        x = Variable("x")
        rare = compile_query(
            BGPQuery([TriplePattern(x, RDF_TYPE, EX.C2)], head=(x,)), store.dictionary
        )
        common = compile_query(
            BGPQuery([TriplePattern(x, RDF_TYPE, EX.C1)], head=(x,)), store.dictionary
        )
        assert planner.estimate_pattern(rare.patterns[0], set()) == pytest.approx(1.0)
        assert planner.estimate_pattern(common.patterns[0], set()) == pytest.approx(9.0)

    def test_absent_predicate_estimates_zero(self, planner_and_store):
        planner, store = planner_and_store
        store.dictionary.encode(EX.never_used)  # known term, no rows
        x, y = Variable("x"), Variable("y")
        compiled = compile_query(
            BGPQuery([TriplePattern(x, EX.never_used, y)], head=(x,)), store.dictionary
        )
        assert planner.estimate_pattern(compiled.patterns[0], set()) == 0.0

    def test_variable_predicate_sums_all_tables(self, planner_and_store):
        planner, store = planner_and_store
        x, p, y = Variable("x"), Variable("p"), Variable("y")
        compiled = compile_query(
            BGPQuery([TriplePattern(x, p, y)], head=(p,)), store.dictionary
        )
        total = planner.statistics.total_rows
        assert planner.estimate_pattern(compiled.patterns[0], set()) == pytest.approx(total)


class TestOrdering:
    def test_selective_pattern_goes_first(self, planner_and_store):
        """The rare class drives the join, whatever the syntactic order —
        the statistic the greedy bound-count order cannot see."""
        planner, store = planner_and_store
        x, y = Variable("x"), Variable("y")
        query = BGPQuery(
            [
                TriplePattern(x, EX.p, y),  # 9 rows
                TriplePattern(x, RDF_TYPE, EX.C2),  # 1 row
            ],
            head=(x,),
        )
        compiled = compile_query(query, store.dictionary)
        plan = planner.plan(compiled)
        assert plan.order == [1, 0]
        assert plan.stages[0].estimate == pytest.approx(1.0)

    def test_plan_is_deterministic_on_ties(self, planner_and_store):
        planner, store = planner_and_store
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = BGPQuery(
            [TriplePattern(x, EX.p, y), TriplePattern(x, EX.p, z)], head=(x,)
        )
        compiled = compile_query(query, store.dictionary)
        assert planner.plan(compiled).order == planner.plan(compiled).order


class TestPlanCache:
    def test_repeated_shape_hits_the_cache(self, planner_and_store, cache_traffic):
        planner, store = planner_and_store
        x, y = Variable("x"), Variable("y")
        query = BGPQuery([TriplePattern(x, EX.p, y)], head=(x,))
        first = planner.plan(compile_query(query, store.dictionary))
        assert cache_traffic()[:2] == (0, 1)
        second = planner.plan(compile_query(query, store.dictionary))
        assert second is first
        assert cache_traffic()[:2] == (1, 1)

    def test_each_trace_keeps_its_own_outcome(self, planner_and_store):
        """The hit/miss of a ``plan`` call is recorded on the trace handed
        to that call — the planner is shared by every executor thread, so
        an attribute on it would report whichever query planned last."""
        planner, store = planner_and_store
        x, y = Variable("x"), Variable("y")
        compiled = compile_query(BGPQuery([TriplePattern(x, EX.p, y)], head=(x,)), store.dictionary)
        other = compile_query(BGPQuery([TriplePattern(x, EX.q, y)], head=(x,)), store.dictionary)
        missed, hit, missed_after = ExecutionTrace(), ExecutionTrace(), ExecutionTrace()
        planner.plan(compiled, missed)
        planner.plan(compiled, hit)
        planner.plan(other, missed_after)  # a later miss must not rewrite the hit
        assert (missed.plan_cached, hit.plan_cached, missed_after.plan_cached) == (
            False,
            True,
            False,
        )
        assert not hasattr(planner, "last_was_hit")

    def test_a_shape_is_recosted_once_the_store_has_doubled(self, planner_and_store, cache_traffic):
        """Plans outlive ingests (the estimates read the live profile) until
        the store holds twice the rows the plan was costed on."""
        planner, store = planner_and_store
        x, y = Variable("x"), Variable("y")
        compiled = compile_query(BGPQuery([TriplePattern(x, EX.p, y)], head=(x,)), store.dictionary)
        first = planner.plan(compiled)
        rows = len(store)

        def grow(count, tag):
            fresh = store.insert_triples(
                [Triple(EX.term(f"{tag}{i}"), EX.p, EX.term(f"{tag}o{i}")) for i in range(count)],
                skip_existing=True,
            )
            planner.statistics.ingest_rows(fresh)

        grow(rows - 1, "a")  # one row short of double
        assert planner.plan(compiled) is first
        assert cache_traffic()[:2] == (1, 1)
        grow(1, "b")  # doubled
        recosted = planner.plan(compiled)
        assert recosted is not first
        assert recosted.stages[0].estimate == pytest.approx(9.0 + rows)
        assert cache_traffic()[:2] == (1, 2)
        assert planner.plan(compiled) is recosted  # and cached again, at the new size

    def test_different_constants_are_different_shapes(self, planner_and_store, cache_traffic):
        planner, store = planner_and_store
        x, y = Variable("x"), Variable("y")
        planner.plan(compile_query(BGPQuery([TriplePattern(x, EX.p, y)], head=(x,)), store.dictionary))
        planner.plan(compile_query(BGPQuery([TriplePattern(x, EX.q, y)], head=(x,)), store.dictionary))
        assert cache_traffic()[:2] == (0, 2)

    def test_limit_bounded_evaluation_plans_exactly_once(self, planner_and_store, cache_traffic):
        """The limit path must not double-count planner cache traffic
        (regression: _prefer_pipelined planned the shape a second time)."""
        from repro.service.evaluator import EncodedEvaluator

        planner, store = planner_and_store
        evaluator = EncodedEvaluator(store, strategy="hash", planner=planner)
        x, y = Variable("x"), Variable("y")
        query = BGPQuery([TriplePattern(x, EX.p, y)], head=(x,))
        evaluator.evaluate(query, limit=2)
        assert cache_traffic()[:2] == (0, 1)
        evaluator.evaluate(query, limit=2)
        assert cache_traffic()[:2] == (1, 1)

    def test_shape_ignores_variable_names(self, planner_and_store):
        planner, store = planner_and_store
        a, b = Variable("alpha"), Variable("beta")
        x, y = Variable("x"), Variable("y")
        one = compile_query(BGPQuery([TriplePattern(a, EX.p, b)], head=(a,)), store.dictionary)
        two = compile_query(BGPQuery([TriplePattern(x, EX.p, y)], head=(x,)), store.dictionary)
        assert plan_shape(one) == plan_shape(two)


class TestPlanCacheBound:
    """The plan cache is a bounded LRU — a long-lived server facing
    adversarially diverse query shapes must not leak one plan per shape."""

    def _shape(self, store, index):
        """A compiled query whose shape is distinct per *index* (constants
        are part of the shape key)."""
        x = Variable("x")
        constant = EX.term(f"shape-const-{index}")
        store.dictionary.encode(constant)
        return compile_query(
            BGPQuery([TriplePattern(x, EX.p, constant)], head=(x,)), store.dictionary
        )

    def test_cap_is_enforced(self, planner_and_store, cache_traffic):
        _planner, store = planner_and_store
        planner = QueryPlanner(
            CardinalityStatistics.from_store(store), plan_cache_cap=4
        )
        for index in range(10):
            planner.plan(self._shape(store, index))
        assert planner.cached_plan_count == 4
        assert cache_traffic() == (0, 10, 6)

    def test_evicted_shape_replans_as_a_miss(self, planner_and_store, cache_traffic):
        _planner, store = planner_and_store
        planner = QueryPlanner(CardinalityStatistics.from_store(store), plan_cache_cap=2)
        first = self._shape(store, 0)
        planner.plan(first)
        planner.plan(self._shape(store, 1))
        planner.plan(self._shape(store, 2))  # evicts shape 0
        assert cache_traffic()[2] == 1
        planner.plan(first)
        assert cache_traffic()[:2] == (0, 4)

    def test_recent_use_protects_against_eviction(self, planner_and_store, cache_traffic):
        _planner, store = planner_and_store
        planner = QueryPlanner(CardinalityStatistics.from_store(store), plan_cache_cap=2)
        first = self._shape(store, 0)
        planner.plan(first)
        planner.plan(self._shape(store, 1))
        planner.plan(first)  # touch: shape 1 is now the oldest
        planner.plan(self._shape(store, 2))  # evicts shape 1, not shape 0
        planner.plan(first)
        hits, _misses, evictions = cache_traffic()
        assert hits == 2  # both re-uses of shape 0 hit
        assert evictions == 1

    def test_hits_plus_misses_count_every_arrival(self, planner_and_store, cache_traffic):
        _planner, store = planner_and_store
        planner = QueryPlanner(CardinalityStatistics.from_store(store), plan_cache_cap=3)
        arrivals = 0
        for round_index in range(3):
            for index in range(5):
                planner.plan(self._shape(store, index))
                arrivals += 1
        hits, misses, _evictions = cache_traffic()
        assert hits + misses == arrivals

    def test_invalid_cap_rejected(self, planner_and_store):
        _planner, store = planner_and_store
        with pytest.raises(ValueError):
            QueryPlanner(CardinalityStatistics.from_store(store), plan_cache_cap=0)

    def test_default_cap_is_exposed(self, planner_and_store):
        from repro.service.planner import DEFAULT_PLAN_CACHE_CAP

        planner, _store = planner_and_store
        assert planner.plan_cache_cap == DEFAULT_PLAN_CACHE_CAP > 0
