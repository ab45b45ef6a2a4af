"""Statistics-driven join planning for the encoded BGP evaluator.

Ordering patterns greedily by *bound position count* is a purely syntactic
criterion that knows nothing about the data.  This module orders them with
textbook cost-based ordering over the
:class:`~repro.service.statistics.CardinalityStatistics` profile of the
store:

* the *cardinality estimate* of a pattern given the already-bound variable
  slots is the row count of the pattern's property (or table, for a
  variable property), divided by the distinct-value count of every column a
  constant or bound variable pins down — the classic uniform-distribution
  selectivity formula (`rows(p) / V(column, p)`), with class-membership
  counts sharpening ``rdf:type`` patterns;
* the *plan* orders patterns greedily by that estimate: at every step the
  remaining pattern with the smallest estimated output joins next, so the
  intermediate binding tables the vectorized executor materializes stay as
  small as the statistics can make them;
* plans are cached per *query shape* — the tuple of compiled integer
  patterns — so a repeated workload query costs one dictionary lookup, not
  a planning pass.  The planner lives as long as the store it plans for:
  the statistics underneath are updated in place by every ingest, so a
  fresh plan always reads live numbers, and a cached one is re-costed once
  the store has doubled since it was costed (``_REPLAN_GROWTH``) — a join
  order is only as good as the cardinalities it was chosen on.

Pessimistic (upper-bound) join-size reasoning in the spirit of the
Sidorenko-style bounds (see PAPERS.md) is approximated here by clamping
every division at one row: an estimate never drops below the certainty
that a matching row, if any, costs at least one probe.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.model.triple import TripleKind
from repro.service.statistics import CardinalityStatistics
from repro.telemetry import Counter
from repro.utils.concurrency import named_lock

__all__ = [
    "DEFAULT_PLAN_CACHE_CAP",
    "PatternEstimate",
    "QueryPlan",
    "QueryPlanner",
    "ExecutionTrace",
    "StageTrace",
]

#: Default bound of the per-planner plan cache.  Plans are tiny, but a
#: long-lived server facing adversarially diverse query shapes must not
#: grow an unbounded dict; 512 covers every realistic repeated workload.
DEFAULT_PLAN_CACHE_CAP = 512

#: A cached plan is re-costed (an ordinary miss) once the store holds this
#: many times the rows it held when the plan was costed.  Order affects
#: cost, never answers, so anything short of that keeps the cached order.
_REPLAN_GROWTH = 2


class PatternEstimate:
    """One planned stage: a pattern index plus its cardinality estimates."""

    __slots__ = ("pattern_index", "estimate", "cumulative")

    def __init__(self, pattern_index: int, estimate: float, cumulative: float):
        #: Index of the pattern in the compiled query's original order.
        self.pattern_index = pattern_index
        #: Estimated matching rows for the pattern given the bound slots.
        self.estimate = estimate
        #: Estimated binding-table size after this stage joins.
        self.cumulative = cumulative

    def __repr__(self):
        return (
            f"PatternEstimate(#{self.pattern_index}, est={self.estimate:.1f}, "
            f"cum={self.cumulative:.1f})"
        )


class QueryPlan:
    """An ordered execution plan for one compiled query shape."""

    __slots__ = ("stages", "shape")

    def __init__(self, stages: Sequence[PatternEstimate], shape: Tuple):
        self.stages = list(stages)
        self.shape = shape

    @property
    def order(self) -> List[int]:
        """Pattern indices in execution order."""
        return [stage.pattern_index for stage in self.stages]

    def __repr__(self):
        return f"<QueryPlan {self.order}>"


def plan_shape(compiled) -> Tuple:
    """The cache key of a compiled query: its integer patterns.

    Two queries over the same store that lower to the same constants, the
    same variable slots and the same table routing are the same planning
    problem, whatever their surface syntax.
    """
    return tuple(
        (pattern.subject, pattern.predicate, pattern.object, pattern.tables)
        for pattern in compiled.patterns
    )


class QueryPlanner:
    """Cost-based pattern ordering with a bounded, shape-keyed plan cache.

    The cache is an LRU bounded by *plan_cache_cap*: a long-lived server
    answering adversarially diverse query shapes re-plans cold shapes
    instead of leaking one cached plan per shape ever seen.  A re-planned
    evicted shape counts as an ordinary miss (and the eviction itself is
    tallied in ``cache_evictions``), as does a shape re-costed because the
    store outgrew its plan (``_REPLAN_GROWTH``), so the hit/miss
    counters stay exact arrival statistics whatever the cap.  The cache is
    guarded by a lock — one planner is shared by every executor thread of
    a catalog entry.
    """

    def __init__(
        self,
        statistics: CardinalityStatistics,
        plan_cache_cap: int = DEFAULT_PLAN_CACHE_CAP,
    ):
        if plan_cache_cap <= 0:
            raise ValueError("plan_cache_cap must be positive")
        self.statistics = statistics
        self.plan_cache_cap = plan_cache_cap
        #: LRU plan cache (shape → (store rows when costed, plan));
        #: guarded by self._cache_lock
        self._plans: "OrderedDict[Tuple, Tuple[int, QueryPlan]]" = OrderedDict()
        self._cache_lock = named_lock("planner.cache_lock")
        # per-planner children of the process-wide ``planner.cache.*``
        # registry family: the instance counts stay exact (tests and
        # benchmarks assert them on fresh planners) while the same inc()
        # advances the shared metric
        self._cache_hits = Counter("hits", parent=telemetry.counter("planner.cache.hits"))
        self._cache_misses = Counter(
            "misses", parent=telemetry.counter("planner.cache.misses")
        )
        self._cache_evictions = Counter(
            "evictions", parent=telemetry.counter("planner.cache.evictions")
        )

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.int_value

    @property
    def cache_misses(self) -> int:
        return self._cache_misses.int_value

    @property
    def cache_evictions(self) -> int:
        return self._cache_evictions.int_value

    @property
    def cached_plan_count(self) -> int:
        """Number of plans currently held (never exceeds the cap)."""
        with self._cache_lock:
            return len(self._plans)

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def estimate_pattern(self, pattern, bound_slots: Set[int]) -> float:
        """Estimated rows matching *pattern* given the bound variable slots.

        Sums the per-table estimates over the tables the pattern routes to
        (more than one only for variable-property patterns).
        """
        return sum(
            self._estimate_for_table(pattern, bound_slots, kind) for kind in pattern.tables
        )

    def _estimate_for_table(self, pattern, bound_slots: Set[int], kind: TripleKind) -> float:
        statistics = self.statistics
        s_spec, p_spec, o_spec = pattern.subject, pattern.predicate, pattern.object
        subject_pinned = s_spec >= 0 or (-s_spec - 1) in bound_slots
        object_const = o_spec >= 0
        object_pinned = object_const or (-o_spec - 1) in bound_slots

        if p_spec >= 0:
            profile = statistics.predicate(kind, p_spec)
            if profile is None:
                return 0.0
            base = float(profile.rows)
            distinct_subjects = profile.distinct_subjects
            distinct_objects = profile.distinct_objects
        else:
            base = float(statistics.table_rows(kind))
            if base == 0.0:
                return 0.0
            distinct_subjects = statistics.distinct_subjects(kind)
            distinct_objects = statistics.distinct_objects(kind)
            if (-p_spec - 1) in bound_slots:
                base /= max(1, statistics.distinct_predicates(kind))

        if object_const and kind is TripleKind.TYPE:
            # class-membership counts are exact for `?x rdf:type C`
            base = float(statistics.class_count(o_spec))
            if base == 0.0:
                return 0.0
        elif object_pinned:
            base /= max(1, distinct_objects)
        if subject_pinned:
            base /= max(1, distinct_subjects)
        return max(base, 1.0)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, compiled, trace: Optional["ExecutionTrace"] = None) -> QueryPlan:
        """The execution plan for *compiled*, cached per query shape (LRU).

        A *trace* is told whether its plan came from the cache
        (``plan_cached``) — per call, so concurrent queries sharing the
        planner never read each other's outcome.
        """
        shape = plan_shape(compiled)
        store_rows = self.statistics.total_rows
        with self._cache_lock:
            # a shape never planned reads as costed on 0 rows: never a hit
            costed_rows, plan = self._plans.get(shape, (0, None))
            hit = store_rows < _REPLAN_GROWTH * costed_rows
            if hit:
                self._plans.move_to_end(shape)
                self._cache_hits.inc()
            else:
                self._cache_misses.inc()
        if trace is not None:
            trace.plan_cached = hit
        if hit:
            return plan
        plan = self._build_plan(compiled, shape)
        with self._cache_lock:
            # (at least one row: a plan costed on an empty store is kept
            # until there is something to re-cost it on)
            self._plans[shape] = (max(store_rows, 1), plan)
            self._plans.move_to_end(shape)
            while len(self._plans) > self.plan_cache_cap:
                self._plans.popitem(last=False)
                self._cache_evictions.inc()
        return plan

    def _build_plan(self, compiled, shape: Tuple) -> QueryPlan:
        remaining = list(range(len(compiled.patterns)))
        bound: Set[int] = set()
        stages: List[PatternEstimate] = []
        cumulative = 1.0
        while remaining:
            best_index: Optional[int] = None
            best_estimate = float("inf")
            for index in remaining:
                estimate = self.estimate_pattern(compiled.patterns[index], bound)
                # strict < keeps ties on the earliest pattern: deterministic
                # plans for equal statistics
                if estimate < best_estimate:
                    best_index, best_estimate = index, estimate
            assert best_index is not None
            remaining.remove(best_index)
            pattern = compiled.patterns[best_index]
            cumulative *= max(best_estimate, 1.0)
            stages.append(PatternEstimate(best_index, best_estimate, cumulative))
            bound |= pattern.slots()
        return QueryPlan(stages, shape)

    def __repr__(self):
        return (
            f"QueryPlanner(plans={self.cached_plan_count}/{self.plan_cache_cap}, "
            f"hits={self.cache_hits}, misses={self.cache_misses}, "
            f"evictions={self.cache_evictions})"
        )


class StageTrace:
    """Observed execution of one plan stage (``--explain`` output).

    A limit-bounded run sends the binding table through a stage one chunk
    at a time and stops when it has its answers: ``fetched``, ``produced``
    and ``probes`` accumulate over the chunks that reached the stage, so
    they describe the work that was done — which the estimates, made for
    the whole join, then overshoot.
    """

    __slots__ = (
        "description",
        "pattern_index",
        "estimate",
        "cumulative_estimate",
        "fetched",
        "produced",
        "probes",
    )

    def __init__(
        self,
        description: Optional[str],
        estimate: Optional[float],
        cumulative_estimate: Optional[float],
        fetched: Optional[int],
        produced: Optional[int],
        probes: int,
        pattern_index: Optional[int] = None,
    ):
        #: ``?s <p> ?o`` — ``None`` until the stage, recorded by
        #: *pattern_index* on integers alone, is rendered against a
        #: dictionary (:func:`repro.service.evaluator.describe_stages`).
        self.description = description
        self.pattern_index = pattern_index
        self.estimate = estimate
        self.cumulative_estimate = cumulative_estimate
        #: Rows fetched from the store for this stage (None for a
        #: pushed-down SQL join, which has no per-stage fetch).
        self.fetched = fetched
        #: Binding-table rows that left this stage.
        self.produced = produced
        self.probes = probes

    def as_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.description,
            "estimated_rows": self.estimate,
            "estimated_cumulative": self.cumulative_estimate,
            "fetched_rows": self.fetched,
            "produced_rows": self.produced,
            "probes": self.probes,
        }


class ExecutionTrace:
    """What one evaluation actually did: plan, cardinalities, probes.

    Filled in by :meth:`EncodedEvaluator.evaluate` when passed as its
    ``trace`` argument; rendered by ``repro query --explain``.
    """

    __slots__ = ("strategy", "plan_cached", "stages")

    def __init__(self):
        self.strategy: Optional[str] = None
        self.plan_cached: Optional[bool] = None
        self.stages: List[StageTrace] = []

    @property
    def total_probes(self) -> int:
        return sum(stage.probes for stage in self.stages)

    def add_stage(
        self,
        description: Optional[str],
        estimate: Optional[float] = None,
        cumulative_estimate: Optional[float] = None,
        fetched: Optional[int] = None,
        produced: Optional[int] = None,
        probes: int = 0,
        pattern_index: Optional[int] = None,
    ) -> None:
        self.stages.append(
            StageTrace(
                description, estimate, cumulative_estimate, fetched, produced, probes, pattern_index
            )
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "plan_cached": self.plan_cached,
            "total_probes": self.total_probes,
            "stages": [stage.as_dict() for stage in self.stages],
        }
