"""Encoded BGP evaluation over a :class:`~repro.store.base.TripleStore`.

The paper's prototype answers queries where the data lives: dictionary-
encoded integer triples in relational tables (Section 6).  This module
brings BGP evaluation to that substrate with three interchangeable join
strategies over the same compiled form:

* ``strategy="hash"`` (default) — a *vectorized hash join*: the
  :class:`~repro.service.planner.QueryPlanner` orders the patterns by
  estimated cardinality, and each pattern's candidate rows are fetched
  **once** with a batched :meth:`TripleStore.select_many` (posting lists in
  the memory store, chunked SQL ``IN (...)`` on SQLite), then hash-joined
  against the integer binding table.  The executor issues O(patterns)
  store lookups per query — never one probe per intermediate binding.
* ``strategy="sql"`` — whole-join pushdown: the compiled BGP becomes one
  ``SELECT DISTINCT`` over aliased table occurrences and the backend's C
  engine runs the entire join (SQLite releases the GIL for its duration —
  the strategy the concurrent server scales on).  Stores without a SQL
  engine, and variable-property patterns, silently fall back to ``hash``;
  answer sets are identical either way.
* ``strategy="merge"`` — the ``hash`` pipeline, with eligible stages
  answered straight out of the columnar store's sorted posting runs (one
  probe of the run's key directory per binding) instead of a fetch + hash
  build.

A ``limit``-bounded evaluation whose plan predicts intermediate binding
tables far beyond what the limit can consume is run by a private
*pipelined* executor instead (:meth:`EncodedEvaluator._iter_pipelined`, an
index-nested-loop that stops at the limit) — a plan choice made from the
statistics, not a strategy a caller can select.

Compilation (:func:`compile_query`) lowers a :class:`BGPQuery` to term ids
through the store dictionary once, up front.  A constant that fails to
encode — a URI or literal the store has never seen — proves the query empty
on this store before any row is touched; the compiled form records the
missing term and evaluation returns immediately.  This is the cheapest of
the service's pruning levels and needs no summary at all.

Routing exploits the three-table layout: a pattern whose property is
``rdf:type`` only ever matches the type table, a pattern carrying one of the
four RDFS constraint properties only the schema table, every other constant
property only the data table.  Patterns with a variable property (legal in
general BGP, excluded from RBGP) chain all three tables.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from time import perf_counter

from repro import telemetry
from repro.errors import UnknownTermError
from repro.model.dictionary import Dictionary
from repro.model.namespaces import is_schema_property, is_type_property
from repro.model.terms import Term
from repro.model.triple import TripleKind
from repro.queries.bgp import BGPQuery, Variable
from repro.service.planner import ExecutionTrace, QueryPlan, QueryPlanner
from repro.service.statistics import CardinalityStatistics
from repro.store.base import TripleStore

__all__ = [
    "CompiledPattern",
    "CompiledQuery",
    "EncodedEvaluator",
    "compile_query",
    "STRATEGIES",
]

_ALL_TABLES = (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA)

#: The join strategies the evaluator can run.  ``hash`` is the Python-side
#: executor; ``sql`` compiles the whole BGP into one
#: relational join statement and lets the backend's C engine run it (only
#: stores advertising ``supports_sql_join`` — the SQLite backend — can;
#: everything else silently falls back to ``hash``).  The ``sql`` strategy
#: is what makes a multi-threaded server scale: the join holds no Python
#: bytecode, so the GIL is released for its whole duration.  ``merge``
#: runs the same planned pipeline as ``hash`` but answers eligible stages
#: out of the store's sorted ``(p, s)`` / ``(p, o)`` posting runs
#: (columnar memory store only) instead of
#: fetching + hashing the relation; statistics pick merge or hash per
#: stage, and ineligible stages fall back to the hash fetch, so answer
#: sets are identical across all three strategies.
STRATEGIES = ("hash", "sql", "merge")


class CompiledPattern:
    """One triple pattern lowered to integers.

    Each position is a term id (``>= 0``) for a constant, or ``-(slot + 1)``
    for the variable assigned to binding *slot* — the sign carries the
    var/constant distinction without boxing, keeping the inner join loop on
    plain ``int`` comparisons.
    """

    __slots__ = ("subject", "predicate", "object", "tables")

    def __init__(self, subject: int, predicate: int, obj: int, tables: Tuple[TripleKind, ...]):
        self.subject = subject
        self.predicate = predicate
        self.object = obj
        self.tables = tables

    def bound_count(self, bound_slots: Set[int]) -> int:
        """Positions that are constants or already-bound variables."""
        count = 0
        for spec in (self.subject, self.predicate, self.object):
            if spec >= 0 or -spec - 1 in bound_slots:
                count += 1
        return count

    def slots(self) -> Set[int]:
        """The variable slots occurring in the pattern."""
        return {-spec - 1 for spec in (self.subject, self.predicate, self.object) if spec < 0}

    def __repr__(self):
        return f"CompiledPattern({self.subject}, {self.predicate}, {self.object})"


class CompiledQuery:
    """A :class:`BGPQuery` lowered against one store dictionary.

    ``unsatisfiable_term`` is the first constant of the query that the
    dictionary does not know, when there is one — the *dictionary miss* fast
    path: such a query has no answer on the store, whatever the data says.
    A compiled query is only valid against the dictionary it was compiled
    with (ids are store-local).  ``slot_names`` maps binding slots back to
    the variable names that fill them (used by plan explanations).
    """

    __slots__ = (
        "query",
        "patterns",
        "head_slots",
        "variable_count",
        "unsatisfiable_term",
        "slot_names",
    )

    def __init__(
        self,
        query: BGPQuery,
        patterns: Sequence[CompiledPattern],
        head_slots: Tuple[int, ...],
        variable_count: int,
        unsatisfiable_term: Optional[Term] = None,
        slot_names: Tuple[str, ...] = (),
    ):
        self.query = query
        self.patterns = list(patterns)
        self.head_slots = head_slots
        self.variable_count = variable_count
        self.unsatisfiable_term = unsatisfiable_term
        self.slot_names = slot_names

    @property
    def trivially_empty(self) -> bool:
        """``True`` when a constant failed to encode (instant empty answer)."""
        return self.unsatisfiable_term is not None

    def __repr__(self):
        state = f"empty: {self.unsatisfiable_term!r}" if self.trivially_empty else "ready"
        return f"<CompiledQuery {len(self.patterns)} patterns, {state}>"


def _tables_for(predicate) -> Tuple[TripleKind, ...]:
    """The store tables a pattern with this property term can match."""
    if isinstance(predicate, Variable):
        return _ALL_TABLES
    if is_type_property(predicate):
        return (TripleKind.TYPE,)
    if is_schema_property(predicate):
        return (TripleKind.SCHEMA,)
    return (TripleKind.DATA,)


def compile_query(query: BGPQuery, dictionary: Dictionary) -> CompiledQuery:
    """Lower *query* to term ids via *dictionary* (constants encoded once)."""
    slot_of: Dict[str, int] = {}

    def slot(variable: Variable) -> int:
        return slot_of.setdefault(variable.name, len(slot_of))

    patterns: List[CompiledPattern] = []
    missing: Optional[Term] = None
    for pattern in query.patterns:
        specs: List[int] = []
        for term in pattern:
            if isinstance(term, Variable):
                specs.append(-(slot(term) + 1))
            elif missing is None:
                try:
                    specs.append(dictionary.encode_existing(term))
                except UnknownTermError:
                    missing = term
                    specs.append(0)
            else:
                specs.append(0)
        patterns.append(CompiledPattern(specs[0], specs[1], specs[2], _tables_for(pattern.predicate)))
    head_slots = tuple(slot(variable) for variable in query.head)
    slot_names = tuple(sorted(slot_of, key=slot_of.get))
    if missing is not None:
        return CompiledQuery(
            query, (), head_slots, len(slot_of), unsatisfiable_term=missing, slot_names=slot_names
        )
    return CompiledQuery(query, patterns, head_slots, len(slot_of), slot_names=slot_names)


def _pipelined_order(patterns: Sequence[CompiledPattern]) -> List[CompiledPattern]:
    """Greedy join ordering: repeatedly pick the most-bound remaining pattern.

    The statistics-free ordering of the pipelined executor
    (:meth:`EncodedEvaluator._iter_pipelined`): every probe after the first
    is an index lookup on at least one bound position.  Blocking
    evaluation orders through the :class:`QueryPlanner` instead.
    """
    remaining = list(patterns)
    ordered: List[CompiledPattern] = []
    bound: Set[int] = set()
    while remaining:
        best = max(remaining, key=lambda p: (p.bound_count(bound), -len(p.slots())))
        ordered.append(best)
        remaining.remove(best)
        bound |= best.slots()
    return ordered


class EncodedEvaluator:
    """BGP evaluation over the encoded rows of one :class:`TripleStore`.

    Parameters
    ----------
    store:
        The encoded triple store to evaluate against.
    strategy:
        ``"hash"`` (planned, vectorized — the default), ``"sql"``
        (whole-join pushdown where the backend supports it) or ``"merge"``
        (sorted-run merge joins where the store exposes them).  Answer
        sets are identical; only the access pattern differs.
    planner:
        The :class:`QueryPlanner` to draw plans (and, through it, the
        cardinality profile) from — the serving layer hands every evaluator
        of a store the same one.  By default one is built over a fresh
        profile of the store on first planned evaluation and kept for the
        evaluator's lifetime (its plan cache makes repeated query shapes
        plan-free).
    """

    def __init__(
        self,
        store: TripleStore,
        strategy: str = "hash",
        planner: Optional[QueryPlanner] = None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r} (choose from {STRATEGIES})")
        self.store = store
        self.strategy = strategy
        self._planner = planner
        # join-stage telemetry, captured once: when the plane is disabled
        # the flag skips even the per-stage clock reads
        self._instrument_joins = telemetry.enabled()
        self._join_seconds = telemetry.histogram("join.stage.seconds")
        self._join_stages_hash = telemetry.counter("join.stage.hash")
        self._join_stages_merge = telemetry.counter("join.stage.merge")

    # ------------------------------------------------------------------
    def statistics(self) -> CardinalityStatistics:
        """The cardinality profile the planner runs on."""
        return self.planner().statistics

    def planner(self) -> QueryPlanner:
        """The query planner (and its plan cache) for this evaluator."""
        if self._planner is None:
            self._planner = QueryPlanner(CardinalityStatistics.from_store(self.store))
        return self._planner

    def compile(self, query: BGPQuery) -> CompiledQuery:
        """Compile *query* against this store's dictionary."""
        return compile_query(query, self.store.dictionary)

    def _compiled(self, query) -> CompiledQuery:
        return query if isinstance(query, CompiledQuery) else self.compile(query)

    # ------------------------------------------------------------------
    # pipelined executor (private: chosen by _prefer_pipelined, never by
    # a caller; goes when limit pushdown reaches the hash stages)
    # ------------------------------------------------------------------
    def _iter_pipelined(self, compiled: CompiledQuery) -> Iterator[Tuple[int, ...]]:
        """Index-nested-loop join: one ``select`` probe per binding level.

        Produces embeddings one at a time without materializing any
        intermediate binding table, so a ``limit``-bounded consumer pays
        only for what it reads.
        """
        ordered = _pipelined_order(compiled.patterns)
        select = self.store.select
        bindings: List[Optional[int]] = [None] * compiled.variable_count
        depth = len(ordered)

        def recurse(index: int) -> Iterator[Tuple[int, ...]]:
            if index == depth:
                yield tuple(bindings)  # type: ignore[arg-type]
                return
            pattern = ordered[index]
            s_spec, p_spec, o_spec = pattern.subject, pattern.predicate, pattern.object
            subject = s_spec if s_spec >= 0 else bindings[-s_spec - 1]
            predicate = p_spec if p_spec >= 0 else bindings[-p_spec - 1]
            obj = o_spec if o_spec >= 0 else bindings[-o_spec - 1]
            for kind in pattern.tables:
                for row in select(kind, subject, predicate, obj):
                    touched: List[int] = []
                    consistent = True
                    for spec, value in ((s_spec, row[0]), (p_spec, row[1]), (o_spec, row[2])):
                        if spec < 0:
                            slot = -spec - 1
                            bound = bindings[slot]
                            if bound is None:
                                bindings[slot] = value
                                touched.append(slot)
                            elif bound != value:
                                # same variable twice in one pattern with two
                                # different row values
                                consistent = False
                                break
                    if consistent:
                        yield from recurse(index + 1)
                    for slot in touched:
                        bindings[slot] = None

        yield from recurse(0)

    # ------------------------------------------------------------------
    # hash strategy (planned, vectorized)
    # ------------------------------------------------------------------
    def _hash_bindings(
        self,
        compiled: CompiledQuery,
        trace: Optional[ExecutionTrace],
        stream_final: bool = False,
        plan: Optional["QueryPlan"] = None,
    ) -> Tuple[Iterable[Tuple[int, ...]], List[int]]:
        """Planned hash join: batched fetch per pattern, integer hash tables.

        The binding table is a list of plain integer tuples that grow one
        newly bound slot at a time (``slot_positions`` maps a slot to its
        tuple index, ``-1`` while unbound); every stage fetches its
        pattern's candidate rows in one batched lookup per routed table —
        pushing the distinct values of one already-bound column into the
        store — and hash-joins them in, keyed on all bound positions.  The
        join inner loops are specialized for the dominant shapes (one join
        column, one or two fresh columns) so per-output-row work is a
        single small-tuple concatenation.

        With ``stream_final=True`` (only honoured when no trace is being
        captured — a trace needs exact per-stage actuals) the *last* stage
        is returned as a lazy iterator instead of a materialized list:
        consumers that stop early — ``limit``-bounded evaluation,
        ``has_answers`` — never pay for the part of the final fan-out they
        do not read, restoring the nested loop's early-termination property
        without giving up batched access for the earlier stages.
        """
        if plan is None:
            plan = self.planner().plan(compiled, trace)

        patterns = compiled.patterns
        width = compiled.variable_count
        slot_positions: List[int] = [-1] * width
        binding_rows: List[Tuple[int, ...]] = [()]
        stream_final = stream_final and trace is None
        last_stage_index = len(plan.stages) - 1
        next_position = 0  # positions are assigned densely, in stage order

        instrument = self._instrument_joins
        for stage_index, stage in enumerate(plan.stages):
            stage_start = perf_counter() if instrument else 0.0
            pattern = patterns[stage.pattern_index]

            join_on: List[Tuple[int, int]] = []  # (row column, binding position)
            fresh: List[Tuple[int, int]] = []  # (row column, slot) — first occurrence
            fresh_seen: Dict[int, int] = {}
            same_row_checks: List[Tuple[int, int]] = []  # (column, column) equal-value
            for column, spec in enumerate((pattern.subject, pattern.predicate, pattern.object)):
                if spec >= 0:
                    continue
                slot = -spec - 1
                position = slot_positions[slot]
                if position >= 0:
                    join_on.append((column, position))
                elif slot in fresh_seen:
                    # repeated fresh variable in one pattern (e.g. ?x p ?x)
                    same_row_checks.append((fresh_seen[slot], column))
                else:
                    fresh_seen[slot] = column
                    fresh.append((column, slot))

            merged = None
            if (
                self.strategy == "merge"
                and not same_row_checks
                and len(join_on) == 1
                and not (stream_final and stage_index == last_stage_index)
            ):
                merged = self._merge_stage(pattern, binding_rows, join_on[0])
            if merged is not None:
                algorithm = "merge"
                binding_rows, fetched_count, probes = merged
            else:
                algorithm = "hash"
                fetched, probes = self._fetch_pattern(pattern, binding_rows, slot_positions)
                if same_row_checks:
                    fetched = [
                        row
                        for row in fetched
                        if all(row[left] == row[right] for left, right in same_row_checks)
                    ]
                fetched_count = len(fetched)
                fresh_columns = [column for column, _slot in fresh]
                if stream_final and stage_index == last_stage_index:
                    lazy = _join_stage_iter(binding_rows, fetched, join_on, fresh_columns)
                    for _column, slot in fresh:
                        slot_positions[slot] = next_position
                        next_position += 1
                    # the lazy final stage is consumed by the caller — what
                    # is on the clock here is only its setup
                    if instrument:
                        self._join_seconds.observe(perf_counter() - stage_start)
                        self._join_stages_hash.inc()
                    return lazy, slot_positions
                binding_rows = _join_stage(binding_rows, fetched, join_on, fresh_columns)

            if instrument:
                self._join_seconds.observe(perf_counter() - stage_start)
                if algorithm == "merge":
                    self._join_stages_merge.inc()
                else:
                    self._join_stages_hash.inc()
            if trace is not None:
                trace.add_stage(
                    _describe_pattern(pattern, compiled, self.store.dictionary),
                    estimate=stage.estimate,
                    cumulative_estimate=stage.cumulative,
                    fetched=fetched_count,
                    produced=len(binding_rows),
                    probes=probes,
                    algorithm=algorithm if self.strategy in ("hash", "merge") else None,
                )
            if not binding_rows:
                return [], slot_positions
            for _column, slot in fresh:
                slot_positions[slot] = next_position
                next_position += 1

        return binding_rows, slot_positions

    def _merge_stage(
        self,
        pattern: CompiledPattern,
        binding_rows: List[Tuple[int, ...]],
        join: Tuple[int, int],
    ) -> Optional[Tuple[List[Tuple[int, ...]], int, int]]:
        """One merge-join stage over a sorted posting run, or ``None``.

        Eligible when the pattern routes to exactly one table, carries a
        constant predicate, and joins on exactly one bound subject *or*
        object column for which the store exposes a sorted ``(p, s)`` /
        ``(p, o)`` run.  The relation is never fetched or hashed per
        query: matching rows are read straight out of the run slice and
        its run-order companion column, located by one dict lookup into
        the run's key group directory (:meth:`SortedRun.group_bounds`,
        built once per run and amortized across queries).  Returns
        ``(joined rows, rows read, probes)``;
        ``None`` means the stage is ineligible (or statistics prefer
        hash) and the caller runs the hash fetch instead.
        """
        join_column, join_position = join
        if join_column == 1 or pattern.predicate < 0 or len(pattern.tables) != 1:
            return None
        kind = pattern.tables[0]
        by_object = join_column == 2
        run = self.store.sorted_run(kind, pattern.predicate, by_object=by_object)
        if run is None:
            return None
        # a relation dwarfed by the binding table is cheaper to fetch once
        # and hash than to binary-search per binding key
        if len(run) * 4 < len(binding_rows):
            return None

        other_column = 0 if by_object else 2
        other_spec = (pattern.subject, pattern.predicate, pattern.object)[other_column]
        run_values = run.column_values(other_column)
        constant = other_spec if other_spec >= 0 else None

        out: List[Tuple[int, ...]] = []
        extend = out.extend
        fetched = 0

        # amortized probe: the run's key group directory is built once and
        # shared by every query, so each binding costs one dict get
        bounds_of = run.group_bounds().get
        for binding in binding_rows:
            bounds = bounds_of(binding[join_position])
            if bounds is None:
                continue
            lo, hi = bounds
            fetched += hi - lo
            if constant is not None:
                # semi-join shape: the other column is pinned by a constant
                multiplicity = run_values[lo:hi].count(constant)
                if multiplicity:
                    extend((binding,) * multiplicity)
            else:
                extend([binding + (value,) for value in run_values[lo:hi]])
        return out, fetched, 1

    def _fetch_pattern(
        self,
        pattern: CompiledPattern,
        binding_rows: List[Tuple[int, ...]],
        slot_positions: List[int],
    ) -> Tuple[List, int]:
        """Fetch a pattern's candidate rows in one batched lookup per table.

        The distinct values of the bound subject/object columns are pushed
        into :meth:`TripleStore.select_many` (sorted, for deterministic
        backend iteration); a bound *predicate* variable is not pushed down
        — the fetch spans the pattern's tables unconstrained on ``p`` and
        the hash join filters on the predicate column instead, keeping the
        probe count at one per table even for variable-property joins.
        """
        s_spec, p_spec, o_spec = pattern.subject, pattern.predicate, pattern.object
        predicate = p_spec if p_spec >= 0 else None

        subject_values: Optional[Set[int]] = None
        subjects_const: Optional[Sequence[int]] = None
        if s_spec < 0 and slot_positions[-s_spec - 1] >= 0:
            position = slot_positions[-s_spec - 1]
            subject_values = {binding[position] for binding in binding_rows}
        elif s_spec >= 0:
            subjects_const = (s_spec,)
        object_values: Optional[Set[int]] = None
        objects_const: Optional[Sequence[int]] = None
        if o_spec < 0 and slot_positions[-o_spec - 1] >= 0:
            position = slot_positions[-o_spec - 1]
            object_values = {binding[position] for binding in binding_rows}
        elif o_spec >= 0:
            objects_const = (o_spec,)

        statistics = self.statistics()
        subjects_sorted: Optional[List[int]] = None
        objects_sorted: Optional[List[int]] = None
        rows: List = []
        probes = 0
        select_many = self.store.select_many
        for kind in pattern.tables:
            probes += 1
            # semi-join pushdown is only worth it when the bound-value set
            # is small relative to the pattern's relation: pushing 20k ids
            # against a 25k-row property costs more per-id probes (or SQL
            # `IN` chunks) than fetching the relation once and letting the
            # hash join discard the misses.  Constants are always pushed —
            # the join cannot filter them.  Pushed values are sorted (once,
            # lazily) for deterministic backend iteration.
            if predicate is not None:
                relation_rows = statistics.predicate_rows(kind, predicate)
            else:
                relation_rows = statistics.table_rows(kind)
            kind_subjects = subjects_const
            if subject_values is not None and len(subject_values) * 3 <= relation_rows:
                if subjects_sorted is None:
                    subjects_sorted = sorted(subject_values)
                kind_subjects = subjects_sorted
            kind_objects = objects_const
            if object_values is not None and len(object_values) * 3 <= relation_rows:
                if objects_sorted is None:
                    objects_sorted = sorted(object_values)
                kind_objects = objects_sorted
            fetched = select_many(
                kind, subjects=kind_subjects, predicate=predicate, objects=kind_objects
            )
            if isinstance(fetched, list) and not rows:
                rows = fetched
            else:
                rows.extend(fetched)
        return rows, probes

    # ------------------------------------------------------------------
    # sql strategy (whole-join pushdown into the backend's C engine)
    # ------------------------------------------------------------------
    def _compile_sql_join(
        self, compiled: CompiledQuery, limit: Optional[int]
    ) -> Optional[Tuple[str, List[int]]]:
        """The query as one relational join statement, or ``None``.

        ``None`` when the store has no SQL engine or a pattern routes to
        more than one table (variable-property patterns) — those run the
        hash executor instead.  Each pattern becomes an aliased occurrence
        of its table; constants pin columns via parameters, a variable's
        first column occurrence defines its expression and every later
        occurrence adds an equality — the textbook BGP-to-conjunctive-SQL
        translation of the paper's prototype.  Head projection is
        ``SELECT DISTINCT``, so the statement computes exactly the
        evaluator's answer-set semantics; ``LIMIT`` (applied after
        ``DISTINCT``) matches the ``limit=`` contract.
        """
        store = self.store
        if not getattr(store, "supports_sql_join", False):
            return None
        if any(len(pattern.tables) != 1 for pattern in compiled.patterns):
            return None
        table_names = store.SQL_TABLE_FOR_KIND
        slot_exprs: Dict[int, str] = {}
        from_clauses: List[str] = []
        where: List[str] = []
        parameters: List[int] = []
        for index, pattern in enumerate(compiled.patterns):
            alias = f"t{index}"
            from_clauses.append(f"{table_names[pattern.tables[0]]} AS {alias}")
            for column, spec in (
                ("s", pattern.subject),
                ("p", pattern.predicate),
                ("o", pattern.object),
            ):
                expression = f"{alias}.{column}"
                if spec >= 0:
                    where.append(f"{expression} = ?")
                    parameters.append(spec)
                    continue
                slot = -spec - 1
                bound = slot_exprs.get(slot)
                if bound is None:
                    slot_exprs[slot] = expression
                else:
                    where.append(f"{expression} = {bound}")
        if compiled.head_slots:
            select = "SELECT DISTINCT " + ", ".join(
                slot_exprs[slot] for slot in compiled.head_slots
            )
        else:
            select = "SELECT 1"
        sql = f"{select} FROM {', '.join(from_clauses)}"
        if where:
            sql += f" WHERE {' AND '.join(where)}"
        if not compiled.head_slots:
            sql += " LIMIT 1"
        elif limit is not None:
            sql += f" LIMIT {int(limit)}"
        return sql, parameters

    def _evaluate_sql(
        self,
        compiled: CompiledQuery,
        limit: Optional[int],
        trace: Optional[ExecutionTrace],
    ) -> Optional[Set[Tuple[Term, ...]]]:
        """Answer via one pushed-down join, or ``None`` to use the hash path."""
        statement = self._compile_sql_join(compiled, limit)
        if statement is None:
            return None
        sql, parameters = statement
        rows = self.store.execute_join(sql, parameters)
        if trace is not None:
            trace.add_stage(sql, produced=len(rows), probes=1)
        if not compiled.head_slots:
            return {()} if rows else set()
        decode = self.store.dictionary.decode
        if len(compiled.head_slots) == 1:
            return {(decode(row[0]),) for row in rows}
        return {tuple(decode(value) for value in row) for row in rows}

    # ------------------------------------------------------------------
    def explain(self, query, limit: Optional[int] = None) -> ExecutionTrace:
        """Evaluate *query* and return the captured execution trace."""
        trace = ExecutionTrace()
        self.evaluate(query, limit=limit, trace=trace)
        return trace

    def evaluate(
        self,
        query,
        limit: Optional[int] = None,
        trace: Optional[ExecutionTrace] = None,
    ) -> Set[Tuple[Term, ...]]:
        """Distinct decoded answer tuples (head projections of embeddings).

        Matches the semantics of :func:`repro.queries.evaluation.evaluate`:
        a boolean query answers ``{()}`` or ``set()``.
        """
        compiled = self._compiled(query)
        if trace is not None:
            trace.strategy = self.strategy
        if compiled.trivially_empty:
            return set()
        if self.strategy == "sql":
            pushed_down = self._evaluate_sql(compiled, limit, trace)
            if pushed_down is not None:
                return pushed_down
            # no SQL engine (or a multi-table pattern): hash path below
        head = compiled.head_slots
        if limit is not None and trace is None:
            plan = self.planner().plan(compiled)
            if _prefer_pipelined(plan, limit):
                # limit-aware plan choice: when the statistics predict
                # intermediate binding tables far beyond what the limit
                # can consume, a blocking hash join would materialize
                # fan-out the caller never reads — run the pipelined
                # nested loop instead, which stops at the limit (the
                # classic LIMIT-pushes-toward-index-nested-loop rule)
                return self._first_distinct(self._iter_pipelined(compiled), head, limit)
            # stream the final stage so a limit (or an ASK) never pays
            # for join fan-out beyond what it reads
            lazy_rows, slot_positions = self._hash_bindings(
                compiled, trace, stream_final=True, plan=plan
            )
            return self._first_distinct(
                lazy_rows, [slot_positions[slot] for slot in head], limit
            )
        # project straight off the binding table: deduplicate on integer
        # head tuples first (C-level set comprehensions for the common
        # head widths), then decode each distinct tuple exactly once
        binding_rows, slot_positions = self._hash_bindings(compiled, trace)
        if not binding_rows:
            return set()
        head_positions = [slot_positions[slot] for slot in head]
        if not head_positions:
            return {()}
        # binding ids came out of the store, so index the decode table
        # directly: no per-id bounds check or method dispatch
        terms = self.store.dictionary.decode_table
        if len(head_positions) == 1:
            (first,) = head_positions
            distinct: Set = {binding[first] for binding in binding_rows}
            answers = {(terms[value],) for value in distinct}
        elif len(head_positions) == 2:
            first, second = head_positions
            distinct = {(binding[first], binding[second]) for binding in binding_rows}
            answers = {(terms[left], terms[right]) for left, right in distinct}
        else:
            distinct = {
                tuple(binding[position] for position in head_positions)
                for binding in binding_rows
            }
            answers = {tuple(terms[value] for value in row) for row in distinct}
        if limit is not None and len(answers) > limit:
            answers = set(islice(answers, limit))
        return answers

    def _first_distinct(
        self, bindings: Iterable[Sequence[int]], head_positions: Sequence[int], limit: int
    ) -> Set[Tuple[Term, ...]]:
        """The first *limit* distinct head projections of *bindings*, decoded.

        Deduplicated on id tuples (ids and terms are one-to-one), so only
        the rows kept are decoded — in the order they were first produced.
        """
        kept: Dict[Tuple[int, ...], None] = {}
        for binding in bindings:
            kept[tuple(binding[position] for position in head_positions)] = None
            if len(kept) >= limit:
                break
        terms = self.store.dictionary.decode_table
        return {tuple(terms[value] for value in row) for row in kept}

    def has_answers(self, query) -> bool:
        """``True`` when the query has at least one embedding on the store.

        Routed through ``limit=1`` evaluation so the limit-aware plan
        choice applies: a satisfiable high-fan-out query answers from the
        pipelined path's first embedding, an unsatisfiable one from the
        batched hash join's empty result.
        """
        return bool(self.evaluate(query, limit=1))

    def count_answers(self, query) -> int:
        """Number of distinct answer tuples on the store."""
        return len(self.evaluate(query))


def _prefer_pipelined(plan: "QueryPlan", limit: int) -> bool:
    """Whether a *limit*-bounded run should pipeline instead of block.

    ``True`` when the plan's largest estimated *intermediate* binding
    table exceeds what the limit can plausibly consume (a fixed
    per-answer fan-out allowance): materializing it would be pure waste
    for a caller that reads at most *limit* distinct answers.
    """
    if len(plan.stages) <= 1:
        return False
    intermediate = max(stage.cumulative for stage in plan.stages[:-1])
    return intermediate > max(5_000.0, float(limit) * 200.0)


def _join_stage(
    binding_rows: List[Tuple[int, ...]],
    fetched: List,
    join_on: List[Tuple[int, int]],
    fresh_columns: List[int],
) -> List[Tuple[int, ...]]:
    """One hash-join stage: extend every binding with its matching rows.

    *join_on* pairs a fetched-row column with the binding-tuple position it
    must equal; *fresh_columns* are the row columns appended (in slot
    order) to each surviving binding.  The common shapes — one join column,
    zero to two fresh columns — run as straight-line loops; every other
    shape delegates to :func:`_join_stage_iter`, the single source of
    truth for the general join semantics.
    """
    out: List[Tuple[int, ...]] = []
    append = out.append
    if not join_on:
        if len(fresh_columns) == 2:
            # no shared variable: cartesian extension (the planner keeps
            # such stages first or tiny)
            left, right = fresh_columns
            if binding_rows == [()]:
                return [(row[left], row[right]) for row in fetched]
            for binding in binding_rows:
                for row in fetched:
                    append(binding + (row[left], row[right]))
            return out
        return list(_join_stage_iter(binding_rows, fetched, join_on, fresh_columns))

    if len(join_on) == 1 and len(fresh_columns) <= 2:
        buckets: Dict = {}
        setdefault = buckets.setdefault
        join_column, join_position = join_on[0]
        for row in fetched:
            setdefault(row[join_column], []).append(row)
        get = buckets.get
        if len(fresh_columns) == 1:
            (fresh_column,) = fresh_columns
            for binding in binding_rows:
                bucket = get(binding[join_position])
                if bucket is not None:
                    for row in bucket:
                        append(binding + (row[fresh_column],))
        elif len(fresh_columns) == 2:
            left, right = fresh_columns
            for binding in binding_rows:
                bucket = get(binding[join_position])
                if bucket is not None:
                    for row in bucket:
                        append(binding + (row[left], row[right]))
        else:
            for binding in binding_rows:
                bucket = get(binding[join_position])
                if bucket is not None:
                    for _row in bucket:
                        append(binding)
        return out

    return list(_join_stage_iter(binding_rows, fetched, join_on, fresh_columns))


def _join_stage_iter(
    binding_rows: List[Tuple[int, ...]],
    fetched: List,
    join_on: List[Tuple[int, int]],
    fresh_columns: List[int],
) -> Iterator[Tuple[int, ...]]:
    """Lazy variant of :func:`_join_stage` for the plan's final stage.

    The hash table over the fetched rows is still built eagerly (it is
    bounded by the batched fetch), but extended bindings are yielded one at
    a time, so early-terminating consumers stop the fan-out mid-way.
    """
    if not join_on:
        for binding in binding_rows:
            for row in fetched:
                yield binding + tuple(row[column] for column in fresh_columns)
        return
    buckets: Dict = {}
    setdefault = buckets.setdefault
    if len(join_on) == 1:
        join_column, join_position = join_on[0]
        for row in fetched:
            setdefault(row[join_column], []).append(row)
        get = buckets.get
        for binding in binding_rows:
            bucket = get(binding[join_position])
            if bucket is not None:
                for row in bucket:
                    yield binding + tuple(row[column] for column in fresh_columns)
        return
    for row in fetched:
        setdefault(tuple(row[column] for column, _position in join_on), []).append(row)
    get = buckets.get
    for binding in binding_rows:
        bucket = get(tuple(binding[position] for _column, position in join_on))
        if bucket is not None:
            for row in bucket:
                yield binding + tuple(row[column] for column in fresh_columns)


def _describe_pattern(
    pattern: CompiledPattern, compiled: CompiledQuery, dictionary: Dictionary
) -> str:
    """Human-readable ``?s <p> ?o`` rendering of a compiled pattern."""

    def render(spec: int) -> str:
        if spec < 0:
            slot = -spec - 1
            name = compiled.slot_names[slot] if slot < len(compiled.slot_names) else str(slot)
            return f"?{name}"
        try:
            return dictionary.decode(spec).n3()
        except Exception:
            return f"#{spec}"

    return f"{render(pattern.subject)} {render(pattern.predicate)} {render(pattern.object)}"
