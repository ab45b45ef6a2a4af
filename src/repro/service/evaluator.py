"""Encoded BGP evaluation over a :class:`~repro.store.base.TripleStore`.

The paper's prototype answers queries where the data lives: dictionary-
encoded integer triples in relational tables (Section 6).  This module
brings BGP evaluation to that substrate with two join strategies over the
same compiled form:

* ``strategy="hash"`` (default) — the one in-memory executor
  (:meth:`EncodedEvaluator._pipeline`): the
  :class:`~repro.service.planner.QueryPlanner` orders the patterns by
  estimated cardinality, and each stage reads the store by an access path
  chosen per chunk of the integer binding table — a ``scan`` of the first
  pattern's posting range, a ``probe`` of a posting run per binding, or a
  ``hash`` join of one batched :meth:`TripleStore.select_many` fetch.  A
  stage whose new variables nothing reads again checks that a match
  ``exists`` (a semi-join) instead of copying its binding once per match.
* ``strategy="sql"`` — whole-join pushdown: the compiled BGP becomes one
  ``SELECT DISTINCT`` over aliased table occurrences and the backend's C
  engine runs the entire join.  SQLite releases the GIL while it runs, yet
  two server threads did not beat one: at ``bench_server.py --scale 800
  --count 200 --threads 2`` on a 2-CPU VM, 2 threads ran at 0.77× serial.
  Stores without a SQL engine, and variable-property patterns, silently
  fall back to ``hash``; answer sets are identical either way.

A ``limit`` is a property of that one pipeline, as ``LIMIT`` is of the
prototype's relational engine: the binding table is walked depth-first in
geometrically growing chunks, every chunk through the same stage routine,
and the walk stops once ``limit`` distinct answers exist.  With no limit
the chunk is the whole table — the blocking join.  A trace records the
chunk-stages that ran, whichever they were; it never changes them.

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

from collections.abc import Set as AbstractSet
from contextlib import closing
from itertools import chain, islice
from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.errors import UnknownTermError
from repro.model.dictionary import Dictionary
from repro.model.terms import Term
from repro.model.triple import TripleKind, classify_property
from repro.queries.bgp import BGPQuery, Variable
from repro.service.planner import ExecutionTrace, PatternEstimate, QueryPlan, QueryPlanner
from repro.service.statistics import CardinalityStatistics
from repro.store.base import TripleStore

__all__ = [
    "AnswerRows",
    "CompiledPattern",
    "CompiledQuery",
    "EncodedEvaluator",
    "compile_query",
    "describe_stages",
    "STRATEGIES",
]

_ALL_TABLES = (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA)

#: The join strategies the evaluator can run: ``hash``, the Python-side
#: executor, and ``sql``, the whole BGP as one relational join run by the C
#: engine of a store advertising ``supports_sql_join`` (the SQLite backend;
#: any other falls back to ``hash``).  The pushed-down join releases the GIL,
#: yet 2 threads ran at 0.77× (``sql``) and 0.32× (``hash``) the serial rate
#: on SQLite, 0.67× on memory (medians of warm ``bench_server.py`` laps).
STRATEGIES = ("hash", "sql")


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
    return (classify_property(predicate),)


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


#: Under a limit the binding table is walked in chunks: a stage's first
#: chunk holds ``_FIRST_CHUNK`` rows, and every chunk a stage takes is
#: ``_CHUNK_GROWTH`` times its previous one — small enough that the first
#: answers cost a few probes, growing fast enough that a limit the data
#: cannot fill degrades to the blocking join in O(log rows) chunks a stage.
_FIRST_CHUNK = 16
_CHUNK_GROWTH = 2


def _pipelined_order(
    patterns: Sequence[CompiledPattern], planner: QueryPlanner
) -> List[PatternEstimate]:
    """Greedy join ordering: repeatedly pick the most-bound remaining pattern.

    The syntactic ordering a limit-bounded run uses when
    :func:`_prefer_pipelined` distrusts the planner's: every stage after
    the first probes on at least one bound position.  It reads no
    statistics to order; the stages are costed through the planner all the
    same, so a trace still carries estimates.
    """
    remaining = list(range(len(patterns)))
    stages: List[PatternEstimate] = []
    bound: Set[int] = set()
    cumulative = 1.0
    while remaining:
        best = max(
            remaining,
            key=lambda i: (patterns[i].bound_count(bound), -len(patterns[i].slots())),
        )
        estimate = planner.estimate_pattern(patterns[best], bound)
        cumulative *= max(estimate, 1.0)
        stages.append(PatternEstimate(best, estimate, cumulative))
        remaining.remove(best)
        bound |= patterns[best].slots()
    return stages


class EncodedEvaluator:
    """BGP evaluation over the encoded rows of one :class:`TripleStore`.

    ``hash`` evaluations run through one executor (:meth:`_pipeline`) whose
    stages pick their access path — scan, probe, hash or exists — from the
    query and the data; a ``limit`` bounds its walk and a trace records
    it, and neither selects a path.

    Parameters
    ----------
    store:
        The encoded triple store to evaluate against.
    strategy:
        ``"hash"`` (planned, vectorized — the default) or ``"sql"``
        (whole-join pushdown where the backend supports it).  Answer sets
        are identical; only the access pattern differs.
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
        self._join_seconds = telemetry.histogram("join.stage.seconds")

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

    # ------------------------------------------------------------------
    # the one executor (planned, vectorized, chunked under a limit)
    # ------------------------------------------------------------------
    def _pipeline(
        self,
        compiled: CompiledQuery,
        stages: Sequence[PatternEstimate],
        chunked: bool,
        trace: Optional[ExecutionTrace],
    ) -> Tuple[Iterator[List[Tuple[int, ...]]], List[int]]:
        """The join of *stages*, in order, as a lazy walk of the binding table.

        The binding table is a list of plain integer tuples that grow one
        newly bound slot at a time (the returned ``slot_positions`` maps a
        slot to its tuple index).  Each chunk of a stage reads the store by
        one access path, chosen from the query and the data alone:

        * ``scan`` — the first stage: the positions of its matching rows
          (:meth:`_scan`) are its input table;
        * ``probe`` — a constant-property stage joined on its subject or
          object, on the memory store, when the chunk's distinct values are
          few against the relation (:func:`_few_values`): each binding is
          looked up in the posting run (:func:`_probe`);
        * ``hash`` — otherwise, one batched fetch per routed table
          (:meth:`_fetch_pattern`) hash-joined in (:func:`_join_stage`).

        A later stage none of whose fresh slots the head or a later pattern
        reads binds none of them: an ``exists`` stage keeps each binding
        once when a match exists, where the join would copy it per match.

        The returned generator walks the table depth-first.  When
        *chunked* (the caller has a limit), a stage takes its input a chunk
        at a time (``_FIRST_CHUNK`` rows, then ``_CHUNK_GROWTH`` times
        more per chunk taken), sends each chunk's output down the remaining
        stages before it takes the next, and yields what leaves the last
        stage — so a consumer that has its ``limit`` closes the walk and
        the fan-out it did not read was never joined.  Otherwise a stage
        takes its whole input at once: the blocking join.  Rows leave in
        one order either way, by binding and then by row position.  Each
        chunk through a stage is observed by the join-stage telemetry and
        added to the stage's line of *trace*.
        """
        patterns = compiled.patterns
        last_read: Dict[int, int] = {}  # slot → the last stage to read it
        for index, stage in enumerate(stages):
            last_read.update(dict.fromkeys(patterns[stage.pattern_index].slots(), index))
        last_read.update(dict.fromkeys(compiled.head_slots, len(stages)))  # the head: after all
        posting_run = getattr(self.store, "posting_run", None)
        slot_positions: List[int] = [-1] * compiled.variable_count
        next_position = 0  # positions are assigned densely, in stage order
        layout = []  # per stage, fixed by the order alone
        for index, stage in enumerate(stages):
            pattern = patterns[stage.pattern_index]
            specs = (pattern.subject, pattern.predicate, pattern.object)
            join_on: List[Tuple[int, int]] = []  # (row column, binding position)
            fresh: Dict[int, int] = {}  # slot → row column of its first occurrence
            same_row_checks: List[Tuple[int, int]] = []  # (column, column) equal-value
            for column, spec in enumerate(specs):
                if spec >= 0:
                    continue
                slot = -spec - 1
                if slot_positions[slot] >= 0:
                    join_on.append((column, slot_positions[slot]))
                elif slot in fresh:
                    # repeated fresh variable in one pattern (e.g. ?x p ?x)
                    same_row_checks.append((fresh[slot], column))
                else:
                    fresh[slot] = column
            if index and all(last_read[slot] == index for slot in fresh):
                fresh = {}  # an exists stage: its dead slots take no position
            probe = None  # (join column, binding position, other column's constant or -1)
            if index and posting_run and pattern.predicate >= 0 and len(join_on) == 1:
                column, position = join_on[0]  # the subject or the object
                probe = (column, position, max(specs[2 - column], -1))
            layout.append((stage, pattern, join_on, list(fresh.values()), same_row_checks, probe))
            for slot in fresh:
                slot_positions[slot] = next_position
                next_position += 1

        sizes = [_FIRST_CHUNK] * len(layout)  # the next chunk of each stage
        traced = len(trace.stages) if trace is not None else 0

        def walk() -> Iterator[List[Tuple[int, ...]]]:
            statistics = self.statistics()
            positions, table, scan_probes = self._scan(layout[0][1])  # (s, p, o) columns
            # depth-first: (stage, its input table, rows of it already taken),
            # the deepest unfinished table on top — and no table outlives
            # its last chunk, so the blocking join holds one at a time
            pending: List[Tuple[int, Sequence, int]] = [(0, positions, 0)]
            while pending:
                index, rows, start = pending.pop()
                if index == len(layout):
                    yield rows
                    continue
                stage, pattern, join_on, fresh_columns, checks, probe = layout[index]
                part = rows
                if chunked:
                    part = rows[start : start + sizes[index]]
                    sizes[index] *= _CHUNK_GROWTH
                if start + len(part) < len(rows):
                    pending.append((index, rows, start + len(part)))
                stage_start = perf_counter()
                access = "hash" if fresh_columns else "exists"  # unless it scans or probes
                if not index:  # the scan: cells of the chunk's rows, read column by column
                    access, fetched, probes = "scan", len(part), 0 if start else scan_probes
                    if checks:  # a repeated variable's cells agree
                        same = lambda i: all(table[a][i] == table[b][i] for a, b in checks)
                        part = list(filter(same, part))
                    cells = [table[column] for column in fresh_columns]
                    joined = list(zip(*[[cell[i] for i in part] for cell in cells]))
                    joined = joined or [()] * len(part)  # (no fresh column: one () per row)
                elif probe and _few_values(
                    part, probe[1], statistics.predicate_rows(pattern.tables[0], pattern.predicate)
                ):
                    column, position, constant = probe
                    run, other = posting_run(pattern.tables[0], pattern.predicate, column)
                    joined, fetched = _probe(part, run, other, position, constant, fresh_columns)
                    access, probes = "probe" if fresh_columns else access, len(part)
                else:
                    candidates, probes = self._fetch_pattern(pattern, part, join_on)
                    if checks:
                        candidates = [r for r in candidates if all(r[a] == r[b] for a, b in checks)]
                    fetched = len(candidates)
                    joined = _join_stage(part, candidates, join_on, fresh_columns)
                self._join_seconds.observe(perf_counter() - stage_start)
                if trace is not None:
                    if len(trace.stages) == traced + index:  # the stage's first chunk
                        estimates = (stage.estimate, stage.cumulative)
                        trace.add_stage(None, *estimates, 0, 0, 0, access, stage.pattern_index)
                    observed = trace.stages[traced + index]
                    if access not in observed.access.split("+"):
                        observed.access += "+" + access
                    observed.fetched += fetched
                    observed.produced += len(joined)
                    observed.probes += probes
                if joined:
                    pending.append((index + 1, joined, 0))

        return walk(), slot_positions

    def _scan(self, pattern: CompiledPattern) -> Tuple[Sequence[int], Sequence[Sequence[int]], int]:
        """The first stage's input: ``(row positions, the (s, p, o) columns
        they index, store lookups)`` — a one-table pattern's posting range
        where the store serves one, else :meth:`_fetch_pattern` as columns."""
        postings = getattr(self.store, "postings", None)
        if postings is not None and len(pattern.tables) == 1:
            specs = (pattern.subject, pattern.predicate, pattern.object)
            bound = [spec if spec >= 0 else None for spec in specs]
            return (*postings(pattern.tables[0], *bound), 1)
        rows, probes = self._fetch_pattern(pattern, [()], [])
        return range(len(rows)), tuple(zip(*rows)) or ((), (), ()), probes

    def _fetch_pattern(
        self,
        pattern: CompiledPattern,
        binding_rows: List[Tuple[int, ...]],
        join_on: List[Tuple[int, int]],
    ) -> Tuple[List, int]:
        """Fetch a pattern's candidate rows in one batched lookup per table.

        :meth:`TripleStore.select_many` gets the constants, and the sorted
        distinct values of a bound subject/object column (*join_on*: row
        column, binding position) where they are few against the table's
        relation (:func:`_few_values`); otherwise the relation is fetched
        and the hash join discards the misses.  A bound *predicate* is not
        pushed down: the join filters on it, one lookup per table.
        """
        statistics = self.statistics()
        predicate = pattern.predicate if pattern.predicate >= 0 else None
        rows: List = []
        for kind in pattern.tables:
            if predicate is not None:
                relation_rows = statistics.predicate_rows(kind, predicate)
            else:
                relation_rows = statistics.table_rows(kind)
            pushed = [(spec,) if spec >= 0 else None for spec in (pattern.subject, pattern.object)]
            for column, position in join_on:
                if column != 1 and _few_values(binding_rows, position, relation_rows):
                    pushed[column // 2] = sorted({binding[position] for binding in binding_rows})
            fetched = self.store.select_many(kind, pushed[0], predicate, pushed[1])
            if isinstance(fetched, list) and not rows:
                rows = fetched
            else:
                rows.extend(fetched)
        return rows, len(pattern.tables)

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
    ) -> "AnswerRows":
        """Distinct answer tuples (head projections of embeddings), an :class:`AnswerRows`.

        Matches the semantics of :func:`repro.queries.evaluation.evaluate`:
        a boolean query answers ``{()}`` or ``set()``.  With a *limit*, at
        most that many of them — the first the run produces.  A *trace*
        records the run; it never changes it.
        """
        compiled = query if isinstance(query, CompiledQuery) else self.compile(query)
        rows = self.evaluate_ids(compiled, limit, trace)
        dictionary = self.store.dictionary
        if trace is not None:
            describe_stages(trace, compiled, dictionary)
        return AnswerRows(rows, len(compiled.head_slots), dictionary)

    def evaluate_ids(
        self,
        compiled: CompiledQuery,
        limit: Optional[int] = None,
        trace: Optional[ExecutionTrace] = None,
    ) -> List[Tuple[int, ...]]:
        """The distinct head id tuples of *compiled*, in first-produced
        order — at most *limit* of them.

        The whole evaluation, on integers alone: it reads no dictionary, so
        it runs wherever the rows are (a cluster worker holds no terms).
        The stages a *trace* records name their pattern by index;
        :func:`describe_stages` renders them where the dictionary is.
        """
        if trace is not None:
            trace.strategy = self.strategy
        if compiled.trivially_empty or (limit is not None and limit < 1):
            return []  # (at most *limit* rows: none)
        if self.strategy == "sql":
            statement = self._compile_sql_join(compiled, limit)
            if statement is not None:
                sql, parameters = statement
                rows = self.store.execute_join(sql, parameters)
                if trace is not None:
                    trace.add_stage(sql, produced=len(rows), probes=1, access="sql")
                return rows
            # no SQL engine (or a multi-table pattern): the pipeline below
        plan = self.planner().plan(compiled, trace)
        stages = plan.stages
        if limit is not None and _prefer_pipelined(plan, limit):
            # limit-aware order choice: when the statistics predict
            # intermediate binding tables far beyond what the limit can
            # consume, the planner's smallest-relation-first start is not
            # trusted to reach the first answers cheaply — walk the
            # most-bound-first order instead
            stages = _pipelined_order(compiled.patterns, self.planner())
        walk, slot_positions = self._pipeline(compiled, stages, limit is not None, trace)
        # fold each chunk's distinct integer head tuples into the running
        # answer, in first-produced order, and stop the walk at the limit:
        # only the rows kept are ever rendered or decoded
        project = _projection([slot_positions[slot] for slot in compiled.head_slots])
        kept: Dict[Tuple[int, ...], None] = {}
        with closing(walk):
            for rows in walk:
                kept.update(dict.fromkeys(map(project, rows)))
                if limit is not None and len(kept) >= limit:
                    break
        return list(islice(kept, limit))

    def has_answers(self, query) -> bool:
        """``True`` when the query has at least one embedding on the store.

        A ``limit=1`` evaluation: the walk stops at its first embedding.
        """
        return bool(self.evaluate(query, limit=1))

    def count_answers(self, query) -> int:
        """Number of distinct answer tuples on the store."""
        return len(self.evaluate(query))


def _prefer_pipelined(plan: "QueryPlan", limit: int) -> bool:
    """Whether a *limit*-bounded run should walk :func:`_pipelined_order`.

    ``True`` when the plan's largest estimated *intermediate* binding
    table exceeds what the limit can plausibly consume (a fixed
    per-answer fan-out allowance).  It picks between two *orders* of the
    one pipeline, never between executors — and goes, with the second
    order, once the planner's estimates can arbitrate (ROADMAP item 4).
    """
    if len(plan.stages) <= 1:
        return False
    intermediate = max(stage.cumulative for stage in plan.stages[:-1])
    return intermediate > max(5_000.0, float(limit) * 200.0)


def _projection(columns: Sequence[int]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """``row -> tuple(row[column] for column in columns)``, at C speed."""
    if len(columns) > 1:
        return itemgetter(*columns)
    # as a slice, so that no column and one column come out as tuples too
    first = columns[0] if columns else 0
    return itemgetter(slice(first, first + len(columns)))


def _few_values(binding_rows: Sequence[Tuple[int, ...]], position: int, relation_rows: int) -> bool:
    """Whether *binding_rows* hold few distinct values at *position*
    against a relation of *relation_rows* (``3·|values| ≤ rows``): few
    enough to look them up rather than read the relation whole."""
    few = len(binding_rows) * 3 <= relation_rows  # (then its distinct values are, too)
    return few or len({binding[position] for binding in binding_rows}) * 3 <= relation_rows


def _probe(
    binding_rows: List[Tuple[int, ...]],
    run,
    other: Sequence[int],
    position: int,
    constant: int,
    fresh_columns: List[int],
) -> Tuple[List[Tuple[int, ...]], int]:
    """A probe chunk: ``(bindings kept, posting positions read)``.

    Each distinct value at *position* is looked up in the posting *run*
    once (``None``: the property has no row).  With a fresh column a
    binding is extended by the *other* column's cell of every match, in
    row order as the hash join emits them; without, it is kept once when a
    match's other cell is *constant* (any, when ``-1``).
    """
    out: List[Tuple[int, ...]] = []
    read = 0
    found: Dict[int, List[Tuple[int, ...]]] = {}  # value → what a binding gains
    positions_for = run.positions_for if run is not None else lambda _value: ()
    for binding in binding_rows:
        value = binding[position]
        tails = found.get(value)
        if tails is None:
            positions = positions_for(value)
            read += len(positions)
            if fresh_columns:
                tails = [(other[match],) for match in positions]
            else:
                hit = positions and (constant < 0 or constant in map(other.__getitem__, positions))
                tails = [()] if hit else []
            found[value] = tails
        out.extend([binding + tail for tail in tails])
    return out, read


def _join_stage(
    binding_rows: List[Tuple[int, ...]],
    fetched: List,
    join_on: List[Tuple[int, int]],
    fresh_columns: List[int],
) -> List[Tuple[int, ...]]:
    """One hash-join stage: extend every binding with the *fresh_columns*
    of each fetched row that matches it on *join_on* (row column, binding
    position; none: every row matches) — or, with no fresh column (an
    exists stage), keep it once when a row matches."""
    columns, positions = [c for c, _p in join_on], [p for _c, p in join_on]
    row_key = itemgetter(*columns) if columns else _projection(columns)  # (one column: no tuple)
    binding_key = itemgetter(*positions) if positions else _projection(positions)
    if not fresh_columns:
        keys = set(map(row_key, fetched))
        return [binding for binding in binding_rows if binding_key(binding) in keys]
    buckets: Dict = {}
    get = buckets.get
    if len(join_on) == len(fresh_columns) == 1:  # the dominant shape, straight-line
        (join_column, join_position), (fresh_column,) = join_on[0], fresh_columns
        for row in fetched:
            buckets.setdefault(row[join_column], []).append(row[fresh_column])
        return [b + (value,) for b in binding_rows for value in get(b[join_position], ())]
    for row in fetched:
        buckets.setdefault(row_key(row), []).append(row)
    extension = _projection(fresh_columns)
    return [b + extension(row) for b in binding_rows for row in get(binding_key(b), ())]


class AnswerRows(AbstractSet):
    """Distinct head id rows (``rows``, first-produced order) seen as the set of
    ``Term`` tuples they decode to through ``dictionary``, on first use."""

    __slots__ = ("rows", "width", "dictionary", "_terms")

    def __init__(self, rows: List[Sequence[int]], width: int, dictionary: Dictionary):
        # a boolean query: the empty tuple when anything matched (``SELECT 1`` too)
        self.rows = rows if width else [()] * bool(rows)
        self.width, self.dictionary, self._terms = width, dictionary, None

    def terms(self) -> Set[Tuple[Term, ...]]:
        if self._terms is None:  # each distinct id minted once, regrouped at C speed
            ids = set(chain.from_iterable(self.rows))
            term_of = dict(zip(ids, map(self.dictionary.decode_table.__getitem__, ids)))
            cells = map(term_of.__getitem__, chain.from_iterable(self.rows))
            self._terms = set(zip(*[cells] * self.width)) if self.width else set(self.rows)
        return self._terms

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Term, ...]]:
        return iter(self.terms())

    def __contains__(self, row) -> bool:
        return row in self.terms()


def describe_stages(trace: ExecutionTrace, compiled: CompiledQuery, dictionary: Dictionary) -> None:
    """Name each stage of *trace* a run recorded by pattern index —
    ``?s <p> ?o``, rendered through the *dictionary* that *compiled* was
    compiled against, on whichever side of a process boundary holds it."""

    def render(spec: int) -> str:
        if spec < 0:
            slot = -spec - 1
            name = compiled.slot_names[slot] if slot < len(compiled.slot_names) else str(slot)
            return f"?{name}"
        try:
            return dictionary.texts[spec]
        except Exception:
            return f"#{spec}"

    for stage in trace.stages:
        if stage.description is None:
            pattern = compiled.patterns[stage.pattern_index]
            stage.description = " ".join(
                map(render, (pattern.subject, pattern.predicate, pattern.object))
            )
