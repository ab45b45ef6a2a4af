"""The :class:`QueryService`: summary-guarded query answering.

Proposition 1 makes summaries *representative*: an RBGP query with answers
on ``G∞`` has answers on the summary's saturation.  The contrapositive is a
server-side guard — if the (tiny) summary rejects the query, the (huge)
graph certainly has no answer and base evaluation is skipped entirely.  The
service runs that guard in front of every eligible query:

1. **dictionary miss** — a constant the store never saw compiles to an
   instant empty answer (no summary, no rows);
2. **summary miss** — the query has no embedding on the (possibly
   saturated) summary graph; the base graph is provably answer-free;
3. **base evaluation** — only queries surviving both guards reach the
   encoded evaluator on the full store.

Soundness of step 2 rests on the quotient homomorphism: every embedding of
an RBGP query into ``G`` composes with ``rd`` into an embedding into
``H_G`` (and, saturated, on Proposition 1), so a summary miss can never
hide a real answer.  The guard therefore only fires for queries where the
argument applies: RBGP queries (Definition 3) without schema-property
patterns, on the well-behaved graphs the paper assumes.  Everything else —
constants in node positions, variable properties, schema lookups — skips
straight to step 3 and is answered exactly, just without the shortcut.

Step 3 runs on integers: the query compiles against the entry's dictionary,
the evaluator returns head id tuples, and the answer keeps them (an
:class:`~repro.service.evaluator.AnswerRows` view).  That step is the
service's one seam (``remote``): the cluster coordinator's service hands it
to a worker, whose replica holds no term at all.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Optional, Union

from repro import telemetry
from repro.core.builders import normalize_kind
from repro.errors import UnknownGraphError
from repro.model.namespaces import is_schema_property
from repro.queries.bgp import BGPQuery
from repro.queries.evaluation import has_answers
from repro.service.catalog import GraphCatalog
from repro.service.evaluator import AnswerRows, CompiledQuery, compile_query, describe_stages
from repro.service.planner import ExecutionTrace
from repro.telemetry import QueryTrace, maybe_span

__all__ = ["QueryAnswer", "QueryService"]


class QueryAnswer:
    """The outcome of one :meth:`QueryService.answer` call."""

    __slots__ = (
        "query",
        "graph_name",
        "kind",
        "answers",
        "pruned",
        "prunable",
        "guard_seconds",
        "evaluation_seconds",
        "strategy",
        "trace",
        "saturation",
        "cluster",
        "query_trace",
    )

    def __init__(
        self,
        query: BGPQuery,
        graph_name: str,
        kind: str,
        answers: AnswerRows,
        pruned: bool,
        prunable: bool,
        guard_seconds: float,
        evaluation_seconds: float,
        strategy: str = "hash",
        trace: Optional[ExecutionTrace] = None,
        saturation: Optional[Dict[str, object]] = None,
        cluster: Optional[Dict[str, object]] = None,
        query_trace: Optional[QueryTrace] = None,
    ):
        self.query = query
        self.graph_name = graph_name
        self.kind = kind
        #: The head id rows and their dictionary, decoded only when read as terms.
        self.answers = answers
        #: ``True`` when the summary (or dictionary) guard proved the query
        #: empty and base evaluation was skipped.
        self.pruned = pruned
        #: ``True`` when the query was eligible for the summary guard at all.
        self.prunable = prunable
        self.guard_seconds = guard_seconds
        self.evaluation_seconds = evaluation_seconds
        #: Join strategy of the base evaluation (``hash`` or ``sql``).
        self.strategy = strategy
        #: Execution trace of the base evaluation (``explain=True`` only).
        self.trace = trace
        #: Maintenance metrics of the ``G∞`` serving cache that evaluated
        #: the query — build and per-ingest delta latencies (``explain=True``
        #: on an evaluated ``saturated=True`` answer only; see
        #: :meth:`CatalogEntry.saturation_metrics`).
        self.saturation = saturation
        #: Routing metadata of the cluster worker that evaluated the query
        #: — which one, retry count — and ``None`` when no worker did (in
        #: process, or pruned or a dictionary miss on the front end).
        #: Purely observational — the answer set is what it would be
        #: in-process.
        self.cluster = cluster
        #: The telemetry span tree of this query (``trace=True`` only): a
        #: :class:`~repro.telemetry.QueryTrace` whose id crossed every
        #: process boundary the query did.
        self.query_trace = query_trace

    @property
    def empty(self) -> bool:
        """``True`` when the query has no answer."""
        return not self.answers

    @property
    def total_seconds(self) -> float:
        return self.guard_seconds + self.evaluation_seconds

    def __repr__(self):
        state = "pruned" if self.pruned else f"{len(self.answers)} answers"
        return f"<QueryAnswer {self.query.name or 'query'!s} on {self.graph_name!r}: {state}>"


def _guard_applies(query: BGPQuery) -> bool:
    """Whether the summary guard is sound for *query*.

    RBGP membership gives the homomorphism/Proposition-1 argument; the extra
    schema-pattern exclusion keeps the guard conservative on inputs that
    violate the paper's well-behavedness assumption (a schema pattern's
    join variable could name a class node that also carries data edges
    there).
    """
    if not query.is_rbgp():
        return False
    return all(not is_schema_property(pattern.predicate) for pattern in query.patterns)


class QueryService:
    """Answers BGP queries over catalog graphs, summary guard first.

    Parameters
    ----------
    catalog:
        The :class:`GraphCatalog` holding the registered graphs.
    kind:
        The summary the guard checks: one of the five names.  The default,
        ``strong``, refutes whatever ``weak`` does: the strong partition
        refines the weak one, so the block map ``H_strong → H_weak`` is a
        homomorphism fixing every class and property, and an RBGP query
        embedding in ``H_strong`` (or its saturation) embeds in ``H_weak``
        (or its saturation) too.
    prune:
        ``False`` disables the summary guard entirely — every query runs
        base evaluation.  The dictionary-miss fast path stays on (it is part
        of compilation, not of the guard).
    strategy:
        Join strategy of base evaluation: ``"hash"`` (statistics-planned,
        vectorized — the default) or ``"sql"`` — see
        :data:`~repro.service.evaluator.STRATEGIES` (checked where the
        evaluator is built, on the first query that reaches one).
    remote:
        The evaluation step, when it runs in another process: called as
        ``remote(graph_name, compiled, limit, saturated, execution_trace,
        query_trace)`` once the read lock is released, it returns the head
        id rows, the ``G∞`` metrics (``saturated`` with ``explain`` only)
        and the routing metadata of :attr:`QueryAnswer.cluster`.  The
        cluster coordinator passes its round trip to a worker.  ``None``
        (the default) evaluates on the entry's own store.
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        kind: str = "strong",
        prune: bool = True,
        strategy: str = "hash",
        remote: Optional[Callable] = None,
    ):
        self.catalog = catalog
        # the frozen bench/ still spells the guard "weak+strong", the old
        # cascade whose weak step strong subsumes (ROADMAP item 9 drops it)
        self.kind = normalize_kind("strong" if kind == "weak+strong" else kind)
        self.prune = prune
        self.strategy = strategy
        self.remote = remote
        self._read_wait_seconds = telemetry.histogram("lock.read_wait.seconds")
        self._queries = telemetry.counter("query.count")
        self._pruned = telemetry.counter("query.guard.pruned")
        self._evaluated = telemetry.counter("query.evaluated")
        self._unprunable = telemetry.counter("query.unprunable")
        self._guard_seconds = telemetry.histogram("query.guard.seconds")
        self._evaluation_seconds = telemetry.histogram("query.evaluation.seconds")
        self._total_seconds = telemetry.histogram("query.total.seconds")

    # ------------------------------------------------------------------
    def answer(
        self,
        graph_name: str,
        query: BGPQuery,
        limit: Optional[int] = None,
        saturated: bool = False,
        explain: bool = False,
        trace: Union[bool, QueryTrace] = False,
    ) -> QueryAnswer:
        """Answer *query* on the named graph, guard first.

        With ``saturated=True`` answers are computed over ``G∞`` (certain
        answers, the paper's query semantics) and the guard checks the
        summary's saturation as Proposition 1 requires; the default answers
        over the explicit triples, guarded by the plain summary.  With
        ``explain=True`` the returned answer carries the base evaluation's
        :class:`ExecutionTrace` (plan, estimated vs. actual cardinalities,
        probes) alongside the guard decisions.  With ``trace=True`` (or an
        existing :class:`~repro.telemetry.QueryTrace` to record into) the
        answer carries a telemetry span tree timing the guard and the base
        evaluation.
        """
        entry = self.catalog.entry(graph_name)
        query_trace: Optional[QueryTrace] = None
        if trace:
            query_trace = trace if isinstance(trace, QueryTrace) else QueryTrace()
        execution_trace: Optional[ExecutionTrace] = ExecutionTrace() if explain else None
        answers = AnswerRows([], len(query.head), entry.store.dictionary)
        saturation: Optional[Dict[str, object]] = None
        cluster: Optional[Dict[str, object]] = None
        # the query as compiled for the remote evaluation step
        handoff: Optional[CompiledQuery] = None

        # the guard, the compilation and an in-process evaluation hold the
        # entry's shared (read) lock: concurrent queries overlap freely,
        # while an ingest (the exclusive side) can never interleave with a
        # running join or leave the guard checking a summary newer than the
        # store it protects.  The lock is non-reentrant — nothing below may
        # call back into answer() or add_triples().  The acquisition itself
        # is timed separately: it measures queueing behind an ingest, not
        # query work.
        wait_start = perf_counter()
        entry.rwlock.acquire_read()
        self._read_wait_seconds.observe(perf_counter() - wait_start)
        try:
            if entry.closed:
                # we raced a drop(): the write lock closed the entry while
                # we were queued — the graph is gone, report it as such
                raise UnknownGraphError(f"graph {graph_name!r} was dropped")
            prunable = self.prune and _guard_applies(query)

            guard_start = perf_counter()
            with maybe_span(query_trace, "guard") as guard_span:
                pruned = prunable and not has_answers(
                    entry.pruning_graph(self.kind, saturated=saturated), query
                )
                if guard_span is not None:
                    guard_span.attributes.update(prunable=prunable, pruned=pruned)
            guard_seconds = perf_counter() - guard_start

            evaluation_start = perf_counter()
            if not pruned and self.remote is not None:
                # compiled against this dictionary, evaluated elsewhere
                handoff = compile_query(query, entry.store.dictionary)
            elif not pruned:
                evaluator = entry.evaluator_for(self.strategy, saturated=saturated)
                evaluation_start = perf_counter()
                with maybe_span(
                    query_trace, "evaluate", strategy=self.strategy
                ) as evaluate_span:
                    # (compiled after evaluator_for: building G∞ may mint
                    # rdf:type, which the query may name)
                    compiled = evaluator.compile(query)
                    answers = evaluator.evaluate(compiled, limit=limit, trace=execution_trace)
                    if evaluate_span is not None:
                        evaluate_span.attributes["answers"] = len(answers)
                if saturated and explain and not compiled.trivially_empty:
                    # the G∞ maintenance costs behind this answer (still
                    # under the read lock: an ingest cannot change them
                    # mid-gather)
                    saturation = entry.saturation_metrics()
        finally:
            entry.rwlock.release_read()

        if handoff is not None:
            # the lock is released first: a round trip never holds a writer up
            rows, saturation, cluster = self.remote(
                graph_name, handoff, limit, saturated, execution_trace, query_trace
            )
            if execution_trace is not None:
                describe_stages(execution_trace, handoff, entry.store.dictionary)
            answers = AnswerRows(rows, len(handoff.head_slots), entry.store.dictionary)
        evaluation_seconds = 0.0 if pruned else perf_counter() - evaluation_start

        if query_trace is not None:
            query_trace.annotate(graph=graph_name, kind=self.kind)
            query_trace.finish(guard_seconds + evaluation_seconds)
        result = QueryAnswer(
            query=query,
            graph_name=graph_name,
            kind=self.kind,
            answers=answers,
            pruned=pruned,
            prunable=prunable,
            guard_seconds=guard_seconds,
            evaluation_seconds=evaluation_seconds,
            strategy=self.strategy,
            trace=execution_trace,
            saturation=saturation,
            cluster=cluster,
            query_trace=query_trace,
        )
        self._record(result)
        return result

    def _record(self, answer: QueryAnswer) -> None:
        """Count *answer* in the registry and, when it crossed the
        threshold, in the process slow-query log."""
        self._queries.inc()
        (self._pruned if answer.pruned else self._evaluated).inc()
        if not answer.prunable:
            self._unprunable.inc()
        self._guard_seconds.observe(answer.guard_seconds)
        self._evaluation_seconds.observe(answer.evaluation_seconds)
        self._total_seconds.observe(answer.total_seconds)
        slow_log = telemetry.SLOW_LOG
        if answer.total_seconds >= slow_log.threshold_seconds:
            slow_log.record(
                total_seconds=answer.total_seconds,
                graph=answer.graph_name,
                query=str(answer.query.name or "query"),
                sparql=answer.query.to_sparql(),
                guard_seconds=answer.guard_seconds,
                evaluation_seconds=answer.evaluation_seconds,
                pruned=answer.pruned,
                strategy=answer.strategy,
                answer_count=len(answer.answers),
                trace_id=None if answer.query_trace is None else answer.query_trace.trace_id,
            )
