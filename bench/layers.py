"""The traced run: where the time a client waits for goes, layer by layer.

The workload's operation list is replayed *in this process* against a
catalog built like the server's.  Around each call into a layer's public
function a span is recorded — name, start, end, parent, operation id — by
wrapping that function for the duration of a pass (nothing under ``src/``
changes; spans inside the program are a later issue).  A layer's self time
is its span minus what its child spans cover, and every ``*_ms`` metric here
is **mean self time per operation**, so the layer numbers of one workload
add up to ``http.dispatch_ms`` times ``trace.coverage_share``.

Untraced and traced passes alternate; their difference is the tracing
overhead.  Evaluator stage counts come from a further pass of their own,
because handing ``evaluate`` a trace switches off the limit-aware pipelined
plan choice and would change the timings it annotates.
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import repro.server.http as http_module
import repro.service.service as service_module
from repro import telemetry
from repro.cluster import ClusterCoordinator, shm
from repro.core.incremental import IncrementalWeakSummarizer
from repro.server.executor import QueryExecutor
from repro.server.http import ServerApp
from repro.server.persistence import PersistentCatalog
from repro.service.catalog import CatalogEntry, GraphCatalog
from repro.service.evaluator import EncodedEvaluator
from repro.service.planner import ExecutionTrace, QueryPlanner
from repro.service.service import QueryService
from repro.service.statistics import CardinalityStatistics
from repro.store.memory import MemoryStore
from repro.telemetry.tracing import Span as TelemetrySpan
from repro.model.triple import TripleKind

from inputs import GRAPH, IngestOp, Inputs, QueryOp
from loadgen import percentile
from serverproc import GUARD_KINDS, OUT_DIR, cold_build

SUMMARY_KINDS = ("weak", "strong", "type", "typed_weak", "typed_strong")
#: Fewest untraced/traced pass pairs; more are run while the budget lasts,
#: because sums over many passes are what evens out a VM's slow spells.
MIN_ROUNDS = 2
#: Ingest batches per pass that carries writes (and for the cluster probe).
PROBE_BATCHES = 6
#: Spans whose self time is a reported layer metric; ``service.answer``'s own
#: time (lock, cascade ordering, bookkeeping) is the part no metric names.
COVERED = (
    "http.dispatch",
    "queries.parse",
    "executor.answer",
    "guard.weak",
    "guard.strong",
    "evaluator.compile",
    "evaluator.evaluate",
    "planner.plan",
)

Op = Union[QueryOp, IngestOp]
Label = Union[str, Callable[..., str]]


class Spans:
    """An in-memory span log.

    One stack serves every thread: the replay sends one operation at a time
    and the executor's pool thread runs strictly inside its caller's wait,
    so spans nest in time even where they cross threads.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, operation id]``
        self.rows: List[List] = []
        self._stack: List[int] = []
        self.operation = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.rows)
        self.rows.append(
            [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.operation]
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.rows[index][2] = perf_counter()

    def add_tree(self, tree: TelemetrySpan, start: float, parent: int) -> None:
        """Graft a telemetry span tree (durations only): children are laid
        end to end from their parent's start, worker subtrees side by side."""
        index = len(self.rows)
        self.rows.append([f"cluster.{tree.name}", start, start + tree.seconds, parent, self.operation])
        cursor = start
        for child in tree.children:
            self.add_tree(child, cursor, index)
            if not child.name.startswith("worker-"):
                cursor += child.seconds

    def self_seconds(self, operations: Optional[set] = None) -> Dict[str, float]:
        """Total self time by span name (over *operations*, default all)."""
        covered = [0.0] * len(self.rows)
        for _name, start, end, parent, _operation in self.rows:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _parent, operation), inside in zip(self.rows, covered):
            if operations is None or operation in operations:
                totals[name] = totals.get(name, 0.0) + (end - start) - inside
        return totals

    def durations(self, name: str, operations: Optional[set] = None) -> List[float]:
        return [
            end - start
            for span_name, start, end, _parent, operation in self.rows
            if span_name == name and (operations is None or operation in operations)
        ]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "operation"],
                    "spans": self.rows,
                },
                handle,
            )


@contextmanager
def recording(spans: Spans, targets: Sequence[Tuple[object, str, Label]]) -> Iterator[None]:
    """Wrap each ``owner.attribute`` in a span for the duration of the block."""
    originals = []

    def wrap(original, label: Label):
        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(*args, **kwargs)
            with spans.span(name):
                return original(*args, **kwargs)

        return traced

    try:
        for owner, attribute, label in targets:
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, wrap(original, label))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def layer_targets() -> List[Tuple[object, str, Label]]:
    """The public calls a request crosses, outermost first."""
    last_kind = ["weak"]

    # the guard runs ``has_answers(entry.pruning_graph(kind), query)`` per
    # kind: fetching the pruning graph (a summary rebuild after an ingest)
    # and checking it are both that kind's guard time
    def fetch_label(entry, kind="weak", saturated=False) -> str:
        last_kind[0] = kind
        return f"guard.{kind}"

    return [
        (http_module, "parse_query", "queries.parse"),
        (QueryExecutor, "answer", "executor.answer"),
        (QueryService, "answer", "service.answer"),
        (CatalogEntry, "pruning_graph", fetch_label),
        (service_module, "has_answers", lambda graph, query: f"guard.{last_kind[0]}"),
        (EncodedEvaluator, "compile", "evaluator.compile"),
        (EncodedEvaluator, "evaluate", "evaluator.evaluate"),
        (QueryPlanner, "plan", "planner.plan"),
        (GraphCatalog, "add_triples", "catalog.add_triples"),
        (IncrementalWeakSummarizer, "ingest_rows", "core.incremental_ingest"),
        (PersistentCatalog, "append_update", "persistence.append"),
    ]


def _mean_ms(total_seconds: float, count: int) -> float:
    return total_seconds * 1e3 / count if count else 0.0


def _spread(queries: Sequence[QueryOp], batches: Sequence[IngestOp]) -> List[Op]:
    """*queries* with *batches* spread evenly through them, a write first."""
    if not batches:
        return list(queries)
    sequence: List[Op] = []
    stride = -(-len(queries) // len(batches))
    for index, batch in enumerate(batches):
        sequence.append(batch)
        sequence.extend(queries[index * stride : (index + 1) * stride])
    return sequence


class Replay:
    """Dispatches operations into one in-process ``ServerApp``."""

    def __init__(self, app: ServerApp):
        self.app = app
        self.spans = Spans()
        self.traced_ops: List[Op] = []  #: operation id → the operation
        self.traced_pruned: List[bool] = []  #: operation id → the guard refused it
        self.pruned: Dict[str, bool] = {}  #: query name → refused when last seen
        self.response_bytes: List[int] = []
        self.json_seconds = 0.0
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def _request(op: Op) -> Tuple[str, Dict]:
        line, _, rest = op.request.partition(b"\r\n")
        path = line.split(b" ")[1].decode("ascii")
        return path, json.loads(rest.partition(b"\r\n\r\n")[2])

    def run(self, sequence: Sequence[Op], traced: bool) -> List[float]:
        """One pass over *sequence*; the dispatch seconds of its queries."""
        query_seconds: List[float] = []
        dispatch, spans = self.app.dispatch, self.spans
        for op, (path, body) in [(op, self._request(op)) for op in sequence]:
            ingest = isinstance(op, IngestOp)
            if traced:
                spans.operation = len(self.traced_ops)
                with spans.span("request"):
                    start = perf_counter()
                    with spans.span("http.dispatch"):
                        status, payload = dispatch("POST", path, body)
                    seconds = perf_counter() - start
                    with spans.span("http.json"):
                        json.dumps(payload, sort_keys=True)
                self.traced_ops.append(op)
                self.traced_pruned.append(bool(payload.get("pruned")))
            else:
                start = perf_counter()
                status, payload = dispatch("POST", path, body)
                seconds = perf_counter() - start
                if not ingest:
                    start = perf_counter()
                    data = json.dumps(payload, sort_keys=True).encode("utf-8")
                    self.json_seconds += perf_counter() - start
                    self.response_bytes.append(len(data))
            if ingest:
                ok = status == 200 and payload["inserted"] == len(op.triples)
            else:
                query_seconds.append(seconds)
                self.pruned[op.name] = payload["pruned"]
                ok = status == 200 and op.expect.accepts(payload["answers"])
            self.attempted += 1
            self.failed += not ok
        return query_seconds


def _stage_counts(entry: CatalogEntry, queries: Sequence[QueryOp], pruned: Dict[str, bool]):
    """Fetched/produced/probe counts and q-errors of the queries that reach
    the evaluator, from one extra pass with an ``ExecutionTrace``."""
    evaluator = entry.evaluator_for("hash")
    fetched = produced = probes = answers = 0
    q_errors: List[float] = []
    for op in queries:
        if pruned.get(op.name):
            continue
        trace = ExecutionTrace()
        answers += len(evaluator.evaluate(op.query, limit=op.limit, trace=trace))
        for stage in trace.stages:
            fetched += stage.fetched or 0
            produced += stage.produced or 0
            probes += stage.probes
            if stage.cumulative_estimate is not None and stage.produced is not None:
                # q-error of the planner's estimate of the very quantity
                # ``produced`` measures (the binding table after the stage)
                estimate = max(stage.cumulative_estimate, 1.0)
                actual = max(float(stage.produced), 1.0)
                q_errors.append(max(estimate / actual, actual / estimate))
    return {
        "evaluator.fetched_rows_per_answer": fetched / max(answers, 1),
        "evaluator.produced_rows": float(produced),
        "evaluator.probes": float(probes),
        "planner.q_error_p50": percentile(q_errors, 0.5) if q_errors else 1.0,
        "planner.q_error_p95": percentile(q_errors, 0.95) if q_errors else 1.0,
    }


def _build_probes(inputs: Inputs) -> Dict[str, float]:
    """Cold-build stages, one public call each, on a non-persistent catalog."""
    values: Dict[str, float] = {}
    with GraphCatalog() as catalog:
        start = perf_counter()
        entry = catalog.register(GRAPH, graph=inputs.base)
        values["catalog.register_s"] = perf_counter() - start
        for kind in SUMMARY_KINDS:
            start = perf_counter()
            summary = entry.summary(kind)
            values[f"core.summary_{kind}_s"] = perf_counter() - start
            values[f"core.summary_{kind}_edges"] = float(len(summary.graph))
        start = perf_counter()
        CardinalityStatistics.from_store(entry.store)
        values["statistics.from_store_s"] = perf_counter() - start
        rows = [
            (kind, row)
            for kind in TripleKind
            for batch in entry.store.scan_batches(kind)
            for row in batch
        ]
        values["store.column_bytes"] = float(sum(entry.store.column_memory().values()))
    rates = []
    for _repeat in range(3):
        with MemoryStore() as store:
            start = perf_counter()
            store.insert_encoded_rows(rows)
            rates.append(len(rows) / (perf_counter() - start))
    values["store.load_rows_per_s"] = statistics.median(rates)
    return values


def _same_answers(op: QueryOp, answer, reference) -> bool:
    """Two answers to one query on one graph state: equal, or — where the
    limit cut them — both exactly *limit* rows."""
    if op.limit is not None and len(reference.answers) >= op.limit:
        return len(answer.answers) == op.limit
    return answer.answers == reference.answers


def _cluster_probes(
    catalog: GraphCatalog,
    service: QueryService,
    queries: Sequence[QueryOp],
    batches: Sequence[IngestOp],
    spans: Spans,
) -> Tuple[Dict[str, float], int, int]:
    """The same queries through an in-process two-worker coordinator on the
    same catalog; metrics plus (attempted, failed)."""
    values: Dict[str, float] = {}
    failed = 0
    for op in queries:  # the direct side warm on this graph state, too
        service.answer(GRAPH, op.query, limit=op.limit)
    start = perf_counter()
    cluster = ClusterCoordinator(
        catalog, workers=2, kind="+".join(GUARD_KINDS), strategy="hash"
    )
    try:
        values["cluster.start_s"] = perf_counter() - start
        values["cluster.ship_s"] = float(cluster.ship_metrics["ship_seconds_total"])
        values["cluster.ship_bytes"] = float(
            sum(segment["bytes"] for segment in cluster.status()["shm"].get("segments", ()))
        )
        for op in queries:  # lazy shard priming
            cluster.answer(GRAPH, op.query, limit=op.limit)
        clustered = direct = 0.0
        for op in queries:
            start = perf_counter()
            answer = cluster.answer(GRAPH, op.query, limit=op.limit)
            clustered += perf_counter() - start
            start = perf_counter()
            reference = service.answer(GRAPH, op.query, limit=op.limit)
            direct += perf_counter() - start
            failed += not _same_answers(op, answer, reference)
        values["cluster.answer_ms"] = _mean_ms(clustered, len(queries))
        values["cluster.rpc_overhead_ms"] = _mean_ms(clustered - direct, len(queries))
        scattered = pruned = retries = 0
        for op in queries:
            spans.operation += 1
            start = perf_counter()
            answer = cluster.answer(GRAPH, op.query, limit=op.limit, trace=True)
            spans.add_tree(answer.query_trace.root, start, -1)
            scattered += answer.cluster["mode"] == "scatter"
            pruned += answer.cluster["shards_pruned"]
            retries += answer.cluster["retries"]
        values["cluster.scatter_share"] = scattered / len(queries)
        values["cluster.shards_pruned"] = float(pruned)
        values["cluster.retries"] = float(retries)
        ingest = 0.0
        for batch in batches:
            start = perf_counter()
            failed += cluster.add_triples(GRAPH, batch.triples) != len(batch.triples)
            ingest += perf_counter() - start
        values["cluster.add_triples_ms"] = _mean_ms(ingest, len(batches))
    finally:
        cluster.close()
    prefix = f"{shm.SEGMENT_PREFIX}-{os.getpid()}-"
    values["cluster.leaked_segments"] = float(
        sum(1 for name in shm.list_segments() if name.startswith(prefix))
    )
    return values, len(queries) + len(batches), failed


def _written_bytes() -> int:
    """Bytes this process has handed to ``write`` system calls so far."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _replay_metrics(
    replay: Replay, untraced: List[List[float]], traced: List[List[float]]
) -> Dict[str, float]:
    """Layer self times and shares from the span log of the traced passes;
    *untraced* and *traced* hold one list of dispatch seconds per round."""
    spans = replay.spans
    query_ids = {i for i, op in enumerate(replay.traced_ops) if isinstance(op, QueryOp)}
    ingest_ids = set(range(len(replay.traced_ops))) - query_ids
    own = spans.self_seconds(query_ids)
    values = {
        metric: _mean_ms(own.get(span, 0.0), len(query_ids))
        for metric, span in (
            ("queries.parse_ms", "queries.parse"),
            ("evaluator.compile_ms", "evaluator.compile"),
            ("evaluator.evaluate_ms", "evaluator.evaluate"),
            ("planner.plan_ms", "planner.plan"),
            ("guard.weak_ms", "guard.weak"),
            ("guard.strong_ms", "guard.strong"),
            # what dispatch does itself: routing and rendering the answer
            ("http.render_ms", "http.dispatch"),
            ("executor.overhead_ms", "executor.answer"),
        )
    }
    every_untraced = [seconds for part in untraced for seconds in part]
    values["http.dispatch_ms"] = _mean_ms(sum(every_untraced), len(every_untraced))
    values["http.dispatch_p50_ms"] = percentile(every_untraced, 0.5) * 1e3
    values["http.json_ms"] = _mean_ms(replay.json_seconds, len(replay.response_bytes))
    values["http.response_bytes"] = statistics.fmean(replay.response_bytes)
    # a round's two passes run the same operations back to back, so they
    # differ by what the spans cost; the median round shrugs off a slow spell
    values["trace.overhead_share"] = statistics.median(
        sum(with_spans) / sum(without) - 1.0 for with_spans, without in zip(traced, untraced)
    )
    values["trace.coverage_share"] = sum(own.get(name, 0.0) for name in COVERED) / sum(
        sum(part) for part in traced
    )

    guard_total = guard_wasted = 0.0
    for name, start, end, _parent, operation in spans.rows:
        if name.startswith("guard.") and operation in query_ids:
            guard_total += end - start
            if not replay.traced_pruned[operation]:
                guard_wasted += end - start
    values["guard.wasted_share"] = guard_wasted / guard_total if guard_total else 0.0

    own = spans.self_seconds(ingest_ids)
    values["persistence.append_ms"] = _mean_ms(own.get("persistence.append", 0.0), len(ingest_ids))
    values["core.incremental_ingest_ms"] = _mean_ms(
        own.get("core.incremental_ingest", 0.0), len(ingest_ids)
    )
    values["catalog.add_triples_ms"] = _mean_ms(
        sum(spans.durations("catalog.add_triples", ingest_ids)), len(ingest_ids)
    )
    return values


def measure(
    inputs: Inputs, workdir: str, query_p50_ms: float, budget: float
) -> Tuple[Dict[str, float], int, int]:
    """Every replay-derived per-layer metric, plus (attempted, failed).

    *budget* seconds go to the alternating untraced/traced passes (at least
    :data:`MIN_ROUNDS` pairs); everything else here is fixed work.
    """
    values = _build_probes(inputs)
    path = os.path.join(workdir, "replay.db")
    values["persistence.checkpoint_s"] = cold_build(path, inputs.base)["checkpoint_s"]
    start = perf_counter()
    catalog = GraphCatalog.open(path)
    values["persistence.load_s"] = perf_counter() - start
    app = ServerApp(catalog, kind="+".join(GUARD_KINDS), strategy="hash", max_workers=2)
    replay = Replay(app)
    queries = inputs.queries
    pool = list(inputs.ingests)
    # on ingest_with_readers every pass carries writes, as the run does; the
    # read-only workloads get one write pass at the very end
    per_pass = PROBE_BATCHES if inputs.workload == "ingest_with_readers" else 0
    # (a graph too small to hold out that many batches still gets one round,
    # on whatever writes there are)
    max_rounds = max(1, (len(pool) - PROBE_BATCHES) // (2 * per_pass)) if per_pass else 1 << 30

    def take(count: int) -> List[IngestOp]:
        taken, pool[:] = pool[:count], pool[count:]
        return taken

    try:
        entry = catalog.entry(GRAPH)
        replay.run(queries, traced=False)  # first-use builds, plan cache
        replay.json_seconds, replay.response_bytes = 0.0, []
        # the registry's counters, not one planner's: an ingest bumps the
        # version and with it the entry's planner and its private tallies
        plan_hits = telemetry.counter("planner.cache.hits")
        plan_misses = telemetry.counter("planner.cache.misses")
        hits, misses = plan_hits.value, plan_misses.value
        written_before, pool_before = _written_bytes(), len(pool)
        untraced: List[List[float]] = []
        traced: List[List[float]] = []
        targets = layer_targets()
        deadline = perf_counter() + budget
        while len(traced) < max_rounds and (
            len(traced) < MIN_ROUNDS or perf_counter() < deadline
        ):
            untraced.append(replay.run(_spread(queries, take(per_pass)), traced=False))
            with recording(replay.spans, targets):
                traced.append(replay.run(_spread(queries, take(per_pass)), traced=True))
        hits, misses = plan_hits.value - hits, plan_misses.value - misses
        values["planner.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
        values.update(_stage_counts(entry, queries, replay.pruned))
        empty = [op for op in queries if not op.expect.upper]
        values["guard.pruned_share"] = (
            sum(1 for op in empty if replay.pruned[op.name]) / len(empty) if empty else 0.0
        )
        cluster_values, cluster_attempted, cluster_failed = _cluster_probes(
            catalog, app.service, queries, take(min(PROBE_BATCHES, len(pool) // 2)), replay.spans
        )
        values.update(cluster_values)
        if not per_pass:
            with recording(replay.spans, targets):
                replay.run(take(PROBE_BATCHES), traced=True)
        # queries write nothing, so every byte since the mark is an ingest's
        values["persistence.bytes_written_per_triple"] = (_written_bytes() - written_before) / max(
            1, (pool_before - len(pool)) * len(inputs.ingests[0].triples)
        )
        values.update(_replay_metrics(replay, untraced, traced))
        values["http.transport_ms"] = query_p50_ms - values.pop("http.dispatch_p50_ms")
        # what riding the delta out to the workers adds to a durable ingest
        values["cluster.delta_broadcast_ms"] = values.pop("cluster.add_triples_ms") - values.pop(
            "catalog.add_triples_ms"
        )
    finally:
        app.executor.shutdown()
        catalog.close()
    replay.spans.write(os.path.join(OUT_DIR, f"trace_{inputs.workload}.json"))
    return values, replay.attempted + cluster_attempted, replay.failed + cluster_failed
