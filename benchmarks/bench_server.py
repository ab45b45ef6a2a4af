"""Durable serving layer benchmark: warm-start time and multi-client QPS.

Three measurements over one BSBM-scale graph served from a persistent
catalog (``GraphCatalog.open``):

* **warm start** — the catalog is built and checkpointed cold (load +
  encode + summarize + statistics + durable write), then reopened; the
  warm open must be faster than the cold build and must answer its first
  guarded query with **zero** re-summarization / re-scan, asserted via the
  entry's ``build_counters``;
* **read throughput** — a mixed guarded workload is answered once
  serially and once on ``--threads`` threads (``QueryExecutor.map_answers``);
  per-query answer sets must be identical, and the concurrent/serial QPS
  ratio is reported, not gated.  Both laps run warm: an untimed serial
  pass goes first, so the timed serial lap pays no plan-cache miss or
  first-use build the concurrent lap never sees.  Threads have not beaten
  one so far, GIL release in SQLite's C evaluation notwithstanding: at
  ``--scale 800 --count 200 --threads 2`` on a 2-CPU VM the median ratio
  was 0.77× on ``sqlite``/``sql``, 0.67× on ``memory``/``hash`` and 0.32×
  on ``sqlite``/``hash``;
* **HTTP smoke** — the real HTTP front end (:mod:`repro.server.http`) is
  started on the warm catalog, queried over HTTP (query / statistics /
  summary / healthz / ingest), restarted once more (a warm-restart cycle),
  and must return byte-identical answers across the restart.

``--cluster`` switches to the **replicated serving tier benchmark**: the same
BSBM graph is served by :class:`repro.cluster.ClusterCoordinator` pools of
growing worker counts.  Every clustered answer is checked bit-identical
against the serial :class:`QueryService` reference (hard gate), a worker is
SIGKILLed mid-workload and every in-flight client request must still
succeed with the right answers (hard gate), and the worker-count → QPS
scaling curve is recorded (and written to the ``--json`` artifact).  The
``--min-cluster-scaling`` gate (default 2× QPS at the largest worker count
vs one worker) needs real cores: it is skipped with a notice on hosts with
fewer CPUs than workers.

``--telemetry`` switches to the **telemetry plane check**: the workload is
answered once by a freshly built stack, and the registry's
``query.count`` must advance by exactly one per query.  The stack is then
served over HTTP: the ``/metrics`` scrape must parse as Prometheus text
(no metric typed twice) and agree with the work done, a query with
``"trace": true`` must return a span tree, and an induced slow query must
land in ``/debug/slow``.

``--saturated`` switches to the **incremental saturation benchmark**: a
graph is registered and its maintained ``G∞`` store built once, then a
series of small ``add_triples`` batches is ingested.  Each batch must
update ``G∞`` through the delta rules (the saturated build counter stays
at 1), in time proportional to the delta's derivations — gated at
``--min-saturation-speedup`` (default 10×) over the legacy rebuild path
(decode + ``saturate()`` + re-encode), with the maintained store asserted
*identical* to a from-scratch saturation and saturated answers asserted
identical across a warm restart.  ``G∞`` is never checkpointed: the reopen
builds nothing, its first saturated query builds ``G∞`` once (counted
``saturation_builds == 1``), and that build's time is reported beside the
cold one.

Usage
-----
::

    PYTHONPATH=src python benchmarks/bench_server.py            # full run, gates on
    PYTHONPATH=src python benchmarks/bench_server.py --quick    # CI smoke run
    PYTHONPATH=src python benchmarks/bench_server.py --saturated --quick
    PYTHONPATH=src python benchmarks/bench_server.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import sys
import tempfile
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter, sleep
from typing import Dict, List, Optional

from repro import telemetry
from repro.cli import _sqlite_store_factory
from repro.cluster import ClusterCoordinator, shm
from repro.datasets.bsbm import generate_bsbm
from repro.model.graph import RDFGraph
from repro.queries.parser import parse_query
from repro.schema.saturation import saturate
from repro.server.executor import QueryExecutor
from repro.server.http import ServerApp, start_background
from repro.service.catalog import GraphCatalog
from repro.service.evaluator import STRATEGIES
from repro.service.service import QueryService
from repro.service.workload import generate_mixed_workload
from repro.store.memory import MemoryStore

GRAPH_NAME = "bsbm"


def _store_factory(backend: str, directory: str):
    if backend == "memory":
        return MemoryStore
    return _sqlite_store_factory(os.path.join(directory, "stores"))


def _http(method: str, url: str, body: Optional[Dict] = None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if body is not None else {},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def _http_text(url: str):
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.status, response.read().decode("utf-8")


def run_benchmark(args) -> Dict[str, object]:
    scale = 200 if args.quick else args.scale
    count = 16 if args.quick else args.count
    workdir = tempfile.mkdtemp(prefix="bench-server-")
    catalog_path = os.path.join(workdir, "catalog.db")
    report: Dict[str, object] = {
        "scale": scale,
        "backend": args.backend,
        "threads": args.threads,
        "kind": args.kind,
        "strategy": args.strategy,
        "queries": count,
        "quick": args.quick,
    }
    try:
        graph = generate_bsbm(scale=scale, seed=args.seed)
        report["triples"] = len(graph)
        print(f"bsbm scale {scale}: {len(graph)} triples, backend {args.backend}")

        # ------------------------------------------------------------------
        # cold build + durable checkpoint
        # ------------------------------------------------------------------
        start = perf_counter()
        catalog = GraphCatalog.open(catalog_path, store_factory=_store_factory(args.backend, workdir))
        catalog.register(GRAPH_NAME, graph=graph)
        # build the guard's summary, then checkpoint so the warm start
        # below must rebuild *nothing*
        cold_service = QueryService(catalog, kind=args.kind)
        catalog.entry(GRAPH_NAME).summary(cold_service.kind)
        catalog.checkpoint()
        cold_seconds = perf_counter() - start
        catalog.close()
        report["cold_build_seconds"] = cold_seconds

        # ------------------------------------------------------------------
        # warm start: reopen, first guarded query, zero rebuilds
        # ------------------------------------------------------------------
        start = perf_counter()
        catalog = GraphCatalog.open(catalog_path, store_factory=_store_factory(args.backend, workdir))
        warm_seconds = perf_counter() - start
        entry = catalog.entry(GRAPH_NAME)
        service = QueryService(catalog, kind=args.kind, strategy=args.strategy)
        workload = generate_mixed_workload(
            graph,
            count=count,
            unsatisfiable_fraction=args.unsat_fraction,
            seed=args.seed,
            answer_limit=args.limit,
        )
        report["warm_open_seconds"] = warm_seconds
        first = service.answer(GRAPH_NAME, workload[0].query, limit=args.limit)
        rebuilt = {name: hits for name, hits in entry.build_counters.items() if hits}
        report["warm_first_query_rebuilds"] = rebuilt
        report["warm_speedup"] = cold_seconds / warm_seconds if warm_seconds else float("inf")
        print(
            f"cold build {cold_seconds:.3f}s, warm open {warm_seconds:.3f}s "
            f"({report['warm_speedup']:.1f}x), first query "
            f"{'PRUNED' if first.pruned else f'{len(first.answers)} answers'}, "
            f"rebuilds on warm start: {rebuilt or 'none'}"
        )

        # ------------------------------------------------------------------
        # serial vs concurrent read throughput (same workload, same limits)
        # ------------------------------------------------------------------
        queries = [item.query for item in workload]
        # one serial lap off the clock: the first pass over the workload pays
        # its plan-cache misses and first-use builds, which would otherwise
        # land on the timed serial lap and never on the concurrent one
        for query in queries:
            service.answer(GRAPH_NAME, query, limit=args.limit)
        start = perf_counter()
        serial_answers = [
            service.answer(GRAPH_NAME, query, limit=args.limit).answers for query in queries
        ]
        serial_seconds = perf_counter() - start

        # soundness: the serving strategy must agree, query by query, with
        # the reference hash executor.  Under a limit two strategies may
        # legitimately pick different answer subsets, so a clipped result
        # is checked for size and containment against the full answer set.
        reference = QueryService(catalog, kind=args.kind, strategy="hash")
        strategy_differences = 0
        for query, served in zip(queries, serial_answers):
            full = reference.answer(GRAPH_NAME, query).answers
            if args.limit is not None and len(full) > args.limit:
                agrees = len(served) == args.limit and served <= full
            else:
                agrees = served == full
            if not agrees:
                strategy_differences += 1
        report["strategy_differences"] = strategy_differences

        executor = QueryExecutor(service, max_workers=args.threads)
        # one warm lap off the clock (each lap's threads are new, so every
        # timed lap still opens its threads' SQLite read connections)
        executor.map_answers(GRAPH_NAME, queries[: args.threads], limit=args.limit)
        start = perf_counter()
        concurrent = executor.map_answers(GRAPH_NAME, queries, limit=args.limit)
        concurrent_seconds = perf_counter() - start
        executor.shutdown()

        differences = sum(
            1
            for serial, parallel in zip(serial_answers, concurrent)
            if serial != parallel.answers
        )
        serial_qps = len(queries) / serial_seconds if serial_seconds else float("inf")
        concurrent_qps = (
            len(queries) / concurrent_seconds if concurrent_seconds else float("inf")
        )
        scaling = concurrent_qps / serial_qps if serial_qps else float("inf")
        report.update(
            {
                "serial_seconds": serial_seconds,
                "concurrent_seconds": concurrent_seconds,
                "serial_qps": serial_qps,
                "concurrent_qps": concurrent_qps,
                "scaling": scaling,
                "answer_differences": differences,
                "cpus": os.cpu_count() or 1,
            }
        )
        print(
            f"read throughput: serial {serial_qps:.1f} qps, "
            f"{args.threads}-thread {concurrent_qps:.1f} qps "
            f"({scaling:.2f}x on {report['cpus']} cpu(s)), "
            f"{differences} answer-set differences, "
            f"{strategy_differences} strategy disagreements vs hash"
        )

        # ------------------------------------------------------------------
        # HTTP smoke with one warm-restart cycle
        # ------------------------------------------------------------------
        probe = next(
            (item.query for item in workload if item.satisfiable), workload[0].query
        )
        probe_body = {"query": probe.to_sparql(), "limit": args.limit}

        app = ServerApp(catalog, kind=args.kind, strategy=args.strategy, max_workers=args.threads)
        server, _thread = start_background(app)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        status, health = _http("GET", f"{base}/healthz")
        assert status == 200 and health["status"] == "ok", health
        status, before = _http("POST", f"{base}/graphs/{GRAPH_NAME}/query", probe_body)
        assert status == 200, before
        status, statistics = _http("GET", f"{base}/graphs/{GRAPH_NAME}/statistics")
        assert status == 200 and statistics["store"]["total_rows"] == len(graph), statistics
        status, summary = _http("GET", f"{base}/graphs/{GRAPH_NAME}/summary/weak")
        assert status == 200 and summary["statistics"]["all_edge_count"] > 0, summary
        status, ingest = _http(
            "POST",
            f"{base}/graphs/{GRAPH_NAME}/triples",
            {"triples": "<http://bench.example/s> <http://bench.example/p> <http://bench.example/o> .\n"},
        )
        assert status == 200 and ingest["inserted"] == 1, ingest
        server.shutdown()
        server.server_close()
        app.close()
        catalog.close()

        # warm-restart cycle: reopen the catalog (the ingest above must have
        # been written through), serve again, answers must match
        catalog = GraphCatalog.open(catalog_path, store_factory=_store_factory(args.backend, workdir))
        restarted_entry = catalog.entry(GRAPH_NAME)
        app = ServerApp(catalog, kind=args.kind, strategy=args.strategy, max_workers=args.threads)
        server, _thread = start_background(app)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        status, after = _http("POST", f"{base}/graphs/{GRAPH_NAME}/query", probe_body)
        assert status == 200, after
        restart_consistent = before["answers"] == after["answers"]
        restart_rebuilds = {
            name: hits for name, hits in restarted_entry.build_counters.items() if hits
        }
        status, restarted_stats = _http("GET", f"{base}/graphs/{GRAPH_NAME}/statistics")
        ingest_survived = restarted_stats["store"]["total_rows"] == len(graph) + 1
        server.shutdown()
        server.server_close()
        app.close()
        catalog.close()
        report.update(
            {
                "http_restart_consistent": restart_consistent,
                "http_restart_rebuilds": restart_rebuilds,
                "http_ingest_survived_restart": ingest_survived,
            }
        )
        print(
            f"http smoke: restart answers {'identical' if restart_consistent else 'DIFFER'}, "
            f"ingest {'survived' if ingest_survived else 'LOST'}, "
            f"warm-restart rebuilds: {restart_rebuilds or 'none'}"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def run_saturation_benchmark(args) -> Dict[str, object]:
    """Incremental G∞ maintenance vs the legacy rebuild-per-update path."""
    scale = 200 if args.quick else args.scale
    batch_size = args.ingest_batch
    batch_count = 2 if args.quick else args.ingest_batches
    workdir = tempfile.mkdtemp(prefix="bench-saturation-")
    catalog_path = os.path.join(workdir, "catalog.db")
    report: Dict[str, object] = {
        "mode": "saturated",
        "scale": scale,
        "quick": args.quick,
        "ingest_batch": batch_size,
        "ingest_batches": batch_count,
    }
    try:
        graph = generate_bsbm(scale=scale, seed=args.seed)
        triples = sorted(graph)
        # hold the update batches out of the initial load; shuffling mixes
        # data / type / (occasionally) schema rows into the deltas
        random.Random(args.seed).shuffle(triples)
        holdout = batch_size * batch_count
        base = RDFGraph(triples[:-holdout], name=GRAPH_NAME)
        batches = [
            triples[len(triples) - holdout + index * batch_size :][:batch_size]
            for index in range(batch_count)
        ]
        report["triples"] = len(graph)
        print(
            f"bsbm scale {scale}: {len(graph)} triples, "
            f"{batch_count} ingest batches of {batch_size}"
        )

        catalog = GraphCatalog.open(catalog_path)
        entry = catalog.register(GRAPH_NAME, graph=base)
        service = QueryService(catalog)
        workload = generate_mixed_workload(
            base, count=16, unsatisfiable_fraction=0.25, seed=args.seed, answer_limit=args.limit
        )
        queries = [item.query for item in workload]

        # initial G∞ build (the one full-cost pass of the graph's lifetime)
        entry.evaluator_for(saturated=True)
        # no limit on the probe answers: monotonicity (G-inf only grows
        # under ingest) is only checkable on full answer sets
        before_answers = [
            service.answer(GRAPH_NAME, query, saturated=True).answers for query in queries
        ]
        metrics = entry.saturation_metrics()
        report["build_seconds"] = metrics["build_seconds"]
        report["saturated_rows"] = metrics["store_rows"]
        print(
            f"initial G-inf build: {metrics['store_rows']} rows "
            f"({metrics['derived_rows']} derived) in {metrics['build_seconds']:.3f}s"
        )

        for batch in batches:
            catalog.add_triples(GRAPH_NAME, batch)
        metrics = entry.saturation_metrics()
        delta_seconds = metrics["total_delta_seconds"] / max(1, metrics["deltas"])
        report["delta_seconds_mean"] = delta_seconds
        report["saturation_builds"] = entry.build_counters["saturation_builds"]

        # the legacy path: decode the whole store, saturate, re-encode
        rebuild_start = perf_counter()
        rebuilt_graph = saturate(entry.to_graph())
        rebuilt_store = MemoryStore()
        rebuilt_store.load_graph(rebuilt_graph)
        rebuild_seconds = perf_counter() - rebuild_start
        report["rebuild_seconds"] = rebuild_seconds
        speedup = rebuild_seconds / delta_seconds if delta_seconds else float("inf")
        report["saturation_speedup"] = speedup

        maintained = set(entry.evaluator_for(saturated=True).store.to_graph())
        report["stores_identical"] = maintained == set(rebuilt_graph)
        rebuilt_store.close()
        after_answers = [
            service.answer(GRAPH_NAME, query, saturated=True).answers for query in queries
        ]
        report["answers_monotone"] = all(
            before <= after for before, after in zip(before_answers, after_answers)
        )
        print(
            f"delta maintenance: {delta_seconds*1000:.2f} ms/batch vs rebuild "
            f"{rebuild_seconds*1000:.1f} ms ({speedup:.1f}x), stores "
            f"{'identical' if report['stores_identical'] else 'DIFFER'}"
        )

        # warm restart: nothing of G∞ is in the file, so the reopen builds
        # nothing and the first saturated query builds it, once
        catalog.checkpoint()
        catalog.close()
        catalog = GraphCatalog.open(catalog_path)
        entry = catalog.entry(GRAPH_NAME)
        report["warm_saturation_builds_at_open"] = entry.build_counters["saturation_builds"]
        service = QueryService(catalog)
        warm_answers = [
            service.answer(GRAPH_NAME, query, saturated=True).answers for query in queries
        ]
        report["warm_answers_identical"] = warm_answers == after_answers
        report["warm_saturation_builds"] = entry.build_counters["saturation_builds"]
        report["warm_build_seconds"] = entry.saturation_metrics()["build_seconds"]
        catalog.close()
        print(
            f"warm restart: answers "
            f"{'identical' if report['warm_answers_identical'] else 'DIFFER'}, "
            f"saturation builds {report['warm_saturation_builds_at_open']} at open, "
            f"{report['warm_saturation_builds']} after the first saturated query "
            f"({report['warm_build_seconds']:.3f}s; cold {report['build_seconds']:.3f}s)"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


_PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|\+?Inf|NaN))$"
)


def parse_prometheus(text: str) -> Dict[str, object]:
    """Parse a Prometheus text exposition; raises ValueError on bad lines.

    Returns ``{"samples": {series: value}, "types": {metric: kind}}`` where
    *series* is the metric name with its label set verbatim.
    """
    samples: Dict[str, float] = {}
    types: Dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                raise ValueError(f"malformed TYPE line: {line!r}")
            if parts[2] in types:
                raise ValueError(f"metric typed twice: {parts[2]!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        series = match.group("name") + (match.group("labels") or "")
        if series in samples:
            raise ValueError(f"duplicate series: {series!r}")
        samples[series] = float(match.group("value").replace("Inf", "inf"))
    return {"samples": samples, "types": types}


def _check_scrape(scrape: Dict[str, object], queries_run: int) -> List[str]:
    """Internal-consistency checks of one parsed /metrics scrape."""
    problems: List[str] = []
    samples = scrape["samples"]
    types = scrape["types"]
    count = samples.get("repro_query_count_total")
    if count is None or count < queries_run:
        problems.append(
            f"repro_query_count_total is {count}, expected >= {queries_run}"
        )
    for metric, kind in types.items():
        if kind != "histogram":
            continue
        total = samples.get(f"{metric}_count")
        if total is None:
            problems.append(f"{metric} has no _count sample")
            continue
        buckets = []
        for series, value in samples.items():
            if not series.startswith(f"{metric}_bucket{{"):
                continue
            le = re.search(r'le="([^"]+)"', series)
            if le is None:
                problems.append(f"{series} has no le label")
                continue
            buckets.append((float(le.group(1).replace("+Inf", "inf")), value))
        buckets.sort()
        if not buckets or buckets[-1][0] != float("inf"):
            problems.append(f"{metric} buckets do not end at +Inf")
            continue
        cumulative = [value for _le, value in buckets]
        if any(a > b for a, b in zip(cumulative, cumulative[1:])):
            problems.append(f"{metric} bucket counts are not cumulative")
        if cumulative[-1] != total:
            problems.append(
                f"{metric} +Inf bucket ({cumulative[-1]}) != _count ({total})"
            )
    if samples.get("repro_query_total_seconds_count", 0) < queries_run:
        problems.append("repro_query_total_seconds histogram missed queries")
    return problems


def run_telemetry_benchmark(args) -> Dict[str, object]:
    """Telemetry plane: one count per query, scrape parseability, slow-log capture."""
    scale = 200 if args.quick else args.scale
    count = 16 if args.quick else args.count
    report: Dict[str, object] = {"mode": "telemetry", "scale": scale, "quick": args.quick}
    graph = generate_bsbm(scale=scale, seed=args.seed)
    report["triples"] = len(graph)
    workload = generate_mixed_workload(
        graph,
        count=count,
        unsatisfiable_fraction=args.unsat_fraction,
        seed=args.seed,
        answer_limit=args.limit,
    )
    report["queries"] = len(workload)
    print(
        f"bsbm scale {scale}: {len(graph)} triples, {len(workload)} queries "
        f"(memory store, hash joins)"
    )

    telemetry.REGISTRY.clear()
    telemetry.SLOW_LOG.clear()
    catalog = GraphCatalog()
    catalog.register(GRAPH_NAME, graph=graph)
    service = QueryService(catalog, kind=args.kind, strategy="hash")
    query_count = telemetry.counter("query.count")
    try:
        before = query_count.value
        for item in workload:
            service.answer(GRAPH_NAME, item.query, limit=args.limit)
        queries_run = int(query_count.value - before)
        report["queries_recorded"] = queries_run
        print(f"registry: query.count advanced by {queries_run} over {len(workload)} queries")

        # ------------------------------------------------------------------
        # HTTP: scrape, span tree, induced slow query
        # ------------------------------------------------------------------
        probe = next(
            (item.query for item in workload if item.satisfiable), workload[0].query
        )
        app = ServerApp(catalog, kind=args.kind, strategy="hash", max_workers=4)
        server, _thread = start_background(app)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        old_threshold = telemetry.SLOW_LOG.threshold_seconds
        try:
            status, traced = _http(
                "POST",
                f"{base}/graphs/{GRAPH_NAME}/query",
                {"query": probe.to_sparql(), "limit": args.limit, "trace": True},
            )
            assert status == 200, traced
            tree = traced.get("query_trace")
            trace_ok = (
                isinstance(tree, dict)
                and bool(tree.get("trace_id"))
                and tree.get("name") == "query"
                and bool(tree.get("children"))
            )
            report["trace_tree_ok"] = trace_ok

            # induce a slow query: with the threshold at ~0, anything lands
            telemetry.SLOW_LOG.clear()
            telemetry.SLOW_LOG.threshold_seconds = 1e-9
            status, _answer = _http(
                "POST",
                f"{base}/graphs/{GRAPH_NAME}/query",
                {"query": probe.to_sparql(), "limit": args.limit},
            )
            assert status == 200
            status, slow = _http("GET", f"{base}/debug/slow")
            assert status == 200, slow
            report["slow_log_captured"] = any(
                entry["graph"] == GRAPH_NAME for entry in slow["entries"]
            )

            status, scrape_text = _http_text(f"{base}/metrics")
            assert status == 200
            if args.scrape_output:
                with open(args.scrape_output, "w", encoding="utf-8") as handle:
                    handle.write(scrape_text)
                print(f"scrape written to {args.scrape_output}")
            try:
                scrape = parse_prometheus(scrape_text)
                report["scrape_errors"] = _check_scrape(scrape, queries_run)
                report["scrape_series"] = len(scrape["samples"])
                report["scrape_metrics"] = len(scrape["types"])
            except ValueError as error:
                report["scrape_errors"] = [str(error)]
                report["scrape_series"] = 0
                report["scrape_metrics"] = 0
            print(
                f"http: span tree {'ok' if trace_ok else 'MISSING'}, slow query "
                f"{'captured' if report['slow_log_captured'] else 'LOST'}, scrape "
                f"{report['scrape_metrics']} metrics / {report['scrape_series']} series, "
                f"{len(report['scrape_errors'])} consistency problem(s)"
            )
        finally:
            telemetry.SLOW_LOG.threshold_seconds = old_threshold
            telemetry.SLOW_LOG.clear()
            server.shutdown()
            server.server_close()
            app.close()
    finally:
        catalog.close()
    return report


def run_cluster_benchmark(args) -> Dict[str, object]:
    """Replicated serving tier: scaling curve, answer parity, crash recovery."""
    scale = 200 if args.quick else args.scale
    count = 16 if args.quick else args.count
    laps = 2 if args.quick else 4
    worker_counts = sorted({int(part) for part in args.cluster_workers.split(",")})
    # cluster workers hold their replicas in MemoryStores, where the
    # sql strategy has no backing table — same clamp the serve CLI applies
    strategy = args.strategy if args.strategy != "sql" else "hash"
    report: Dict[str, object] = {
        "mode": "cluster",
        "scale": scale,
        "queries": count,
        "laps": laps,
        "kind": args.kind,
        "strategy": strategy,
        "client_threads": args.threads,
        "worker_counts": worker_counts,
        "quick": args.quick,
        "cpus": os.cpu_count() or 1,
    }
    graph = generate_bsbm(scale=scale, seed=args.seed)
    report["triples"] = len(graph)
    print(
        f"bsbm scale {scale}: {len(graph)} triples, worker counts {worker_counts}, "
        f"{args.threads} client thread(s) on {report['cpus']} cpu(s)"
    )

    catalog = GraphCatalog()
    catalog.register(GRAPH_NAME, graph=graph)
    serial = QueryService(catalog, kind=args.kind, strategy=strategy)
    workload = generate_mixed_workload(
        graph,
        count=count,
        unsatisfiable_fraction=args.unsat_fraction,
        seed=args.seed,
        answer_limit=args.limit,
    )
    queries = [item.query for item in workload]
    # full (unlimited) answer sets so parity is exact set equality — under a
    # limit, two evaluation orders may legitimately pick different subsets
    reference = [serial.answer(GRAPH_NAME, query, limit=None).answers for query in queries]

    # ----------------------------------------------------------------------
    # scaling curve: the same workload through coordinators of growing size
    # ----------------------------------------------------------------------
    curve: List[Dict[str, object]] = []
    differences = 0
    try:
        for workers in worker_counts:
            coordinator = ClusterCoordinator(
                catalog,
                workers=workers,
                kind=args.kind,
                strategy=strategy,
                heartbeat_seconds=0,
            )
            try:
                # warm lap: primes each worker's summaries, verifies
                # bit-identical answers against the serial reference, query
                # by query
                for query, expected in zip(queries, reference):
                    answer = coordinator.answer(GRAPH_NAME, query, limit=None)
                    if answer.answers != expected:
                        differences += 1

                timed = queries * laps
                start = perf_counter()
                with ThreadPoolExecutor(max_workers=args.threads) as pool:
                    list(
                        pool.map(
                            lambda query: coordinator.answer(GRAPH_NAME, query, limit=None),
                            timed,
                        )
                    )
                seconds = perf_counter() - start
                qps = len(timed) / seconds if seconds else float("inf")
                curve.append({"workers": workers, "qps": qps, "seconds": seconds})
                print(f"  {workers} worker(s): {qps:.1f} qps ({len(timed)} queries in {seconds:.3f}s)")
            finally:
                coordinator.close()
        report["scaling_curve"] = curve
        report["answer_differences"] = differences
        baseline = curve[0]["qps"]
        peak = curve[-1]["qps"]
        report["cluster_scaling"] = peak / baseline if baseline else float("inf")
        print(
            f"scaling: {curve[-1]['workers']} workers at {report['cluster_scaling']:.2f}x "
            f"the 1-worker QPS, {differences} answer-set differences vs serial"
        )

        # ------------------------------------------------------------------
        # shipping plane: the graph packed once into a segment every worker
        # attaches, the re-ship after a kill, and the column memory the
        # workers hold privately vs adopt from the segment
        # ------------------------------------------------------------------
        ship_workers = max(worker_counts)
        # a private empty catalog: the workers spawn and drain a ping
        # first, so the measured ship excludes interpreter start-up
        ship_catalog = GraphCatalog()
        coordinator = ClusterCoordinator(
            ship_catalog,
            workers=ship_workers,
            kind=args.kind,
            strategy=strategy,
            heartbeat_seconds=0.2,
        )
        try:
            coordinator.worker_metrics()  # barrier: every main loop is up
            coordinator.register(GRAPH_NAME, graph=graph)
            ship_seconds = coordinator.ship_metrics["ship_seconds_total"]
            ship_diffs = 0
            for query, expected in zip(queries, reference):
                answer = coordinator.answer(GRAPH_NAME, query, limit=None)
                if answer.answers != expected:
                    ship_diffs += 1
            # re-ship: SIGKILL one worker, let the heartbeat respawn it
            victim = coordinator.status()["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = perf_counter() + 60.0
            while perf_counter() < deadline:
                status = coordinator.status()
                if (
                    status["ship_metrics"]["reships"] >= 1
                    and all(w["alive"] for w in status["workers"])
                ):
                    break
                sleep(0.05)
            status = coordinator.status()
            worker_metrics = coordinator.worker_metrics()
            private = sum(
                (m or {}).get("column_memory", {}).get("private_bytes", 0)
                for m in worker_metrics
            )
            adopted = sum(
                (m or {}).get("column_memory", {}).get("adopted_bytes", 0)
                for m in worker_metrics
            )
            shipping = {
                "workers": ship_workers,
                "ship_seconds": ship_seconds,
                "reship_seconds": status["ship_metrics"]["reship_seconds_total"],
                "answer_differences": ship_diffs,
                "aggregate_private_bytes": private,
                "aggregate_adopted_bytes": adopted,
                "worker_rss_kb": [(m or {}).get("rss_kb") for m in worker_metrics],
                "attach_seconds": [
                    (w["last_load"] or {}).get("attach_seconds") for w in status["workers"]
                ],
                "segments": status["shm"]["segments"],
                "packs": status["shm"]["packs"],
            }
            print(
                f"  shipping x{ship_workers} workers: ship {ship_seconds:.3f}s, "
                f"re-ship {shipping['reship_seconds']:.3f}s, "
                f"{private / 1e6:.1f} MB private / {adopted / 1e6:.1f} MB adopted columns, "
                f"{ship_diffs} answer-set differences"
            )
        finally:
            coordinator.close()
            ship_catalog.close()
        report["shipping"] = shipping

        # ------------------------------------------------------------------
        # crash injection: SIGKILL workers under a live client stream
        # ------------------------------------------------------------------
        coordinator = ClusterCoordinator(
            catalog,
            workers=min(2, max(worker_counts)),
            kind=args.kind,
            strategy=strategy,
            heartbeat_seconds=0.2,
        )
        errors: List[BaseException] = []
        crash_diffs = 0
        stop = threading.Event()
        expected_by_text = dict(zip([q.to_sparql() for q in queries], reference))

        def client() -> None:
            nonlocal crash_diffs
            while not stop.is_set():
                for query in queries:
                    try:
                        answer = coordinator.answer(GRAPH_NAME, query, limit=None)
                    except Exception as error:  # noqa: BLE001 - recorded as a gate
                        errors.append(error)
                        stop.set()
                        return
                    if answer.answers != expected_by_text[query.to_sparql()]:
                        crash_diffs += 1

        try:
            clients = [threading.Thread(target=client) for _ in range(3)]
            for thread in clients:
                thread.start()
            kills = 0
            for _ in range(2):
                deadline = perf_counter() + 10.0
                while perf_counter() < deadline:
                    victims = [
                        worker
                        for worker in coordinator.status()["workers"]
                        if worker["alive"] and worker["pid"] is not None
                    ]
                    if victims:
                        os.kill(victims[0]["pid"], signal.SIGKILL)
                        kills += 1
                        break
                    stop.wait(0.05)  # a respawn is in flight; wait for a target
                # let the stream run over the respawn before the next kill
                stop.wait(0.4)
            stop.wait(0.3)
            stop.set()
            for thread in clients:
                thread.join(timeout=120)
            status = coordinator.status()
            respawns = sum(worker["respawns"] for worker in status["workers"])
            crash_packs = status["shm"]["packs"]
        finally:
            coordinator.close()
        report.update(
            {
                "crash_kills": kills,
                "crash_respawns": respawns,
                "crash_failed_requests": len(errors),
                "crash_answer_differences": crash_diffs,
                # respawn recovery must re-attach, never repack: one pack
                # at register, zero after any kill
                "crash_packs": crash_packs,
                "crash_repacked": crash_packs != 1,
                # every coordinator is closed by now: a clean run leaves
                # nothing named in /dev/shm
                "leaked_segments": shm.list_segments(),
                "crash_recovered": kills >= 1
                and respawns >= 1
                and not errors
                and not crash_diffs,
            }
        )
        print(
            f"crash injection: {kills} SIGKILL(s), {respawns} respawn(s), "
            f"{len(errors)} failed request(s), {crash_diffs} wrong answer(s)"
        )
        if errors:
            report["crash_first_error"] = repr(errors[0])
            print(f"  first failure: {errors[0]!r}", file=sys.stderr)
    finally:
        catalog.close()
    return report


def evaluate_serving_gates(args, report) -> List[str]:
    failures: List[str] = []
    if report["answer_differences"]:
        failures.append(
            f"{report['answer_differences']} answer-set differences between the "
            f"serial and the concurrent path"
        )
    if report["strategy_differences"]:
        failures.append(
            f"{report['strategy_differences']} queries where the "
            f"{args.strategy} strategy disagrees with the hash reference"
        )
    if report["warm_first_query_rebuilds"]:
        failures.append(
            f"warm start rebuilt state: {report['warm_first_query_rebuilds']} "
            f"(expected zero re-summarization / re-scan)"
        )
    if not report["http_restart_consistent"]:
        failures.append("answers changed across the HTTP warm-restart cycle")
    if not report["http_ingest_survived_restart"]:
        failures.append("an ingested triple was lost across the restart")
    if not args.quick and report["warm_speedup"] < 1.0:
        failures.append(
            f"warm open ({report['warm_open_seconds']:.3f}s) is slower than the "
            f"cold build ({report['cold_build_seconds']:.3f}s)"
        )
    return failures


def evaluate_saturation_gates(args, report) -> List[str]:
    failures: List[str] = []
    if not report["stores_identical"]:
        failures.append("the maintained G-inf store differs from saturate()-from-scratch")
    if not report["answers_monotone"]:
        failures.append("a saturated answer set shrank after ingest (lost derivations)")
    if report["saturation_builds"] != 1:
        failures.append(
            f"expected exactly 1 full saturation build, counted "
            f"{report['saturation_builds']} (the delta path fell back to rebuilds)"
        )
    if not report["warm_answers_identical"]:
        failures.append("saturated answers changed across the warm restart")
    if (report["warm_saturation_builds_at_open"], report["warm_saturation_builds"]) != (0, 1):
        failures.append(
            f"expected 0 saturation builds at the warm open and 1 at its first saturated "
            f"query, counted {report['warm_saturation_builds_at_open']} and "
            f"{report['warm_saturation_builds']}"
        )
    if report["rebuild_seconds"] < 0.05:
        # too small to time the rebuild reliably — the correctness gates
        # above still ran; report the ratio without gating on it
        print(
            f"SKIPPED: the {args.min_saturation_speedup:.0f}x saturation-speedup gate "
            f"needs a rebuild baseline >= 50 ms to be meaningful (measured "
            f"{report['rebuild_seconds']*1000:.1f} ms on this input/runner); "
            f"measured ratio: {report['saturation_speedup']:.1f}x",
            file=sys.stderr,
        )
    elif report["saturation_speedup"] < args.min_saturation_speedup:
        failures.append(
            f"delta maintenance is only {report['saturation_speedup']:.1f}x faster than "
            f"the rebuild path (gate: {args.min_saturation_speedup:.0f}x)"
        )
    return failures


def evaluate_telemetry_gates(args, report) -> List[str]:
    failures: List[str] = []
    if report["queries_recorded"] != report["queries"]:
        failures.append(
            f"query.count advanced by {report['queries_recorded']} over "
            f"{report['queries']} queries (each answer counts once)"
        )
    if not report["trace_tree_ok"]:
        failures.append("the traced HTTP query returned no usable span tree")
    if not report["slow_log_captured"]:
        failures.append("the induced slow query did not land in /debug/slow")
    for problem in report["scrape_errors"]:
        failures.append(f"/metrics scrape: {problem}")
    return failures


def evaluate_cluster_gates(args, report) -> List[str]:
    failures: List[str] = []
    if report["answer_differences"]:
        failures.append(
            f"{report['answer_differences']} answer-set differences between the "
            f"cluster and the serial reference"
        )
    if report["leaked_segments"]:
        failures.append(
            f"named shared-memory segments leaked past shutdown: "
            f"{report['leaked_segments']}"
        )
    if report["crash_repacked"]:
        failures.append(
            f"crash injection repacked the segment plane: {report['crash_packs']} "
            f"pack(s) for an unchanged generation (re-ship must re-attach)"
        )
    if report["shipping"]["answer_differences"]:
        failures.append(
            f"{report['shipping']['answer_differences']} answer-set differences "
            f"between the freshly shipped cluster and the serial reference"
        )
    # the shipping section ingests nothing: every column byte a worker holds
    # must be a view over the one segment, none a private copy
    if report["shipping"]["aggregate_private_bytes"] or not report["shipping"]["aggregate_adopted_bytes"]:
        failures.append(
            f"workers do not share the segment: "
            f"{report['shipping']['aggregate_private_bytes']} private vs "
            f"{report['shipping']['aggregate_adopted_bytes']} adopted column bytes"
        )
    if not report["crash_recovered"]:
        failures.append(
            f"crash injection did not recover cleanly: {report['crash_kills']} kill(s), "
            f"{report['crash_respawns']} respawn(s), "
            f"{report['crash_failed_requests']} failed request(s), "
            f"{report['crash_answer_differences']} wrong answer(s)"
        )
    peak_workers = report["worker_counts"][-1]
    if report["cpus"] < peak_workers:
        # worker processes beyond the core count time-slice instead of
        # running in parallel; the curve is still recorded, but gating on
        # it would fail for reasons unrelated to the code under test
        print(
            f"SKIPPED: the {args.min_cluster_scaling:.1f}x cluster scaling gate needs "
            f">= {peak_workers} CPUs (this host has {report['cpus']}); "
            f"measured ratio: {report['cluster_scaling']:.2f}x",
            file=sys.stderr,
        )
    elif report["cluster_scaling"] < args.min_cluster_scaling:
        failures.append(
            f"{peak_workers}-worker throughput is only {report['cluster_scaling']:.2f}x "
            f"the 1-worker QPS (gate: {args.min_cluster_scaling:.1f}x)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small input, correctness checks only (CI smoke mode; no gates)",
    )
    parser.add_argument(
        "--scale", type=int, default=3200, help="BSBM scale for the full run (3200 ≈ 110k triples)"
    )
    parser.add_argument("--seed", type=int, default=0, help="generator/workload seed")
    parser.add_argument("--count", type=int, default=64, help="workload size")
    parser.add_argument(
        "--unsat-fraction",
        type=float,
        default=0.4,
        help="unsatisfiable share of the workload",
    )
    parser.add_argument(
        "--threads", type=int, default=8, help="concurrent reader threads"
    )
    parser.add_argument(
        "--backend",
        default="sqlite",
        choices=["memory", "sqlite"],
        help="store backend: sqlite (file-backed; its C join releases the "
        "GIL) or memory (reads serialized by the GIL)",
    )
    parser.add_argument(
        "--kind", default="strong", help="summary kind the service's guard checks"
    )
    parser.add_argument(
        "--strategy",
        default="sql",
        choices=list(STRATEGIES),
        help="serving join strategy; sql (whole-join pushdown, the default) "
        "has its answers cross-checked against the hash reference",
    )
    parser.add_argument(
        "--limit", type=int, default=100, help="distinct answers served per query"
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="run the replicated serving tier benchmark instead of the serving "
        "benchmark (scaling curve, answer parity, crash injection)",
    )
    parser.add_argument(
        "--cluster-workers",
        default="1,2,4",
        help="comma-separated worker counts for the --cluster scaling curve",
    )
    parser.add_argument(
        "--min-cluster-scaling",
        type=float,
        default=2.0,
        help="required peak/1-worker QPS ratio in --cluster mode (skipped "
        "with notice when the host has fewer CPUs than peak workers)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="run the telemetry plane check instead of the serving "
        "benchmark (one count per query, /metrics scrape, slow-query log)",
    )
    parser.add_argument(
        "--scrape-out",
        dest="scrape_output",
        help="write the raw /metrics exposition to this file (--telemetry mode)",
    )
    parser.add_argument(
        "--saturated",
        action="store_true",
        help="run the incremental G∞ maintenance benchmark instead of the "
        "serving benchmark (delta ingest vs rebuild-per-update)",
    )
    parser.add_argument(
        "--ingest-batch",
        type=int,
        default=100,
        help="triples per add_triples batch in --saturated mode",
    )
    parser.add_argument(
        "--ingest-batches",
        type=int,
        default=5,
        help="number of ingest batches in --saturated mode (2 under --quick)",
    )
    parser.add_argument(
        "--min-saturation-speedup",
        type=float,
        default=10.0,
        help="required rebuild/delta time ratio in --saturated mode "
        "(skipped with notice when the rebuild baseline is too small to time)",
    )
    parser.add_argument("--json", dest="json_output", help="write the report as JSON")
    args = parser.parse_args(argv)

    if args.cluster:
        report = run_cluster_benchmark(args)
        failures = evaluate_cluster_gates(args, report)
        pass_line = (
            f"\nPASS: cluster answers identical to serial at every worker count, "
            f"crash injection recovered ({report['crash_respawns']} respawn(s), zero "
            f"failed requests, zero leaked segments), peak scaling "
            f"{report['cluster_scaling']:.2f}x"
        )
    elif args.telemetry:
        report = run_telemetry_benchmark(args)
        failures = evaluate_telemetry_gates(args, report)
        pass_line = (
            f"\nPASS: {report['queries_recorded']} queries counted once each, "
            f"scrape parsed ({report['scrape_metrics']} metrics), span tree ok, "
            f"slow query captured"
        )
    elif args.saturated:
        report = run_saturation_benchmark(args)
        failures = evaluate_saturation_gates(args, report)
        pass_line = (
            f"\nPASS: G-inf maintained in place ({report['saturation_builds']} build, "
            f"{report['saturation_speedup']:.1f}x over the rebuild path), stores identical, "
            f"warm restart built G-inf once, at its first saturated query"
        )
    else:
        report = run_benchmark(args)
        failures = evaluate_serving_gates(args, report)
        if args.quick:
            pass_line = (
                "\nPASS: warm start rebuilt nothing; serial and concurrent answers identical"
            )
        else:
            pass_line = (
                f"\nPASS: warm open {report['warm_speedup']:.1f}x faster than the cold build, "
                f"{args.threads}-thread throughput {report['scaling']:.2f}x serial "
                f"(reported, not gated), zero answer differences"
            )

    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json_output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(pass_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
