"""Command-line interface: ``rdfsummary`` / ``python -m repro``.

Sub-commands
------------
``summarize``
    Summarize an N-Triples (or Turtle) file with one of the four summary
    kinds and write the result as N-Triples or DOT.
``stats``
    Print size statistics of a graph and of its four summaries.
``saturate``
    Write the saturation ``G∞`` of a graph.
``generate``
    Generate a synthetic dataset (bsbm / lubm / bibliography) as N-Triples.
``sweep``
    Run the Figure 11-13 scale sweep and print the three series.
``query``
    Answer a BGP query through the summary-guarded query service, or run a
    mixed workload comparing the guarded service against direct evaluation.
``serve``
    Run the durable HTTP query server: a (optionally persistent) graph
    catalog behind the JSON API of :mod:`repro.server.http`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, List, Optional

# Every ``repro.*`` import lives in the sub-command that uses it: ``repro
# serve`` is a long-lived process and should not hold the dataset
# generators, the sweep harness or the DOT writer for its whole life.
if TYPE_CHECKING:
    from repro.model.graph import RDFGraph

__all__ = ["main", "build_parser"]


def _load_graph(path: str) -> RDFGraph:
    if path.endswith(".ttl") or path.endswith(".turtle"):
        from repro.io.turtle_lite import load_turtle

        return load_turtle(path)
    from repro.io.ntriples import load_ntriples

    return load_ntriples(path)


def _answer_limit(text: str) -> int:
    """``--limit``'s type: the HTTP API's rule, enforced at the parser."""
    if not text.isdecimal() or not 1 <= int(text) <= sys.maxsize:
        raise argparse.ArgumentTypeError("'limit' must be a positive integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    from repro.core.builders import SUMMARY_KINDS
    from repro.service.evaluator import STRATEGIES

    parser = argparse.ArgumentParser(
        prog="rdfsummary",
        description="Query-oriented summarization of RDF graphs (weak / strong / typed summaries).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summarize_parser = subparsers.add_parser("summarize", help="summarize an RDF file")
    summarize_parser.add_argument("input", help="input .nt or .ttl file")
    summarize_parser.add_argument(
        "--kind", default="weak", choices=sorted(SUMMARY_KINDS), help="summary kind"
    )
    summarize_parser.add_argument("--output", "-o", help="output file (N-Triples, or DOT with --dot)")
    summarize_parser.add_argument("--dot", action="store_true", help="write GraphViz DOT instead of N-Triples")

    stats_parser = subparsers.add_parser("stats", help="print graph and summary statistics")
    stats_parser.add_argument("input", help="input .nt or .ttl file")

    saturate_parser = subparsers.add_parser("saturate", help="write the RDFS saturation of a graph")
    saturate_parser.add_argument("input", help="input .nt or .ttl file")
    saturate_parser.add_argument("--output", "-o", required=True, help="output N-Triples file")

    generate_parser = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate_parser.add_argument(
        "dataset", choices=["bsbm", "lubm", "bibliography"], help="dataset family"
    )
    generate_parser.add_argument("--scale", type=int, default=100, help="generator scale")
    generate_parser.add_argument("--seed", type=int, default=0, help="random seed")
    generate_parser.add_argument("--output", "-o", required=True, help="output N-Triples file")

    sweep_parser = subparsers.add_parser("sweep", help="run the Figure 11-13 scale sweep")
    sweep_parser.add_argument(
        "--scales", type=int, nargs="+", default=[50, 100, 200], help="BSBM scales (products)"
    )
    sweep_parser.add_argument("--seed", type=int, default=0, help="random seed")

    query_parser = subparsers.add_parser(
        "query", help="answer BGP queries through the summary-guarded service"
    )
    query_parser.add_argument("input", help="input .nt or .ttl file")
    group = query_parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="a SELECT/ASK query string")
    group.add_argument("--query-file", help="file holding a SELECT/ASK query")
    group.add_argument(
        "--workload",
        type=int,
        metavar="N",
        help="generate a mixed N-query workload and compare the guarded "
        "service against direct evaluation",
    )
    query_parser.add_argument(
        "--kind",
        default="strong",
        help="summary kind the guard checks (default: strong)",
    )
    query_parser.add_argument(
        "--strategy",
        default="hash",
        choices=list(STRATEGIES),
        help="join strategy of base evaluation: the statistics-planned "
        "vectorized hash join (default) or "
        "whole-join SQL pushdown (SQLite-backed stores; falls back to hash)",
    )
    query_parser.add_argument(
        "--explain",
        action="store_true",
        help="print the chosen plan (pattern order, estimated vs actual "
        "cardinalities, probes) and the guard's verdict",
    )
    query_parser.add_argument(
        "--trace",
        action="store_true",
        help="print the query's span tree (guard / evaluation timings with "
        "a trace id) after the answers",
    )
    query_parser.add_argument(
        "--no-prune", action="store_true", help="disable the summary guard"
    )
    query_parser.add_argument(
        "--saturated",
        action="store_true",
        help="answer over the saturation G∞ (certain answers)",
    )
    query_parser.add_argument(
        "--limit", type=_answer_limit, default=None, help="maximum distinct answers per query"
    )
    query_parser.add_argument(
        "--unsat-fraction",
        type=float,
        default=0.5,
        help="unsatisfiable share of the generated workload",
    )
    query_parser.add_argument("--seed", type=int, default=0, help="workload seed")
    query_parser.add_argument(
        "--json", dest="json_output", help="write the workload report as JSON to this file"
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the durable HTTP query server"
    )
    serve_parser.add_argument(
        "--catalog",
        help="persistent catalog file (created if absent; omitted = in-memory only)",
    )
    serve_parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="register FILE (N-Triples/Turtle) under NAME at startup; "
        "skipped when the catalog already holds NAME (warm start wins)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks an ephemeral port)"
    )
    serve_parser.add_argument(
        "--threads", type=int, default=8, help="queries, ingests and builds running at once"
    )
    serve_parser.add_argument(
        "--kind",
        default="strong",
        help="summary kind the guard checks (default: strong)",
    )
    serve_parser.add_argument(
        "--strategy",
        default=None,
        choices=list(STRATEGIES),
        help="join strategy of base evaluation (default: sql for the sqlite "
        "backend — whole-join pushdown, the fastest serial strategy there, "
        "though not faster with more threads — and hash for the memory "
        "backend)",
    )
    serve_parser.add_argument(
        "--backend",
        default="memory",
        choices=["memory", "sqlite"],
        help="store backend for graphs (sqlite uses per-graph database files "
        "next to the catalog for parallel reads; memory is fastest serially)",
    )
    serve_parser.add_argument(
        "--limit", type=_answer_limit, default=1000, help="default answer limit per query"
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve queries from this many worker processes, each holding a "
        "full replica of every graph (repro.cluster; 0 = in-process)",
    )
    serve_parser.add_argument(
        "--max-body-mb",
        type=int,
        default=64,
        help="largest accepted request body in MiB (oversized requests get 413)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )
    serve_parser.add_argument(
        "--slow-query-threshold",
        type=float,
        default=None,
        metavar="SECONDS",
        help="queries slower than this land in the slow-query log "
        "(GET /debug/slow; default 0.25)",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the project static-analysis rules (concurrency discipline, "
        "clock choice, telemetry hygiene)",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--json", dest="json_output", action="store_true",
        help="emit findings as a JSON document",
    )
    lint_parser.add_argument(
        "--rules", help="comma-separated rule names to run (default: all)"
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="list available rules and exit"
    )

    return parser


def _command_summarize(args: argparse.Namespace) -> int:
    from repro.core.builders import summarize
    from repro.io.dot import summary_to_dot, write_dot
    from repro.io.ntriples import dump_ntriples

    graph = _load_graph(args.input)
    summary = summarize(graph, args.kind)
    statistics = summary.statistics()
    ratio = statistics.compression_ratio
    rendered_ratio = "n/a (empty input)" if math.isnan(ratio) else f"{ratio:.5f}"
    print(
        f"{args.kind} summary: {statistics.all_node_count} nodes, "
        f"{statistics.all_edge_count} edges "
        f"(input: {statistics.input_edge_count} triples, ratio {rendered_ratio})"
    )
    if args.output:
        if args.dot:
            write_dot(summary_to_dot(summary, show_extents=True), args.output)
        else:
            dump_ntriples(summary.graph, args.output)
        print(f"written to {args.output}")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import format_table, summary_size_table

    graph = _load_graph(args.input)
    statistics = graph.statistics()
    for key, value in statistics.as_dict().items():
        print(f"{key:>28}: {value}")
    print()
    print(format_table(summary_size_table(graph)))
    return 0


def _command_saturate(args: argparse.Namespace) -> int:
    from repro.io.ntriples import dump_ntriples
    from repro.schema.saturation import saturate

    graph = _load_graph(args.input)
    saturated = saturate(graph)
    dump_ntriples(saturated, args.output)
    print(f"saturation: {len(graph)} -> {len(saturated)} triples, written to {args.output}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from repro.datasets import generate_bibliography, generate_bsbm, generate_lubm
    from repro.io.ntriples import dump_ntriples

    if args.dataset == "bsbm":
        graph = generate_bsbm(scale=args.scale, seed=args.seed)
    elif args.dataset == "lubm":
        graph = generate_lubm(universities=max(1, args.scale // 100 + 1), seed=args.seed)
    else:
        graph = generate_bibliography(publications=args.scale, seed=args.seed)
    dump_ntriples(graph, args.output)
    print(f"generated {len(graph)} triples into {args.output}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.harness import format_figure_series, run_scale_sweep

    result = run_scale_sweep(scales=args.scales, seed=args.seed)
    print(format_figure_series(result, "data_nodes", "Figure 11 (top): data nodes"))
    print(format_figure_series(result, "all_nodes", "Figure 11 (bottom): all nodes"))
    print(format_figure_series(result, "data_edges", "Figure 12 (top): data edges"))
    print(format_figure_series(result, "all_edges", "Figure 12 (bottom): all edges"))
    print(format_figure_series(result, "build_seconds", "Figure 13: summarization time (s)"))
    return 0


def _command_query(args: argparse.Namespace) -> int:
    from repro.queries.parser import parse_query
    from repro.service.catalog import GraphCatalog
    from repro.service.service import QueryService

    graph = _load_graph(args.input)
    if not graph.name:
        graph.name = args.input

    if args.workload is not None:
        if args.saturated or args.no_prune:
            print(
                "error: --saturated / --no-prune apply to single queries only; "
                "the workload comparison measures the guard over the explicit graph",
                file=sys.stderr,
            )
            return 2
        from repro.analysis.harness import format_query_service_report, run_query_service_workload

        report = run_query_service_workload(
            graph,
            count=args.workload,
            unsatisfiable_fraction=args.unsat_fraction,
            kind=args.kind,
            seed=args.seed,
            answer_limit=args.limit if args.limit is not None else 100,
            strategy=args.strategy,
        )
        print(format_query_service_report(report))
        if args.json_output:
            with open(args.json_output, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
            print(f"report written to {args.json_output}")
        return 0 if report["sound"] else 1

    if args.query_file:
        with open(args.query_file, "r", encoding="utf-8") as handle:
            query_text = handle.read()
    else:
        query_text = args.query
    query = parse_query(query_text, name="cli")

    limit = args.limit
    if query.is_boolean() and limit is None:
        # () is the only possible answer tuple — stop at the first embedding
        limit = 1
    with GraphCatalog() as catalog:
        entry = catalog.register(graph.name, graph=graph)
        service = QueryService(
            catalog, kind=args.kind, prune=not args.no_prune, strategy=args.strategy
        )
        answer = service.answer(
            graph.name,
            query,
            limit=limit,
            saturated=args.saturated,
            explain=args.explain,
            trace=args.trace,
        )
        if answer.pruned:
            print(
                f"pruned by the {answer.kind} summary in "
                f"{answer.guard_seconds*1000:.2f} ms (no answers on the graph)"
            )
        elif query.is_boolean():
            verdict = "yes" if answer.answers else "no"
            print(f"{verdict} ({answer.total_seconds*1000:.2f} ms)")
        else:
            print(
                f"{len(answer.answers)} answer(s) in {answer.total_seconds*1000:.2f} ms "
                f"(guard: {answer.guard_seconds*1000:.2f} ms)"
            )
            texts = answer.answers.dictionary.texts
            for row in answer.answers.dictionary.sort_rows(answer.answers.rows)[:20]:
                print("  " + "\t".join(map(texts.__getitem__, row)))
            if len(answer.answers) > 20:
                print(f"  ... and {len(answer.answers) - 20} more")
        if args.explain:
            _print_explain(answer, entry, args.saturated)
        if args.trace and answer.query_trace is not None:
            print()
            print(answer.query_trace.render())
    return 0


def _print_explain(answer, entry, saturated: bool) -> None:
    """Render the guard's verdict and the executed plan of one answer."""
    print(f"\nexplain (strategy: {answer.strategy})")
    if answer.prunable:
        # the graph the guard just checked: cached, nothing is built here
        edges = len(entry.pruning_graph(answer.kind, saturated=saturated))
        verdict = (
            "pruned (base evaluation skipped)"
            if answer.pruned
            else "not pruned, evaluated on the base store"
        )
        print(f"  guard         : {answer.kind} summary, {edges} edges: {verdict}")
    else:
        print("  guard         : skipped (query not eligible or pruning disabled)")
    saturation = answer.saturation
    if saturation is not None:
        print(
            f"  saturation    : G∞ store {saturation['store_rows']} rows "
            f"({saturation['derived_rows']} derived), built {saturation['builds']}x "
            f"in {saturation['build_seconds']*1000:.1f} ms, "
            f"{saturation['deltas']} delta(s), last delta "
            f"{saturation['last_delta_seconds']*1000:.2f} ms "
            f"for {saturation['last_delta_rows']} row(s)"
        )
    trace = answer.trace
    if trace is None or not trace.stages:
        return
    cached = "hit" if trace.plan_cached else "miss"
    if trace.plan_cached is None:
        print("  plan          :")
    else:
        print(f"  plan          : (cache {cached}, {trace.total_probes} probes)")
    for index, stage in enumerate(trace.stages, start=1):
        estimated = (
            "-"
            if stage.cumulative_estimate is None
            else f"{stage.cumulative_estimate:,.0f}"
        )
        produced = "-" if stage.produced is None else f"{stage.produced:,}"
        fetched = "-" if stage.fetched is None else f"{stage.fetched:,}"
        print(
            f"    {index}. {stage.description}"
            f"  [{stage.access}: est {estimated} rows, fetched {fetched}, actual {produced}]"
        )


def _sqlite_store_factory(directory: str):
    """A factory minting one file-backed SQLite store per graph.

    The files live next to the catalog and are pure caches: a warm start
    rebuilds them from the catalog file, so a stale file is simply removed
    and rewritten.  File-backed stores are what give the executor its read
    parallelism (per-thread connections, GIL released inside SQLite).
    """
    import itertools
    import os

    from repro.store.sqlite import SQLiteStore

    counter = itertools.count()
    os.makedirs(directory, exist_ok=True)

    def factory():
        path = os.path.join(directory, f"store-{next(counter)}.db")
        # remove the WAL/SHM sidecars along with the stale database: a
        # fresh db paired with a leftover hot WAL is SQLite's documented
        # corruption case
        for stale in (path, path + "-wal", path + "-shm"):
            if os.path.exists(stale):
                os.remove(stale)
        return SQLiteStore(path)

    return factory


def _command_serve(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.server.http import ServerApp, make_server
    from repro.service.catalog import GraphCatalog

    if args.slow_query_threshold is not None:
        if args.slow_query_threshold <= 0:
            print("error: --slow-query-threshold must be positive", file=sys.stderr)
            return 2
        telemetry.SLOW_LOG.threshold_seconds = args.slow_query_threshold

    if args.backend == "sqlite":
        store_factory = _sqlite_store_factory((args.catalog or "repro-serve") + ".stores")
    else:
        from repro.store.memory import MemoryStore

        store_factory = MemoryStore
    if args.strategy is None:
        args.strategy = "sql" if args.backend == "sqlite" else "hash"

    if args.catalog:
        catalog = GraphCatalog.open(args.catalog, store_factory=store_factory)
    else:
        catalog = GraphCatalog(store_factory=store_factory)

    for spec in args.load:
        if "=" not in spec:
            print(f"error: --load expects NAME=FILE, got {spec!r}", file=sys.stderr)
            return 2
        name, file_path = spec.split("=", 1)
        if name in catalog:
            # the persisted (warm-started) copy wins: re-loading would both
            # waste the warm start and risk diverging from the durable state
            print(f"graph {name!r} already in the catalog (warm start), skipping {file_path}")
            continue
        graph = _load_graph(file_path)
        graph.name = name
        catalog.register(name, graph=graph)

    cluster = None
    if args.workers > 0:
        from repro.cluster import ClusterCoordinator

        # workers serve their shipped replicas from columnar memory stores
        # whatever the coordinator's backend, so the sqlite-only "sql"
        # strategy falls back to hash inside the worker processes
        worker_strategy = args.strategy if args.strategy != "sql" else "hash"
        cluster = ClusterCoordinator(
            catalog,
            workers=args.workers,
            kind=args.kind,
            strategy=worker_strategy,
        )
    app = ServerApp(
        catalog,
        kind=args.kind,
        strategy=args.strategy,
        max_workers=args.threads,
        default_limit=args.limit,
        quiet=not args.verbose,
        max_body_bytes=args.max_body_mb * 1024 * 1024,
        cluster=cluster,
    )
    server = make_server(app, args.host, args.port)
    host, port = server.server_address[:2]
    names = ", ".join(catalog.names()) or "none"
    tier = ""
    if cluster:
        tier = f", cluster: {args.workers} worker process(es), shared-memory shipping"
    print(
        f"serving {len(catalog)} graph(s) [{names}] on http://{host}:{port} "
        f"(catalog: {args.catalog or 'in-memory'}, guard: {app.service.kind}, "
        f"strategy: {args.strategy}, threads: {args.threads}{tier})",
        flush=True,
    )
    # a SIGTERM (docker stop, kill) should run the same graceful path as
    # Ctrl-C: final checkpoint, then close
    import signal

    def _terminate(_signum, _frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - not the main thread
        pass

    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        # graceful drain: stop accepting, let in-flight requests answer,
        # then stop executing (app.close also drains and stops the cluster
        # workers), and only then checkpoint — the durable state includes
        # every ingest a client got a 200 for
        server.server_close()
        app.drain()
        app.close()
        catalog.checkpoint()
        catalog.close()
        # the slow-query log is in-memory only: dump what the ring still
        # holds alongside the final checkpoint so it survives the process
        slow = telemetry.SLOW_LOG
        if slow.entries():
            print("slow queries (threshold "
                  f"{slow.threshold_seconds:.3f}s, {len(slow.entries())} entries):")
            print(json.dumps(slow.as_dict(), indent=2, sort_keys=True), flush=True)
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.lint import main as lint_main

    forwarded: List[str] = list(args.paths)
    if args.json_output:
        forwarded.append("--json")
    if args.rules:
        forwarded.extend(["--rules", args.rules])
    if args.list_rules:
        forwarded.append("--list-rules")
    return lint_main(forwarded)


_COMMANDS = {
    "summarize": _command_summarize,
    "stats": _command_stats,
    "saturate": _command_saturate,
    "generate": _command_generate,
    "sweep": _command_sweep,
    "query": _command_query,
    "serve": _command_serve,
    "lint": _command_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
