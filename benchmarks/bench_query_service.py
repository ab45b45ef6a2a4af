"""Summary-guarded query service vs. direct per-query evaluation.

A BSBM-scale graph is registered in a :class:`GraphCatalog` and a mixed
RBGP workload — at least half of it unsatisfiable, the paper's pruning
sweet spot — is answered twice over the same encoded store:

* **guarded** — :class:`QueryService`: dictionary-miss check, then the
  weak-summary guard, then (only for surviving queries) the encoded
  evaluator;
* **direct** — the same encoded evaluator on every query, no guard.

Both sides serve with the same per-query answer limit.  Every query's two
results are compared, and every verdict is checked against the workload's
generation-time ground truth — the run fails on any pruning error, i.e. a
satisfiable query declared empty, the unsoundness Proposition 1 rules out.

Usage
-----
::

    PYTHONPATH=src python benchmarks/bench_query_service.py           # full run, 1x gate
    PYTHONPATH=src python benchmarks/bench_query_service.py --quick   # CI smoke run
    PYTHONPATH=src python benchmarks/bench_query_service.py --json out.json

The full guarded run exits non-zero when the guarded service is not at
least ``--min-speedup`` (default 1.0 — a vectorized direct side is itself
fast on unsatisfiable joins) times faster end-to-end, or when any verdict
disagrees with full evaluation on the base graph.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.analysis.harness import format_query_service_report, run_query_service_workload
from repro.datasets.bsbm import generate_bsbm
from repro.service.evaluator import STRATEGIES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small input, soundness checks only (CI smoke mode; no speedup gate)",
    )
    parser.add_argument(
        "--scale", type=int, default=3200, help="BSBM scale for the full run (3200 ≈ 110k triples)"
    )
    parser.add_argument("--seed", type=int, default=0, help="generator/workload seed")
    parser.add_argument("--count", type=int, default=60, help="workload size")
    parser.add_argument(
        "--unsat-fraction",
        type=float,
        default=0.6,
        help="unsatisfiable share of the workload (acceptance floor: 0.5)",
    )
    parser.add_argument(
        "--kind",
        default="weak+strong",
        help="summary kind(s) used by the guard ('+'-joined cascade allowed)",
    )
    parser.add_argument(
        "--strategy",
        default="hash",
        choices=list(STRATEGIES),
        help="join strategy for the guarded-vs-direct comparison",
    )
    parser.add_argument(
        "--limit", type=int, default=100, help="distinct answers served per query"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="required guarded/direct speedup (full run only; a vectorized "
        "direct side is itself fast on unsatisfiable joins, which leaves "
        "the guard a structurally small margin)",
    )
    parser.add_argument("--json", dest="json_output", help="write the report as JSON")
    args = parser.parse_args(argv)

    if args.unsat_fraction < 0.5:
        print("FAIL: the acceptance workload needs >= 50% unsatisfiable queries", file=sys.stderr)
        return 2

    scale = 200 if args.quick else args.scale
    count = 24 if args.quick else args.count
    graph = generate_bsbm(scale=scale, seed=args.seed)
    print(f"bsbm scale {scale}: {len(graph)} triples, workload of {count} queries "
          f"({args.unsat_fraction:.0%} unsatisfiable), guard: {args.kind} summary")

    report = run_query_service_workload(
        graph,
        count=count,
        unsatisfiable_fraction=args.unsat_fraction,
        kind=args.kind,
        seed=args.seed,
        answer_limit=args.limit,
        strategy=args.strategy,
    )
    print(format_query_service_report(report))

    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json_output}")

    failures: List[str] = []
    if not report["sound"]:
        failures.append(
            f"{report['pruning_errors']} pruning errors / "
            f"{report['disagreements']} disagreements with direct evaluation"
        )
    if report["queries"] < count:
        failures.append(
            f"workload degenerated: generation produced {report['queries']} of the "
            f"{count} requested queries"
        )
    if report["unsatisfiable_queries"] * 2 < report["queries"]:
        failures.append(
            f"workload degenerated: only {report['unsatisfiable_queries']} of "
            f"{report['queries']} queries unsatisfiable (need >= 50%)"
        )
    if not args.quick and report["speedup"] < args.min_speedup:
        failures.append(
            f"guarded speedup {report['speedup']:.2f}x below the {args.min_speedup:.1f}x gate"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if args.quick:
        print("\nPASS: every verdict agrees with full evaluation on the base graph")
    else:
        print(
            f"\nPASS: guarded service {report['speedup']:.2f}x faster than direct "
            f"evaluation on {report['triples']} triples with zero pruning errors "
            f"(gate: {args.min_speedup:.1f}x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
