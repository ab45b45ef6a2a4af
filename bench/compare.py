#!/usr/bin/env python3
"""Judge result file B against result file A by the bounds of BENCHMARK.json.

    python3 bench/compare.py A.json B.json

Run *i* of B is set against run *i* of A — record the two side by side
(``record.py --beside``), so that each pair shares the machine's mood — and
every (workload, end-to-end metric) gets one row:

* ``ok``          the median pair has B no worse than A by more than the bound;
* ``worse``       it has (and the exit code is 1);
* ``unresolved``  the pairs disagree among themselves by more than the bound
                  (quartile distance of the B/A ratios), so there is no telling
                  — not the same as unchanged.

Failed operations have bound 0: any in B is ``worse``.

    python3 bench/compare.py A.json B.json query_p50_ms query_qps

Per-layer metrics named after the files get a row each, too, from the paired
``--trace 1`` runs.  They have no bound, so no verdict: the row says in how
many pairs B was the better one (the *choosing-metrics* rule for a gain is
nine in ten, and medians further apart than A's own quartile distance).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def judge(before: List[float], after: List[float], better: str, bound: Optional[float]) -> Dict:
    if len(before) != len(after):
        raise ValueError(f"{len(before)} runs against {len(after)}: runs are compared in pairs")
    ratios = sorted(new / old for old, new in zip(before, after))
    change = statistics.median(ratios) - 1.0
    worsening = change if better == "lower" else -change
    # inclusive quartiles: of five pairs, the second and the fourth.  The
    # default method reads them off the two extreme pairs, and one slow run
    # in five is what this sandbox produces.
    first, _, third = (
        statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    )
    if bound is None:
        wins = sum((new < old) if better == "lower" else (new > old) for old, new in zip(before, after))
        verdict = f"B better in {wins}/{len(ratios)}"
    elif worsening > bound:
        verdict = "worse"
    elif third - first > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "a": statistics.median(before),
        "b": statistics.median(after),
        "change": change,
        "spread": third - first,
        "verdict": verdict,
    }


def compare(a: Dict, b: Dict, spec: Dict, layer_metrics: Sequence[str] = ()) -> List[Dict]:
    for result in (a, b):
        if result.get("schema_version") != 1:
            raise ValueError(f"unsupported schema_version {result.get('schema_version')!r}")
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        runs_a = a["workloads"][name]["end_to_end"]
        runs_b = b["workloads"][name]["end_to_end"]
        for metric in spec["end_to_end"]:
            row = judge(
                [run["values"][metric["name"]] for run in runs_a],
                [run["values"][metric["name"]] for run in runs_b],
                metric["better"],
                metric["bound"],
            )
            rows.append({"workload": name, "metric": metric["name"], **row})
        for metric in spec["per_layer"]:
            if metric["name"] in layer_metrics:
                row = judge(
                    [run["values"][metric["name"]] for run in a["workloads"][name]["per_layer"]],
                    [run["values"][metric["name"]] for run in b["workloads"][name]["per_layer"]],
                    metric["better"],
                    None,
                )
                rows.append({"workload": name, "metric": metric["name"], **row})
        failed = sum(run["failed"] for run in runs_b)
        attempted = sum(run["attempted"] for run in runs_b)
        rows.append(
            {
                "workload": name,
                "metric": "failed_ops_share",
                "a": sum(run["failed"] for run in runs_a)
                / sum(run["attempted"] for run in runs_a),
                "b": failed / attempted,
                "change": 0.0,
                "spread": 0.0,
                "verdict": "worse" if failed else "ok",
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="result file of the parent (bench/record.py --out)")
    parser.add_argument("b", help="result file of the change")
    parser.add_argument("metrics", nargs="*", help="per-layer metrics to show as well")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        a = json.load(handle)
    with open(args.b) as handle:
        b = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    unknown = set(args.metrics) - {metric["name"] for metric in spec["per_layer"]}
    if unknown:
        parser.error(f"not a per-layer metric: {sorted(unknown)}")
    rows = compare(a, b, spec, args.metrics)
    print(f"{'workload':<22}{'metric':<28}{'A':>12}{'B':>12}{'change':>9}{'spread':>8}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<22}{row['metric']:<28}{row['a']:>12.4g}{row['b']:>12.4g}"
            f"{row['change']:>+9.1%}{row['spread']:>8.1%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
