#!/usr/bin/env python3
"""Run the benchmark several times and keep every run in one result file.

    python3 bench/record.py --out bench/out/mine.json
    python3 bench/record.py --out bench/out/mine.json --beside ../parent bench/out/parent.json
    python3 bench/compare.py bench/out/parent.json bench/out/mine.json

Each run is a fresh ``bench/run.py`` process, exactly as the driver starts
it.  The file carries a schema version, an environment stamp and the
per-run values of every metric (``bench/baselines/BENCH_0.json`` is one).

With ``--beside ROOT OUT`` every run of this checkout is paired with a run
of the checkout at ROOT — same workload, same seed, one right after the
other, taking turns to go first — and ROOT's runs go to OUT.  This
sandbox's speed wanders by the minute; two sets recorded one after the other
differ by that wander, two sets recorded side by side share it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCHEMA_VERSION = 1


def environment(root: str) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def run_once(root: str, command: List[str], workload: str, seed: int, seconds: int, trace: int):
    completed = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        + ["--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} (seed {seed}, trace {trace}) in {root} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    run = json.loads(completed.stdout.splitlines()[-1])
    return {
        "seed": seed,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "values": {name: metric["value"] for name, metric in run["metrics"].items()},
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="result file to write")
    parser.add_argument(
        "--runs", type=int, default=5, help="runs per workload, of each kind (--trace 0 and 1)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--beside",
        nargs=2,
        metavar=("ROOT", "OUT"),
        help="pair every run with one of the checkout at ROOT, recorded to OUT",
    )
    args = parser.parse_args(argv)

    sides = [(ROOT, args.out)]
    if args.beside:
        sides.append((os.path.abspath(args.beside[0]), args.beside[1]))
    results = [
        {
            "schema_version": SCHEMA_VERSION,
            "environment": environment(root),
            "seed": args.seed,
            "seconds": spec["run_seconds"],
            "workloads": {},
        }
        for root, _out in sides
    ]
    for workload in (entry["name"] for entry in spec["workloads"]):
        for result in results:
            result["workloads"][workload] = {"end_to_end": [], "per_layer": []}
        for section, trace in (("end_to_end", 0), ("per_layer", 1)):
            for index in range(args.runs):
                # the sides take turns to go first
                for side in range(len(sides))[:: 1 if index % 2 == 0 else -1]:
                    run = run_once(
                        sides[side][0], spec["command"], workload, args.seed,
                        spec["run_seconds"], trace,
                    )  # fmt: skip
                    results[side]["workloads"][workload][section].append(run)
                    print(
                        f"{sides[side][0]}: {workload} {section} run {index + 1}/{args.runs}: "
                        f"{run['attempted']} ops, {run['failed']} failed",
                        file=sys.stderr,
                    )
        # rewrite after every workload: an interrupted campaign keeps its runs
        for (_root, out), result in zip(sides, results):
            os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
            with open(out, "w") as handle:
                json.dump(result, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
