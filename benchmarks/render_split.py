#!/usr/bin/env python3
"""The server's two answer renderers, timed apart from evaluation.

    python3 benchmarks/render_split.py [--workload join_heavy] [--seed 0]
                                       [--rounds 7] [--limit N|none]

The repo benchmark's ``http.render_ms`` (``bench/layers.py``) times
``ServerApp.dispatch``, which returns the answers as lists of N-Triples
terms.  A request on the socket does not go through it: ``ServerApp.route``
leaves the id rows in the payload and ``_json_body`` writes the JSON text
from them.  This script cold-builds the benchmark's catalog file through the
benchmark's own inputs (``PYTHONHASHSEED`` pinned to 0 as ``bench/run.py``
pins it), warm-starts a ``ServerApp`` on it as ``repro serve`` does, answers
every query of the workload once, and then times both renderers over those
answers only: ``route`` hands back the answered payload, so nothing is
evaluated while the clock runs.

Per renderer it reports the milliseconds to render all the workload's
answers once, min and median over the rounds, and a SHA-256 of what it
rendered: the socket bodies, and ``json.dumps(payload, sort_keys=True)`` of
the dispatch payloads.  Two builds render the same bytes when their digests
match.  Output is a table for people followed by one JSON object on the
last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from inputs import WORKLOADS, build_inputs  # noqa: E402
from serverproc import cold_build, make_workdir, remove_workdir  # noqa: E402

from repro.server import http  # noqa: E402
from repro.service.catalog import GraphCatalog  # noqa: E402


def _request(op):
    """``(path, body)`` of a benchmark query's HTTP request, with *limit*."""
    line, _, rest = op.request.partition(b"\r\n")
    return line.split(b" ")[1].decode("ascii"), json.loads(rest.partition(b"\r\n\r\n")[2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="join_heavy")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--limit", help="every query's limit, a number or 'none' (default: keep)")
    args = parser.parse_args(argv)
    inputs = build_inputs(args.workload, args.seed)
    requests = [_request(op) for op in inputs.queries]
    if args.limit is not None:
        limit = None if args.limit == "none" else int(args.limit)
        requests = [(path, {**body, "limit": limit}) for path, body in requests]
    workdir = make_workdir()
    try:
        catalog_path = os.path.join(workdir, "catalog.db")
        cold_build(catalog_path, inputs.base)
        catalog = GraphCatalog.open(catalog_path)
        try:
            app = http.ServerApp(catalog, strategy="hash")
            answered = [app.route("POST", path, body) for path, body in requests]
            for _status, payload in answered:  # timings would make every digest differ
                payload.update((key, 0.0) for key in payload if key.endswith("_seconds"))
            kept = iter(answered)

            def route(_method, _path, _body):
                status, payload = next(kept)
                return status, dict(payload)  # dispatch rewrites its copy's answers

            app.route = route
            # untimed: the first render after a warm start brings the term rank up to date
            [http._json_body(app.route("POST", p, b)[1]) for p, b in requests]
            timings = {"socket": [], "dispatch": []}
            digests = {}
            for _round in range(args.rounds):
                socket_digest, dispatch_digest = hashlib.sha256(), hashlib.sha256()
                kept = iter(answered)
                start = perf_counter()
                bodies = [http._json_body(app.route("POST", p, b)[1]) for p, b in requests]
                timings["socket"].append((perf_counter() - start) * 1e3)
                kept = iter(answered)
                start = perf_counter()
                payloads = [app.dispatch("POST", p, b)[1] for p, b in requests]
                timings["dispatch"].append((perf_counter() - start) * 1e3)
                for pieces, payload in zip(bodies, payloads):
                    socket_digest.update("".join(pieces).encode("utf-8"))
                    dispatch_digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
                digests = {"socket": socket_digest.hexdigest()}
                digests["dispatch"] = dispatch_digest.hexdigest()
        finally:
            catalog.close()
    finally:
        remove_workdir(workdir)
    rows = [payload.get("answers") for _status, payload in answered]
    cells = sum(len(answer.rows) * answer.width for answer in rows if hasattr(answer, "rows"))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "limit": args.limit,
        "answers": len(answered),
        "cells": cells,
        "rounds": args.rounds,
        **{
            f"{name}_ms": {"min": round(min(ms), 3), "median": round(statistics.median(ms), 3)}
            for name, ms in timings.items()
        },
        "digests": digests,
    }
    print(f"{args.workload}, seed {args.seed}: {len(answered)} answers, {cells:,} cells, "
          f"{args.rounds} rounds\n")  # fmt: skip
    print("| renderer | min ms | median ms | sha256 |")
    print("| --- | --- | --- | --- |")
    for name in timings:
        times = report[f"{name}_ms"]
        print(f"| {name} | {times['min']:.2f} | {times['median']:.2f} | {digests[name][:16]} |")
    print()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"  # as bench/run.py pins it
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
