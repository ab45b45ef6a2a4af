#!/usr/bin/env python3
"""Where ``peak_rss_mb`` of ``serve --workers K`` sits, process by process.

    python3 benchmarks/rss_split.py [--workers 2] [--seed 0] [--imports]
    python3 benchmarks/rss_split.py --ingest 20 [--seed 0]

The repo benchmark (``bench/run.py``) reports one number — Σ ``VmHWM`` over
the server's process tree.  This script builds the same catalog, starts the
same server through the benchmark's own ``ServerProcess``, sends every query
of the ``mixed_cluster_k2`` workload once, and prints that sum split by
process — role (read off each command line), ``VmHWM`` and its anonymous /
file-backed / shared-memory parts — so a memory regression names the process
it lives in.  ``--imports`` adds what an interpreter costs before it does
anything: MB, ms and module count of a bare ``python3``, ``import repro``,
the worker's import closure and the front end's — without and with the
cluster coordinator — each in a fresh interpreter.

``--ingest N`` follows one server of the ``ingest_with_readers`` workload
instead (``--workers 0`` unless given): current and peak RSS of every process
after start, after the warm-up pass, after the first POST and after every
fifth of N POSTs (each POST is one of the workload's 100-triple batches, with
one query in between), so a claimed megabyte names the step it left.

Output is a table for people followed by one JSON object on the last line.
The tree of ``serve --workers K`` is one front end and K workers; a process
of any other kind is reported by its command line and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from inputs import build_inputs  # noqa: E402
from loadgen import Connection  # noqa: E402
from serverproc import (  # noqa: E402
    ServerProcess,
    _descendants,
    adopt_orphans,
    cold_build,
    make_workdir,
    remove_workdir,
)


FRONT_END, WORKER = "front end", "worker"

#: ``--imports``: what is measured, and the statement that loads it.
IMPORT_CLOSURES = [
    ("bare python3", "pass"),
    ("import repro", "import repro"),
    ("worker closure", "import repro.cluster.worker"),
    (
        "serve closure (--workers 0)",
        "import repro.cli, repro.server.http; repro.cli.build_parser()",
    ),
    (
        "serve closure (coordinator)",
        "import repro.cli, repro.server.http, repro.cluster.coordinator; "
        "repro.cli.build_parser()",
    ),
]

# imports nothing itself but ``time`` (built in), so the bare row is bare
_IMPORT_PROBE = """
import sys, time
started = time.perf_counter()
{statement}
elapsed = time.perf_counter() - started
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(peak_kb, elapsed, len(sys.modules))
"""


def _role(pid: int) -> str:
    """``front end``, ``worker``, or — for anything else — the command line."""
    with open(f"/proc/{pid}/cmdline", "rb") as handle:
        argv = handle.read().decode("utf-8", "replace").split("\0")
    if "repro.cluster.worker" in argv:
        return WORKER
    if "-m" in argv and argv[argv.index("-m") + 1 :][:2] == ["repro", "serve"]:
        return FRONT_END
    return " ".join(argv).strip()


def _memory_mb(pid: int) -> dict:
    """Peak RSS of *pid* and the three parts of its current RSS, in MB."""
    fields = {"VmHWM": "vm_hwm_mb", "VmRSS": "vm_rss_mb", "RssAnon": "rss_anon_mb",
              "RssFile": "rss_file_mb", "RssShmem": "rss_shmem_mb"}  # fmt: skip
    found = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key = fields.get(line.split(":")[0])
            if key is not None:
                found[key] = round(int(line.split()[1]) / 1024.0, 2)
    if "vm_hwm_mb" not in found:
        raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
    return found


def measure_imports() -> list:
    """MB / ms / module count of each :data:`IMPORT_CLOSURES` entry."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    rows = []
    for label, statement in IMPORT_CLOSURES:
        output = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE.format(statement=statement)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout  # fmt: skip
        peak_kb, seconds, modules = output.split()
        rows.append(
            {
                "what": label,
                "mb": round(int(peak_kb) / 1024, 2),
                "ms": round(float(seconds) * 1000, 1),
                "modules": int(modules),
            }
        )
    return rows


def _table(header: list, rows: list) -> str:
    """A GitHub-flavoured markdown table (also readable as plain text)."""
    lines = [header, ["---"] * len(header)] + [[str(cell) for cell in row] for row in rows]
    return "\n".join("| " + " | ".join(line) + " |" for line in lines)


STEP_COLUMNS = ["vm_rss_mb", "vm_hwm_mb", "rss_anon_mb", "rss_file_mb", "rss_shmem_mb"]


def ingest_steps(posts: int, seed: int, workers: int) -> int:
    """``--ingest``: one server's memory, step by step through *posts* POSTs."""
    adopt_orphans()
    inputs = build_inputs("ingest_with_readers", seed)
    posts = min(posts, len(inputs.ingests))
    workdir = make_workdir()
    steps, failed = [], 0
    try:
        path = os.path.join(workdir, "catalog.db")
        cold_build(path, inputs.base)
        server = ServerProcess(workdir, path, workers)
        try:
            server.start()

            def record(step: str) -> None:
                for pid in [server.pid] + _descendants(server.pid):
                    steps.append({"step": step, "role": _role(pid), "pid": pid, **_memory_mb(pid)})

            record("after start")
            connection = Connection(server.port)
            try:
                failed += sum(connection.request(op.request)[0] != 200 for op in inputs.queries)
                record("after warm-up")
                for number, post in enumerate(inputs.ingests[:posts], start=1):
                    query = inputs.queries[number % len(inputs.queries)]
                    for request in (post.request, query.request):
                        failed += connection.request(request)[0] != 200
                    if number == 1 or number % 5 == 0 or number == posts:
                        record(f"after POST {number}")
            finally:
                connection.close()
        finally:
            forced = server.reap()
    finally:
        remove_workdir(workdir)
    print(f"serve --workers {workers}, {posts} POSTs of ingest_with_readers "
          f"(failed {failed}, leaked segments {forced['segments']})\n")  # fmt: skip
    print(_table(["step", "role"] + STEP_COLUMNS,
                 [[s["step"], s["role"]] + [s.get(c, "-") for c in STEP_COLUMNS] for s in steps]))  # fmt: skip
    print()
    print(json.dumps({"workers": workers, "posts": posts, "failed": failed,
                      "leaked_segments": forced["segments"], "steps": steps}))  # fmt: skip
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--imports", action="store_true", help="also measure the import closures"
    )
    parser.add_argument(
        "--ingest", type=int, metavar="N", help="memory step by step through N POSTs instead"
    )
    args = parser.parse_args(argv)
    if args.ingest is not None:
        return ingest_steps(args.ingest, args.seed, args.workers or 0)
    if args.workers is None:
        args.workers = 2
    adopt_orphans()
    inputs = build_inputs("mixed_cluster_k2", args.seed)
    workdir = make_workdir()
    try:
        path = os.path.join(workdir, "catalog.db")
        cold_build(path, inputs.base)
        server = ServerProcess(workdir, path, args.workers)
        try:
            server.start()
            connection = Connection(server.port)
            try:
                failed = sum(
                    connection.request(op.request)[0] != 200 for op in inputs.queries
                )
            finally:
                connection.close()
            processes = [
                {"pid": pid, "role": _role(pid), **_memory_mb(pid)}
                for pid in [server.pid] + _descendants(server.pid)
            ]
        finally:
            forced = server.reap()
    finally:
        remove_workdir(workdir)
    report = {
        "workers": args.workers,
        "queries": len(inputs.queries),
        "failed": failed,
        "leaked_segments": forced["segments"],
        "peak_rss_mb": round(sum(p["vm_hwm_mb"] for p in processes), 2),
        "processes": processes,
    }
    columns = ["vm_hwm_mb", "rss_anon_mb", "rss_file_mb", "rss_shmem_mb"]
    print(f"serve --workers {args.workers}: peak_rss_mb {report['peak_rss_mb']} "
          f"(failed {failed}, leaked segments {forced['segments']})\n")  # fmt: skip
    print(_table(["role", "pid"] + columns,
                 [[p["role"], p["pid"]] + [p.get(c, "-") for c in columns] for p in processes]))  # fmt: skip
    if args.imports:
        report["imports"] = measure_imports()
        print()
        print(_table(["fresh interpreter", "MB", "ms", "modules"],
                     [[r["what"], r["mb"], r["ms"], r["modules"]] for r in report["imports"]]))  # fmt: skip
    print()
    print(json.dumps(report))
    roles = [p["role"] for p in processes]
    expected = [FRONT_END] + [WORKER] * args.workers
    if sorted(roles) != sorted(expected):
        print(f"unexpected process tree: {roles}, expected {expected}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"  # as bench/run.py pins it
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
