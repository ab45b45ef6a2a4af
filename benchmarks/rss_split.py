#!/usr/bin/env python3
"""Where ``peak_rss_mb`` of ``serve --workers K`` sits, process by process.

    python3 benchmarks/rss_split.py [--workers 2] [--seed 0]

The repo benchmark (``bench/run.py``) reports one number — Σ ``VmHWM`` over
the server's process tree.  This script builds the same catalog, starts the
same server through the benchmark's own ``ServerProcess``, sends every query
of the ``mixed_cluster_k2`` workload once, and prints that sum split by
process (front end, resource tracker, each worker) as one JSON object, so a
memory regression names the process it lives in.  Nothing is gated here.
"""

from __future__ import annotations

import argparse
import json
import os
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


def _role(pid: int, server_pid: int) -> str:
    if pid == server_pid:
        return "front end"
    with open(f"/proc/{pid}/cmdline", "rb") as handle:
        command = handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
    return "resource tracker" if "resource_tracker" in command else "worker"


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
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
                {"pid": pid, "role": _role(pid, server.pid), "vm_hwm_mb": round(_vm_hwm_mb(pid), 2)}
                for pid in [server.pid] + _descendants(server.pid)
            ]
        finally:
            forced = server.reap()
    finally:
        remove_workdir(workdir)
    print(
        json.dumps(
            {
                "workers": args.workers,
                "queries": len(inputs.queries),
                "failed": failed,
                "leaked_segments": forced["segments"],
                "peak_rss_mb": round(sum(p["vm_hwm_mb"] for p in processes), 2),
                "processes": processes,
            }
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"  # as bench/run.py pins it
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
