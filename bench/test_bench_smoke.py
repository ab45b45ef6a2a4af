"""Smoke test of the benchmark driver (collected by the tier-1 command).

Every workload runs for about a second on a tiny graph, one of them traced,
and one run is made to die half way.  The assertions are about shape and
hygiene, never about speed: every metric BENCHMARK.json names is emitted,
finite and unit-tagged, answers are correct, and nothing outlives a run —
no process of any kind, no work directory, no ``/dev/shm`` segment — the run
that died included.

All runs are separate processes started side by side (in sequence their
cold starts alone would add ~20 s to tier-1).  They enter through
``run.main`` with the driver's four arguments, after shrinking the graph,
the mixed query list and the number of set-up cycles: how often the same
code runs changes, not which code.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import compare

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ARGUMENTS = ["--seed", "3", "--seconds", "1"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

_SMALL = (
    "import sys; sys.path.insert(0, %r); import run, inputs\n"
    "inputs.SCALE, inputs.MIXED_QUERIES, run.CYCLES = 50, 40, 1\n" % BENCH_DIR
)
#: the second phase of the run is the timed one: by then a cluster server,
#: its two workers and its shm segment are up and warm
_DIES = _SMALL + (
    "phases, real = [], run.run_phase\n"
    "def dying(*args, **kwargs):\n"
    "    phases.append(1)\n"
    "    if len(phases) > 1: raise RuntimeError('injected failure')\n"
    "    return real(*args, **kwargs)\n"
    "run.run_phase = dying\n"
)
#: runs the program given as its argument as a child and, as the new parent
#: of whatever that child orphans, names every process that outlived it
#: (36 is PR_SET_CHILD_SUBREAPER); a zombie counts, nobody waited for it
_WATCH = (
    "import ctypes, os, subprocess, sys\n"
    "ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)\n"
    "code = subprocess.call([sys.executable, '-c', sys.argv[1]])\n"
    "with open('/proc/self/task/%d/children' % os.getpid()) as handle:\n"
    "    print('outlived the run: [%s]' % handle.read().strip(), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _start(job):
    name, workload, trace, prelude = job
    arguments = ["--workload", workload, "--trace", str(trace)] + ARGUMENTS
    return name, subprocess.run(
        [sys.executable, "-c", _WATCH, prelude + f"sys.exit(run.main({arguments!r}))"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),  # what run.py's own re-exec sets
        capture_output=True,
        text=True,
        timeout=170,
    )


def _leftovers():
    """Server processes, work directories and shm segments of any bench run."""
    marker = os.path.join(BENCH_DIR, "out", "work-").encode()
    processes = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if marker in handle.read():
                    processes.append(int(pid))
        except OSError:
            continue

    def listing(path, prefix):
        return [n for n in (os.listdir(path) if os.path.isdir(path) else []) if n.startswith(prefix)]

    return (
        processes,
        listing(os.path.join(BENCH_DIR, "out"), "work-"),
        listing("/dev/shm", "repro-shm"),
    )


@pytest.fixture(scope="module")
def runs():
    jobs = [(name, name, 0, _SMALL) for name in WORKLOADS]
    jobs.append(("traced", "join_heavy", 1, _SMALL))
    jobs.append(("dies", "mixed_cluster_k2", 0, _DIES))
    with ThreadPoolExecutor(len(jobs)) as pool:
        finished = dict(pool.map(_start, jobs))
    return finished, _leftovers()


WORKLOADS = ["mixed_serial", "join_heavy", "ingest_with_readers", "mixed_cluster_k2"]


@pytest.mark.parametrize("name", WORKLOADS + ["traced"])
def test_run_emits_every_metric(runs, name):
    completed = runs[0][name]
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if name == "traced" else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in section}
    for metric in section:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]
        if name != "traced":
            assert emitted["value"] > 0, metric["name"]  # bounds are relative


def test_workloads_are_the_four_named():
    assert [workload["name"] for workload in SPEC["workloads"]] == WORKLOADS


def test_traced_run_writes_its_spans(runs):
    with open(os.path.join(BENCH_DIR, "out", "trace_join_heavy.json")) as handle:
        trace = json.load(handle)
    assert trace["columns"] == ["name", "start", "end", "parent", "operation"]
    names = {row[0] for row in trace["spans"]}
    assert {"http.dispatch", "queries.parse", "evaluator.evaluate", "cluster.scatter"} <= names


def test_run_that_dies_prints_no_result(runs):
    completed = runs[0]["dies"]
    assert completed.returncode != 0
    assert "injected failure" in completed.stderr
    assert not completed.stdout.strip()


def test_nothing_is_left_behind(runs):
    assert runs[1] == ([], [], [])
    for name, completed in runs[0].items():
        # the traced run starts multiprocessing's resource tracker in the
        # benchmark process itself; a killed cluster server orphans three
        assert completed.stderr.rstrip().endswith("outlived the run: []"), (name, completed.stderr[-500:])


def test_command_fails_without_the_program(tmp_path):
    """The driver's own command line, where there is nothing to measure."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    completed = subprocess.run(
        SPEC["command"] + ["--workload", "mixed_serial", "--trace", "0"] + ARGUMENTS,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_compare_judges_pairs():
    base = [1.0, 1.1, 0.9, 1.0, 1.2]
    assert compare.judge(base, [v * 1.05 for v in base], "lower", 0.25)["verdict"] == "ok"
    assert compare.judge(base, [v * 1.40 for v in base], "lower", 0.25)["verdict"] == "worse"
    assert compare.judge(base, [v * 1.40 for v in base], "higher", 0.25)["verdict"] == "ok"
    # a slow spell that hits both files in the same pairs cancels ...
    assert compare.judge(base[:3] + [2.0, 2.4], base[:3] + [2.1, 2.3], "lower", 0.25)["verdict"] == "ok"
    # ... one that hits two runs of one file only does not
    assert compare.judge(base, base[:3] + [2.0, 2.4], "lower", 0.25)["verdict"] == "unresolved"
