"""The program under test: cold build, ``repro serve`` subprocess, teardown.

The server runs the way users run it — ``python -m repro serve`` in its own
process (own GIL), on the checkpointed catalog file, port parsed from the
banner.  Everything it leaves behind (process tree, work directory,
``/dev/shm`` segments) is accounted for by :meth:`ServerProcess.reap`.
"""

from __future__ import annotations

import ctypes
import os
import re
import shutil
import signal
import subprocess
import sys
import uuid
from time import perf_counter, sleep
from typing import Dict, List, Optional

from repro.cluster import shm
from repro.model.graph import RDFGraph
from repro.service.catalog import GraphCatalog

from inputs import GRAPH

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
GUARD_KINDS = ("weak", "strong")
_BANNER = re.compile(rb"serving .* on http://[^:]+:(\d+) ")
_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def make_workdir() -> str:
    """A fresh scratch directory inside the checkout (``bench/out`` is ignored)."""
    path = os.path.join(OUT_DIR, f"work-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    os.makedirs(path)
    return path


def cold_build(path: str, graph: RDFGraph) -> Dict[str, float]:
    """Build the persistent catalog the server warm-starts from; stage seconds."""
    start = perf_counter()
    catalog = GraphCatalog.open(path)
    try:
        opened = perf_counter()
        entry = catalog.register(GRAPH, graph=graph)
        registered = perf_counter()
        for kind in GUARD_KINDS:
            entry.summary(kind)
        summarized = perf_counter()
        catalog.checkpoint()
        checkpointed = perf_counter()
    finally:
        catalog.close()
    return {
        "register_s": registered - opened,
        "summaries_s": summarized - registered,
        "checkpoint_s": checkpointed - summarized,
        "total_s": perf_counter() - start,
        "bytes": float(catalog_bytes(path)),
    }


def catalog_bytes(path: str) -> int:
    """Catalog file plus its SQLite sidecars (WAL, shm index)."""
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal", "-shm")
        if os.path.exists(path + suffix)
    )


def _descendants(pid: int) -> List[int]:
    """Live descendants of *pid*, read from ``/proc`` (children before theirs)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    children = [int(child) for child in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def adopt_orphans() -> None:
    """Make this process the parent of whatever a killed server orphans.

    A ``SIGKILL``ed cluster server leaves its workers and its resource
    tracker to notice on their own.  As their new parent this process can
    wait for each of them, so none is left to anyone else — not running, and
    not as a zombie either.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # then orphans go to init, and _ended() falls back to /proc


def _ended(pid: int) -> bool:
    """Whether *pid* has ended; a child of this process is reaped by asking."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return not _alive(pid)


def _kill_and_wait(pids: List[int], timeout: float = 10.0) -> None:
    """SIGKILL each of *pids* and stay until all of them have ended."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = perf_counter() + timeout
    while not all([_ended(pid) for pid in pids]) and perf_counter() < deadline:
        sleep(0.005)


def stop_own_children() -> None:
    """End, and wait for, every process this one started that is not a server.

    The traced run's in-process ``ClusterCoordinator`` packs shared-memory
    segments, which starts ``multiprocessing``'s resource tracker as a child
    of this process.  The tracker runs until its pipe closes — left alone,
    until just *after* this process has exited, so it would outlive the run.
    """
    from multiprocessing import resource_tracker

    # the one way to end the tracker without leaving it behind: closes its
    # pipe and waits for it (a no-op when it was never started)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    _kill_and_wait(_descendants(os.getpid()))


class ServerProcess:
    """One ``python -m repro serve`` subprocess on a checkpointed catalog."""

    def __init__(self, workdir: str, catalog_path: str, workers: int):
        self.catalog_path = catalog_path
        self.workers = workers
        self._log_path = os.path.join(workdir, f"serve-{uuid.uuid4().hex[:8]}.log")
        self._process: Optional[subprocess.Popen] = None
        self._tree: List[int] = []
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        """Spawn the server and wait for its banner (the bound port)."""
        command = [
            sys.executable, "-m", "repro", "serve",
            "--catalog", self.catalog_path,
            "--backend", "memory",
            "--kind", "+".join(GUARD_KINDS),
            "--strategy", "hash",
            "--threads", "2",
            "--port", "0",
        ]  # fmt: skip
        if self.workers:
            command += ["--workers", str(self.workers)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # stdout goes to a file, not a pipe: the shutdown path dumps the
        # slow-query log, which nobody would be draining
        with open(self._log_path, "wb") as log:
            self._process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            with open(self._log_path, "rb") as log:
                match = _BANNER.search(log.read())
            if match:
                self.port = int(match.group(1))
                return
            if self._process.poll() is not None:
                break
            sleep(0.005)
        raise RuntimeError(f"repro serve did not come up:\n{self.log_tail()}")

    def log_tail(self) -> str:
        try:
            with open(self._log_path, "rb") as log:
                return log.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    @property
    def pid(self) -> int:
        assert self._process is not None
        return self._process.pid

    def peak_rss_mb(self) -> float:
        """Σ ``VmHWM`` over the server and every process below it."""
        total_kb = 0
        for pid in [self.pid] + _descendants(self.pid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def kill(self) -> None:
        """SIGKILL the server alone — its workers must notice on their own."""
        assert self._process is not None
        self._tree = _descendants(self.pid)
        self._process.kill()
        self._process.wait()

    def reap(self, timeout: float = 10.0) -> Dict[str, int]:
        """Make sure nothing of this server survives; report what had to be forced.

        Workers exit when their pipe reaches EOF and the resource tracker
        unlinks the coordinator's segments once the tree is gone, so a clean
        run forces nothing.  What is still there after *timeout* is killed
        and unlinked — and counted, so a leak shows up as a number instead
        of as litter on the next run.
        """
        if self._process is None:
            return {"processes": 0, "segments": 0}
        if self._process.poll() is None:
            self.kill()
        deadline = perf_counter() + timeout
        prefix = f"{shm.SEGMENT_PREFIX}-{self.pid}-"

        def leftovers():
            return (
                [pid for pid in self._tree if not _ended(pid)],
                [name for name in shm.list_segments() if name.startswith(prefix)],
            )

        processes, segments = leftovers()
        while (processes or segments) and perf_counter() < deadline:
            sleep(0.02)
            processes, segments = leftovers()
        _kill_and_wait(processes)
        for name in segments:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
        return {"processes": len(processes), "segments": len(segments)}


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(OUT_DIR)  # only when empty: trace files of earlier runs stay
    except OSError:
        pass
