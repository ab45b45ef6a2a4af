"""Opt-in dynamic lock-order sanitizer (``REPRO_LOCKCHECK=1``).

PR 7's ingest-vs-respawn deadlock (entry write lock → full delta queue →
broadcaster holding a ship lock → re-ship blocked on the entry read lock)
survived review because nothing *watched the order in which threads take
locks*.  This module is that watcher: an instrumentation layer over
:class:`repro.utils.concurrency.ReadWriteLock` and every mutex created
through :func:`repro.utils.concurrency.named_lock` that maintains the
process-wide **lock-acquisition-order graph** — a directed edge ``A -> B``
whenever some thread acquires ``B`` while holding ``A`` — and checks, at
acquire time, that the new edge does not close a cycle.  A cycle means two
code paths take the same locks in opposite orders: a latent deadlock, even
if this particular run got lucky with timing.

Violations raise :class:`PotentialDeadlockError` carrying **both**
acquisition stacks: the stack of the acquire that closed the cycle and the
stack that established the conflicting order, so the report names the two
call sites that disagree rather than just the lock.

Same-thread re-acquisition of a lock already held (the non-reentrant
``ReadWriteLock`` contract, or any plain ``Lock``) is reported the same
way — that cycle has length one and needs no second thread.

Enablement
----------
Set ``REPRO_LOCKCHECK=1`` before the process starts (the cluster tier's
spawned workers inherit it) or call :func:`install` programmatically.
When not installed the hooks are a single ``is None`` test per acquire;
when installed each acquire captures a short stack and updates the graph,
roughly a 2-5x slowdown on lock-heavy paths — a sanitizer for CI and
debugging, not production.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "PotentialDeadlockError",
    "LockOrderTracker",
    "TrackedLock",
    "install",
    "uninstall",
    "enabled",
    "reset",
    "get_installed_tracker",
]

#: Frames kept per captured acquisition stack (innermost last).
_STACK_LIMIT = 16


class PotentialDeadlockError(RuntimeError):
    """A lock acquisition would close a cycle in the lock-order graph.

    Attributes
    ----------
    cycle:
        Lock names along the cycle, starting and ending with the lock
        whose acquisition was rejected.
    this_stack:
        Formatted stack of the acquisition that closed the cycle.
    other_stack:
        Formatted stack of the earlier acquisition that established the
        conflicting order (or the original acquire, for re-entry).
    """

    def __init__(
        self, message: str, cycle: List[str], this_stack: str, other_stack: str
    ):
        super().__init__(message)
        self.cycle = list(cycle)
        self.this_stack = this_stack
        self.other_stack = other_stack

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return (
            f"{self.args[0]}\n"
            f"--- acquisition closing the cycle ---\n{self.this_stack}"
            f"--- conflicting earlier acquisition ---\n{self.other_stack}"
        )


def _capture_stack() -> str:
    frames = traceback.extract_stack(limit=_STACK_LIMIT)
    # Drop the sanitizer's own frames so the report starts at caller code.
    while frames and frames[-1].filename == __file__:
        frames = frames[:-1]
    return "".join(traceback.format_list(frames))


@dataclass
class _Edge:
    """First observation of the order ``src -> dst``."""

    src: str
    dst: str
    thread_name: str
    #: Stack of the acquire of ``dst`` that created the edge.
    acquire_stack: str


@dataclass
class _Held:
    name: str
    mode: Optional[str]
    stack: str


@dataclass
class _ThreadState:
    held: List[_Held] = field(default_factory=list)
    pending: Dict[str, _Held] = field(default_factory=dict)


class LockOrderTracker:
    """Process-wide lock-order graph with acquire-time cycle detection."""

    def __init__(self):
        # Plain Lock on purpose: the tracker's own mutex must never be
        # tracked, and it is only ever held for graph bookkeeping.
        self._graph_lock = threading.Lock()
        self._edges: Dict[Tuple[str, str], _Edge] = {}
        self._successors: Dict[str, Set[str]] = {}
        self._local = threading.local()
        self.edges_recorded = 0
        self.violations = 0

    # -- thread-local state -------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
        return state

    # -- graph queries ------------------------------------------------
    def _path(self, src: str, dst: str) -> Optional[List[str]]:
        """A path ``src -> ... -> dst`` in the order graph, if one exists."""
        if src == dst:
            return [src]
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            for succ in self._successors.get(node, ()):
                if succ == dst:
                    return path + [succ]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    def edges(self) -> List[Tuple[str, str]]:
        """Snapshot of the recorded order edges (for tests/diagnostics)."""
        with self._graph_lock:
            return sorted(self._edges)

    # -- acquire/release hooks ----------------------------------------
    def before_acquire(self, name: str, mode: Optional[str] = None) -> None:
        """Validate that acquiring *name* now cannot deadlock; may raise.

        Called **before** blocking on the lock, so a rejected acquisition
        never actually waits.
        """
        state = self._state()
        this_stack = _capture_stack()
        for held in state.held:
            if held.name == name:
                self.violations += 1
                raise PotentialDeadlockError(
                    f"re-entrant acquisition of non-reentrant lock {name!r} "
                    f"(mode={mode or 'lock'}) by thread "
                    f"{threading.current_thread().name!r}: already held "
                    f"since the first acquisition below",
                    cycle=[name, name],
                    this_stack=this_stack,
                    other_stack=held.stack,
                )
        with self._graph_lock:
            for held in state.held:
                if (held.name, name) in self._edges:
                    continue
                reverse = self._path(name, held.name)
                if reverse is not None:
                    first_edge = self._edges.get((reverse[0], reverse[1]))
                    other_stack = (
                        first_edge.acquire_stack if first_edge else "<unknown>"
                    )
                    other_thread = first_edge.thread_name if first_edge else "?"
                    cycle = [held.name, name] + reverse[1:]
                    self.violations += 1
                    raise PotentialDeadlockError(
                        f"lock-order cycle: acquiring {name!r} while holding "
                        f"{held.name!r} (thread "
                        f"{threading.current_thread().name!r}), but the "
                        f"opposite order { ' -> '.join(reverse) } was "
                        f"established by thread {other_thread!r}",
                        cycle=cycle,
                        this_stack=this_stack,
                        other_stack=other_stack,
                    )
                self._edges[(held.name, name)] = _Edge(
                    src=held.name,
                    dst=name,
                    thread_name=threading.current_thread().name,
                    acquire_stack=this_stack,
                )
                self._successors.setdefault(held.name, set()).add(name)
                self.edges_recorded += 1
        state.pending[name] = _Held(name=name, mode=mode, stack=this_stack)

    def acquired(self, name: str) -> None:
        """Record that the calling thread now holds *name*."""
        state = self._state()
        held = state.pending.pop(name, None)
        if held is None:
            held = _Held(name=name, mode=None, stack=_capture_stack())
        state.held.append(held)

    def abandoned(self, name: str) -> None:
        """Forget a pending acquire that did not complete (timeout)."""
        self._state().pending.pop(name, None)

    def released(self, name: str) -> None:
        """Record that the calling thread released *name*."""
        held = self._state().held
        for index in range(len(held) - 1, -1, -1):
            if held[index].name == name:
                del held[index]
                return

    def reset(self) -> None:
        """Clear the order graph (thread-local held sets are untouched)."""
        with self._graph_lock:
            self._edges.clear()
            self._successors.clear()


class TrackedLock:
    """A ``threading.Lock`` look-alike that feeds the order tracker.

    Produced by :func:`repro.utils.concurrency.named_lock` while lockcheck
    is installed; supports the subset of the ``Lock`` API the codebase
    uses (``with``, ``acquire(blocking, timeout)``, ``release``,
    ``locked``).
    """

    __slots__ = ("_lock", "name")

    def __init__(self, name: str):
        self._lock = threading.Lock()
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        tracker = get_installed_tracker()
        if tracker is None:
            return self._lock.acquire(blocking, timeout)
        tracker.before_acquire(self.name, mode="lock")
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            tracker.acquired(self.name)
        else:
            tracker.abandoned(self.name)
        return ok

    def release(self) -> None:
        self._lock.release()
        tracker = get_installed_tracker()
        if tracker is not None:
            tracker.released(self.name)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<TrackedLock {self.name} locked={self._lock.locked()}>"


_installed: Optional[LockOrderTracker] = None
_install_lock = threading.Lock()


def install() -> LockOrderTracker:
    """Arm the sanitizer process-wide (idempotent); returns the tracker."""
    global _installed
    from repro.utils import concurrency

    with _install_lock:
        if _installed is None:
            _installed = LockOrderTracker()
        concurrency.set_tracker(_installed)
        return _installed


def uninstall() -> None:
    """Disarm the sanitizer (the recorded graph is discarded)."""
    global _installed
    from repro.utils import concurrency

    with _install_lock:
        concurrency.set_tracker(None)
        _installed = None


def enabled() -> bool:
    """``True`` while the sanitizer is armed."""
    return _installed is not None


def reset() -> None:
    """Clear the recorded order graph, keeping the sanitizer armed."""
    if _installed is not None:
        _installed.reset()


def get_installed_tracker() -> Optional[LockOrderTracker]:
    return _installed
