"""Concurrency primitives for the serving layer.

The serving layer (``repro.server``) runs many reader threads against
catalog entries that a writer occasionally updates in place.  The standard
library has no reader/writer lock, so this module provides the one the
per-entry locking discipline is built on:

* any number of threads may hold the **read** side simultaneously;
* the **write** side is exclusive against both readers and other writers;
* writers are *preferred*: once a writer is waiting, new readers queue
  behind it, so a steady query stream cannot starve ingest.

The lock is deliberately **non-reentrant** (a thread must not re-acquire
either side while holding one — the holder is not tracked, so a nested
acquire can deadlock behind a waiting writer).  The serving layer acquires
it exactly once per operation, at the outermost entry point
(:meth:`repro.service.service.QueryService.answer` takes the read side,
:meth:`repro.service.catalog.CatalogEntry.add_triples` the write side), and
never calls one of those entry points from inside another.  That contract
is machine-checked two ways: statically by the ``no-nested-rwlock`` rule of
``repro lint``, and dynamically by :mod:`repro.utils.lockcheck` when
``REPRO_LOCKCHECK=1`` is set (see :func:`named_lock` and the ``_tracker``
hook below).
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager

__all__ = ["ReadWriteLock", "map_on_threads", "named_lock", "set_tracker", "get_tracker"]

#: Active lock-order tracker installed by :mod:`repro.utils.lockcheck`,
#: or ``None`` (the default — zero per-acquire overhead).
_tracker = None

_rwlock_serial = itertools.count(1)


def set_tracker(tracker) -> None:
    """Install (or, with ``None``, remove) the lockcheck tracker.

    Called by :func:`repro.utils.lockcheck.install` / ``uninstall``; user
    code never calls this directly.
    """
    global _tracker
    _tracker = tracker


def get_tracker():
    """The installed lockcheck tracker, or ``None``."""
    return _tracker


class ReadWriteLock:
    """A writer-preferring readers/writer lock.

    Use the :meth:`read_locked` / :meth:`write_locked` context managers;
    the raw ``acquire_*`` / ``release_*`` pairs exist for callers that need
    to span a lock across non-lexical scopes.
    """

    __slots__ = (
        "_condition",
        "_readers",
        "_writer_active",
        "_writers_waiting",
        "name",
    )

    def __init__(self, name: str | None = None):
        self._condition = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        #: Stable identity used by lockcheck's lock-order graph; instance
        #: serials keep distinct locks distinct even after id() reuse.
        self.name = name or f"rwlock#{next(_rwlock_serial)}"

    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        tracker = _tracker
        if tracker is not None:
            tracker.before_acquire(self.name, mode="read")
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._readers += 1
        if tracker is not None:
            tracker.acquired(self.name)

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers < 0:
                self._readers = 0
                raise RuntimeError("release_read() without a matching acquire_read()")
            if not self._readers:
                self._condition.notify_all()
        if _tracker is not None:
            _tracker.released(self.name)

    def acquire_write(self) -> None:
        tracker = _tracker
        if tracker is not None:
            tracker.before_acquire(self.name, mode="write")
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        if tracker is not None:
            tracker.acquired(self.name)

    def release_write(self) -> None:
        with self._condition:
            if not self._writer_active:
                raise RuntimeError("release_write() without a matching acquire_write()")
            self._writer_active = False
            self._condition.notify_all()
        if _tracker is not None:
            _tracker.released(self.name)

    # ------------------------------------------------------------------
    def locked_for_read(self) -> bool:
        """``True`` while any thread holds the shared (read) side.

        Instantaneous introspection — the answer may be stale by the time
        the caller acts on it, so this is for diagnostics (lockcheck,
        ``__repr__``-style reporting), never for synchronisation.
        """
        with self._condition:
            return self._readers > 0

    def locked_for_write(self) -> bool:
        """``True`` while a thread holds the exclusive (write) side."""
        with self._condition:
            return self._writer_active

    # ------------------------------------------------------------------
    @contextmanager
    def read_locked(self):
        """Hold the shared (read) side for the duration of the block."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """Hold the exclusive (write) side for the duration of the block."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    def __repr__(self):
        with self._condition:
            return (
                f"<ReadWriteLock {self.name} readers={self._readers} "
                f"writer={'active' if self._writer_active else 'idle'} "
                f"waiting_writers={self._writers_waiting}>"
            )


def named_lock(name: str) -> threading.Lock:
    """A ``threading.Lock`` that participates in lockcheck when enabled.

    The serving and cluster tiers create their plain mutexes through this
    factory so the lock-order sanitizer can see them.  With no tracker
    installed (the default) this returns a bare ``threading.Lock`` — the
    production fast path is untouched.
    """
    if _tracker is None:
        return threading.Lock()
    from repro.utils import lockcheck

    return lockcheck.TrackedLock(name)


# Opt-in dynamic lock-order sanitizer: REPRO_LOCKCHECK=1 arms it for this
# process and (because the environment is inherited) every worker process
# spawned by the cluster tier.
if os.environ.get("REPRO_LOCKCHECK", "").strip().lower() in {"1", "true", "yes", "on"}:
    from repro.utils import lockcheck as _lockcheck_module

    _lockcheck_module.install()


def map_on_threads(function, items, threads: int, name: str) -> list:
    """``function(item)`` for each of *items* on up to *threads* threads at
    once (the calling thread is one of them; the others are ``<name>-N``),
    results in input order.  Every call runs to its end before the first
    failure, in input order, is raised."""
    outcomes = [None] * len(items)
    errors = {}
    # one iterator hands out the work: next() on it is a single C call, so
    # no index is given to two threads
    pending = iter(range(len(items)))

    def work():
        for index in pending:
            try:
                outcomes[index] = function(items[index])
            except Exception as error:  # noqa: BLE001 - raised below
                errors[index] = error

    helpers = [
        threading.Thread(target=work, name=f"{name}-{number}")
        for number in range(1, min(threads, len(items)))
    ]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return outcomes
