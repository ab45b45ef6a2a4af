"""Shared utilities: disjoint sets, timing helpers, and lock discipline."""

from repro._lazy import lazy_exports

__all__ = [
    "PotentialDeadlockError",
    "ReadWriteLock",
    "Stopwatch",
    "TimingLog",
    "named_lock",
    "time_call",
    "UnionFind",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "concurrency": ("ReadWriteLock", "named_lock"),
    "lockcheck": ("PotentialDeadlockError",),
    "timing": ("Stopwatch", "TimingLog", "time_call"),
    "unionfind": ("UnionFind",),
})
