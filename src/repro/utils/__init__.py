"""Shared utilities: disjoint sets, timing helpers, and lock discipline."""

from repro._lazy import lazy_exports

__all__ = [
    "PotentialDeadlockError",
    "ReadWriteLock",
    "Stopwatch",
    "named_lock",
    "UnionFind",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "concurrency": ("ReadWriteLock", "named_lock"),
    "lockcheck": ("PotentialDeadlockError",),
    "timing": ("Stopwatch",),
    "unionfind": ("UnionFind",),
})
