"""Encoded triple stores: the relational substrate of the summarizer."""

from repro._lazy import lazy_exports

__all__ = ["StoreStatistics", "TripleStore", "MemoryStore", "SQLiteStore"]

__getattr__, __dir__ = lazy_exports(globals(), {
    "base": ("StoreStatistics", "TripleStore"),
    "memory": ("MemoryStore",),
    "sqlite": ("SQLiteStore",),
})
