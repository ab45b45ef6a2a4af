"""The replicated multi-process serving tier.

``repro.cluster`` scales the serving layer across CPU cores: a
:class:`~repro.cluster.coordinator.ClusterCoordinator` packs each
registered graph's encoded rows as raw 4-byte id column blobs into one
named shared-memory segment per graph (no term at all) that every worker
process attaches zero-copy as its full replica; its one query service
guards each BGP query with the summaries of the whole graph and hands the
evaluation of the compiled id query round-robin to one worker.
Every dictionary id is assigned by the coordinator.  Answers stay
bit-identical to the in-process :class:`~repro.service.service.QueryService`
(see ``docs/cluster.md`` for the architecture and the failure model).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClusterCoordinator",
    "SegmentRegistry",
    "worker_main",
    "OP_LOAD",
    "OP_DELTA",
    "OP_QUERY",
    "OP_DROP",
    "OP_PING",
    "OP_SHUTDOWN",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "coordinator": ("ClusterCoordinator",),
    "protocol": ("OP_DELTA", "OP_DROP", "OP_LOAD", "OP_PING", "OP_QUERY", "OP_SHUTDOWN"),
    "shm": ("SegmentRegistry",),
    "worker": ("worker_main",),
})
