"""The sharded multi-process serving tier.

``repro.cluster`` scales the serving layer across CPU cores: a
:class:`~repro.cluster.coordinator.ClusterCoordinator` hash-partitions each
registered graph's encoded rows by subject id into K shards, packs shards
and full replicas as raw 4-byte id column blobs into one named shared-memory
segment per graph (zero Terms pickled) that every worker process attaches
zero-copy, and answers BGP queries by scatter-gather, every shard guarded
by its own weak/strong summaries, so refuted shards never run a join.
Every dictionary id is assigned by the coordinator.  Answers stay
bit-identical to the in-process :class:`~repro.service.service.QueryService`
(see ``docs/cluster.md`` for the architecture and the failure model).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClusterCoordinator",
    "SegmentRegistry",
    "worker_main",
    "TARGET_FULL",
    "TARGET_SHARD",
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
    "worker": ("TARGET_FULL", "TARGET_SHARD", "worker_main"),
})
