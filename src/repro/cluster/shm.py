"""The graph image a worker loads, and the shared-memory plane that holds it.

A graph ships to workers as one *image*: back to back, the pickled
dictionary term chunks, the pickled weak-summary maintainer state of the
full replica, and the raw int64 column blobs of each ship target (the
full-replica tables and shard partitions).  :func:`layout_image` is the
pure layout step — blobs plus the *directory* of byte windows a worker
needs to adopt them (:meth:`MemoryStore.adopt_column_buffers`, zero-copy).
The image has two buffer *sources*, and the worker loads both through one
routine:

* **shared memory** (the default): one registered graph generation becomes
  **one** named POSIX segment holding every target.  The coordinator packs
  it once (:meth:`SegmentRegistry.pack`); every worker *attaches* instead
  of receiving bytes over its pipe — K workers, one physical copy of the
  graph per host;
* **the pipe** (``--no-shm``, or no ``/dev/shm``): the coordinator joins
  the blobs of ``full`` + one worker's shard into a ``bytes`` image per
  worker and sends it with its directory.

Lifecycle and hygiene
---------------------
The coordinator **owns** every segment: it creates them, re-packs a new
generation when the accumulated delta log outgrows the fold threshold, and
unlinks them on fold, drop and shutdown.  Unlinking only removes the name —
live worker mappings stay valid (plain POSIX semantics), which is what
makes a fold invisible to running workers.

Resource-tracker hygiene: ``multiprocessing`` children share the
coordinator's resource-tracker *process* (the pipe fd is inherited at
spawn), and the tracker only sweeps leaked names when that whole tree has
exited — a SIGKILLed worker can never trigger a sweep on its own.  CPython
< 3.13 registers even *attached* segments, but against the same shared
tracker the registration dedups into the creator's entry, so
:func:`attach` leaves it alone; unregistering there would strip the
creator's entry — losing the coordinator-SIGKILL backstop *and* making the
coordinator's own ``unlink()`` a noisy double-unregister.  On 3.13+,
``track=False`` skips attach-side registration outright.  The creator-side
registration is deliberately kept: if the *coordinator* process is
SIGKILLed, the surviving tracker unlinks the segments once the tree dies —
the backstop behind the "no leaked ``/dev/shm`` segments even after crash
injection" guarantee.
"""

from __future__ import annotations

import os
import pickle
import secrets
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ClusterError

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

__all__ = [
    "SEGMENT_PREFIX",
    "SegmentRegistry",
    "attach",
    "layout_image",
    "shm_available",
    "list_segments",
]

#: Every segment name starts with this, so tests and CI can assert that a
#: run left nothing behind with one ``/dev/shm`` listing.
SEGMENT_PREFIX = "repro-shm"

_availability: Optional[bool] = None


def shm_available() -> bool:
    """Whether named shared memory actually works here (probed once)."""
    global _availability
    if _availability is None:
        if shared_memory is None:
            _availability = False
        else:
            try:
                probe = shared_memory.SharedMemory(
                    create=True, size=8, name=_segment_name()
                )
                probe.close()
                probe.unlink()
                _availability = True
            except Exception:  # noqa: BLE001 - any failure means "no shm here"
                _availability = False
    return _availability


def list_segments() -> List[str]:
    """Named segments of this plane currently visible in ``/dev/shm``."""
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    return sorted(name for name in os.listdir(root) if name.startswith(SEGMENT_PREFIX))


def _segment_name() -> str:
    # pid + random suffix: unique across coordinators on one host, short
    # enough for every platform's shm name limit
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


def attach(name: str):
    """Attach to an existing segment without adopting its lifecycle.

    Returns the :class:`SharedMemory` handle.  Only the coordinator may
    unlink.  On CPython >= 3.13 ``track=False`` keeps the attachment out
    of the resource tracker; earlier versions register it, but workers
    share the coordinator's tracker process, so the registration dedups
    into the creator's entry and must *not* be unregistered here (see the
    module docstring).
    """
    if shared_memory is None:
        raise ClusterError("shared memory is unavailable on this platform")
    try:
        segment = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        segment = shared_memory.SharedMemory(name=name)
    return segment


#: One ship target's tables: ``kind value -> (rows, s, p, o column bytes)``.
Tables = Dict[str, Tuple[int, bytes, bytes, bytes]]


def layout_image(
    graph_name: str,
    version: int,
    term_chunks: List[list],
    targets: Sequence[Tuple[object, Tables]],
    byteorder: str,
    weak_state: Optional[dict] = None,
) -> Tuple[List[bytes], dict]:
    """Lay one graph image out: ``(blobs, directory)``, nothing copied.

    The image is the concatenation of *blobs*.  The *directory* maps named
    regions to ``(offset, length)`` byte windows (``terms``, and ``weak``
    — the maintainer state, ``None`` when there is none) and each ship
    target (a shard index, or ``"full"``) to per-table ``(row_count,
    s_offset, p_offset, o_offset)`` entries.  A table's three columns lie
    back to back, so ``p_offset - s_offset == o_offset - p_offset ==
    8 * row_count`` — the worker checks that before adopting.  The
    directory travels on the pipe, never inside the image, so a load
    needs no parsing pass.
    """
    # term_chunks is protocol.pack_term_chunks output — plain value
    # tuples, no Term objects (their hashes are process-salted).
    terms_blob = pickle.dumps(  # repro-lint: disable=no-pickled-terms
        term_chunks, protocol=pickle.HIGHEST_PROTOCOL
    )
    blobs: List[bytes] = [terms_blob]
    offset = len(terms_blob)
    directory: dict = {
        "graph": graph_name,
        "version": version,
        "byteorder": byteorder,
        "terms": (0, offset),
        "weak": None,
        "targets": {},
    }
    if weak_state is not None:
        weak_blob = pickle.dumps(weak_state, protocol=pickle.HIGHEST_PROTOCOL)
        directory["weak"] = (offset, len(weak_blob))
        blobs.append(weak_blob)
        offset += len(weak_blob)
    for target, tables in targets:
        table_directory = {}
        for kind_value, (count, s_bytes, p_bytes, o_bytes) in tables.items():
            entry = [count]
            for blob in (s_bytes, p_bytes, o_bytes):
                entry.append(offset)
                blobs.append(blob)
                offset += len(blob)
            table_directory[kind_value] = tuple(entry)
        directory["targets"][target] = table_directory
    return blobs, directory


class _Segment:
    """One packed generation: the handle, its directory, and its stats."""

    __slots__ = ("handle", "directory", "generation", "nbytes")

    def __init__(self, handle, directory: dict, generation: int, nbytes: int):
        self.handle = handle
        self.directory = directory
        self.generation = generation
        self.nbytes = nbytes


class SegmentRegistry:
    """Coordinator-side owner of every live graph segment.

    ``pack()`` lays a graph generation out (:func:`layout_image`, every
    shard plus the full replica) and copies it into one fresh segment; it
    returns ``(segment_name, directory)`` — the descriptor a worker needs
    to attach and adopt.

    Not thread-safe by itself — the coordinator serializes access with its
    segment lock.
    """

    def __init__(self):
        self._segments: Dict[str, _Segment] = {}
        self._generations: Dict[str, int] = {}
        #: Total ``pack()`` calls — the "zero repack of unchanged
        #: generations" crash-injection gate reads this.
        self.packs = 0

    def pack(
        self,
        graph_name: str,
        version: int,
        term_chunks: List[list],
        shard_tables: List[Tables],
        full_tables: Tables,
        byteorder: str,
        weak_state: Optional[dict] = None,
    ) -> Tuple[str, dict]:
        """Pack one graph generation; unlink the graph's previous one.

        The previous generation's *name* disappears immediately (workers
        already attached keep their mappings — POSIX keeps unlinked
        segments alive until the last close), so at any instant each graph
        owns at most one named segment.
        """
        if shared_memory is None:
            raise ClusterError("shared memory is unavailable on this platform")
        generation = self._generations.get(graph_name, 0) + 1
        targets = [("full", full_tables)]
        targets.extend(enumerate(shard_tables))
        blobs, directory = layout_image(
            graph_name, version, term_chunks, targets, byteorder, weak_state
        )
        directory["generation"] = generation
        nbytes = sum(len(blob) for blob in blobs)
        name = _segment_name()
        segment = shared_memory.SharedMemory(create=True, size=max(nbytes, 1), name=name)
        cursor = 0
        for blob in blobs:
            segment.buf[cursor : cursor + len(blob)] = blob
            cursor += len(blob)
        self.unlink(graph_name)
        self._segments[graph_name] = _Segment(segment, directory, generation, nbytes)
        self._generations[graph_name] = generation
        self.packs += 1
        return name, directory

    def descriptor(self, graph_name: str) -> Optional[Tuple[str, dict]]:
        """The live ``(segment_name, directory)`` of *graph_name*, if any."""
        segment = self._segments.get(graph_name)
        if segment is None:
            return None
        return segment.handle.name, segment.directory

    def unlink(self, graph_name: str) -> None:
        """Unlink and forget *graph_name*'s segment (idempotent)."""
        segment = self._segments.pop(graph_name, None)
        if segment is None:
            return
        try:
            segment.handle.close()
        except BufferError:  # pragma: no cover - coordinator keeps no views
            pass
        try:
            segment.handle.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Unlink every live segment (coordinator shutdown)."""
        for graph_name in list(self._segments):
            self.unlink(graph_name)

    def info(self) -> List[Dict[str, object]]:
        """Per-graph segment facts for status endpoints and benchmarks."""
        return [
            {
                "graph": graph_name,
                "segment": segment.handle.name,
                "generation": segment.generation,
                "bytes": segment.nbytes,
            }
            for graph_name, segment in sorted(self._segments.items())
        ]
