"""The graph image a worker loads, and the shared-memory plane that holds it.

A graph ships to workers as one *image*: the raw id column blobs of its
three tables, back to back — integers only: no term, because a worker
evaluates compiled id queries and never decodes, and nothing derived from
the rows (statistics), which a worker builds on first need.
:func:`layout_image` is the pure layout step — blobs plus the *directory*
of byte windows a worker needs to adopt them
(:meth:`MemoryStore.adopt_column_buffers`, zero-copy).
One registered graph generation becomes **one** named segment: the
coordinator packs it once (:meth:`SegmentRegistry.pack`)
and every worker *attaches* it instead of receiving bytes over its pipe —
K workers, one physical copy of the graph per host.

Lifecycle and hygiene
---------------------
The coordinator **owns** every segment: it creates them, re-packs a new
generation when the accumulated delta log outgrows the fold threshold, and
unlinks them on fold, drop and shutdown.  Unlinking only removes the name —
live worker mappings stay valid (plain POSIX semantics), which is what
makes a fold invisible to running workers.

Ownership is a lock, not a table in some other process: for as long as it
owns a name the coordinator holds ``flock(LOCK_EX)`` on the file behind it.
The kernel drops that lock however the owner dies (and a recycled pid or a
pid namespace cannot fake it), so *a segment whose lock can be taken is an
orphan* (:func:`is_orphan`), and an orphan is unlinked by whoever notices
(:func:`unlink_orphans`): a worker whose pipe reached EOF checks the names
it attached, and every new :class:`SegmentRegistry` sweeps what a tree
that died whole left behind.  No helper process waits around to do it.

A segment is a file in ``/dev/shm`` (where POSIX shared memory lives on
Linux), created, mapped and unlinked with ``open`` / ``mmap`` / ``unlink``;
where that directory is missing or takes no locked file it is a file in
the temporary directory, handled the same way.  A ``/dev/shm`` that works
but is too small for a graph is no reason to move: that pack fails with
:class:`~repro.errors.SegmentError`.
"""

from __future__ import annotations

import fcntl
import mmap
import os
from typing import BinaryIO, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SEGMENT_PREFIX",
    "SegmentRegistry",
    "attach",
    "is_orphan",
    "layout_image",
    "list_segments",
    "unlink_orphans",
]

#: Every segment name starts with this, so tests and CI can assert that a
#: run left nothing behind with one ``/dev/shm`` listing.
SEGMENT_PREFIX = "repro-shm"


def _segment_name() -> str:
    # pid + random suffix: unique across coordinators on one host, short
    # enough for every platform's shm name limit
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{os.urandom(4).hex()}"


def _root(preferred: str) -> str:
    """*preferred* if a segment can be created, owner-locked and unlinked
    there, else the temporary directory.

    The probe writes no byte, so its verdict does not depend on how full
    *preferred* is: every process on the host — the coordinator and each
    worker it spawns — picks the same directory.
    """
    path = os.path.join(preferred, "." + _segment_name())
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)
            os.unlink(path)
    except OSError:  # missing, read-only, or no flock there
        import tempfile  # with shutil, bz2, lzma and random: only on this branch

        return tempfile.gettempdir()
    return preferred


#: Where segments live: POSIX shared memory where the platform mounts a
#: usable one, else the temporary directory — the same files, calls and
#: lifecycle.  Probed once per process; not configurable.
_SHM_ROOT = _root("/dev/shm")


def _path(name: str) -> str:
    return os.path.join(_SHM_ROOT, name)


def list_segments() -> List[str]:
    """Named segments of this plane currently visible in its directory."""
    return sorted(name for name in os.listdir(_SHM_ROOT) if name.startswith(SEGMENT_PREFIX))


def _create_owned(name: str, blobs: Iterable[bytes]) -> BinaryIO:
    """Create segment *name* holding *blobs*; returns the open file whose
    ``flock`` marks the name as owned until it is closed.

    The file is created under a dot-name :func:`list_segments` does not
    see, locked, and only then renamed — a visible name is therefore either
    owned or an orphan, never merely young, and a concurrent sweep cannot
    take a segment away between its creation and its lock.
    """
    path = _path("." + name)
    owner = open(path, "xb", opener=lambda file, flags: os.open(file, flags, 0o600))
    try:
        fcntl.flock(owner, fcntl.LOCK_EX | fcntl.LOCK_NB)
        os.rename(path, _path(name))
        path = _path(name)
        owner.writelines(blobs)
        owner.flush()
    except BaseException:
        os.unlink(path)
        owner.close()
        raise
    return owner


def is_orphan(name: str) -> bool:
    """Whether segment *name* exists and its owner is gone.

    True exactly when the owner lock can be taken (it is released again at
    once); false for a name that is owned — by any process, this one
    included — or that no longer exists.
    """
    try:
        with open(_path(name), "rb") as probe:
            fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:  # BlockingIOError: owned; FileNotFoundError: gone
        return False
    return True


def unlink_orphans(names: Optional[Iterable[str]] = None) -> None:
    """Unlink each of *names* (default: every listed segment) whose owner
    is gone."""
    for name in list_segments() if names is None else names:
        if is_orphan(name):
            try:
                os.unlink(_path(name))
            except FileNotFoundError:  # someone else noticed first
                pass


class _Attached:
    """A segment mapped read-only into this process — what :func:`attach`
    returns: ``name``, ``buf`` (a ``memoryview`` of the whole image) and
    ``close()``, which raises :class:`BufferError` while slices of ``buf``
    are still alive."""

    __slots__ = ("name", "buf", "_mmap")

    def __init__(self, name: str):
        with open(_path(name), "rb") as file:
            # an empty graph's image is empty, and no empty file maps
            size = os.fstat(file.fileno()).st_size
            self._mmap = mmap.mmap(file.fileno(), size, access=mmap.ACCESS_READ) if size else b""
        self.name = name
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        if self._mmap:
            self._mmap.close()


def attach(name: str) -> _Attached:
    """Map the existing segment *name* without adopting its lifecycle.

    The mapping outlives the name (an unlink by the owner leaves it valid)
    and holds no lock: attaching never makes a segment look owned.
    """
    return _Attached(name)


#: A graph's tables: ``kind value -> (rows, s, p, o column bytes)``.
Tables = Dict[str, Tuple[int, bytes, bytes, bytes]]


def layout_image(
    graph_name: str,
    version: int,
    tables: Tables,
    byteorder: str,
) -> Tuple[List[bytes], dict]:
    """Lay one graph image out: ``(blobs, directory)``, nothing copied.

    The image is the concatenation of *blobs*.  The *directory* maps
    ``tables`` to per-table ``(row_count, s_offset, p_offset, o_offset)``
    entries.  A table's three columns lie back to back, so ``p_offset -
    s_offset == o_offset - p_offset == ID_BYTES * row_count`` (4-byte ids,
    :data:`repro.store.base.ID_BYTES`: the bytes of
    :meth:`~repro.store.base.TripleStore.column_bytes`, which the checkpoint
    stores too) — the worker checks that before adopting.  The directory
    travels on the pipe, never inside the image, so a load needs no parsing
    pass.
    """
    blobs: List[bytes] = []
    offset = 0
    directory: dict = {
        "graph": graph_name,
        "version": version,
        "byteorder": byteorder,
        "tables": {},
    }
    for kind_value, (count, s_bytes, p_bytes, o_bytes) in tables.items():
        entry = [count]
        for blob in (s_bytes, p_bytes, o_bytes):
            entry.append(offset)
            blobs.append(blob)
            offset += len(blob)
        directory["tables"][kind_value] = tuple(entry)
    return blobs, directory


class _Segment:
    """One packed generation: its name, the open file whose lock owns the
    name, its directory, and its stats."""

    __slots__ = ("name", "owner", "directory", "generation", "nbytes")

    def __init__(self, name: str, owner: BinaryIO, directory: dict, generation: int, nbytes: int):
        self.name = name
        self.owner = owner
        self.directory = directory
        self.generation = generation
        self.nbytes = nbytes


class SegmentRegistry:
    """Coordinator-side owner of every live graph segment.

    ``pack()`` lays a graph generation out (:func:`layout_image`) and
    writes it into one fresh segment; it returns ``(segment_name,
    directory)`` — the descriptor a worker needs to attach and adopt — and
    the segment's size.  The registry never maps a segment itself: the
    image's pages belong to the workers that read them.

    Constructing a registry first unlinks every orphan of the plane
    (:func:`unlink_orphans`) — what a coordinator that was killed together
    with its workers left behind; a live registry's segments are locked and
    stay.

    Not thread-safe by itself — the coordinator serializes access with its
    segment lock.
    """

    def __init__(self):
        unlink_orphans()
        self._segments: Dict[str, _Segment] = {}
        self._generations: Dict[str, int] = {}
        #: Total ``pack()`` calls — the "zero repack of unchanged
        #: generations" crash-injection gate reads this.
        self.packs = 0

    def pack(
        self,
        graph_name: str,
        version: int,
        tables: Tables,
        byteorder: str,
    ) -> Tuple[str, dict, int]:
        """Pack one graph generation; unlink the graph's previous one.
        Returns the descriptor and the segment's size in bytes.

        The previous generation's *name* disappears immediately (workers
        already attached keep their mappings — POSIX keeps unlinked
        segments alive until the last close), so at any instant each graph
        owns at most one named segment.
        """
        generation = self._generations.get(graph_name, 0) + 1
        blobs, directory = layout_image(graph_name, version, tables, byteorder)
        directory["generation"] = generation
        name = _segment_name()
        owner = _create_owned(name, blobs)
        self.unlink(graph_name)
        nbytes = sum(len(blob) for blob in blobs)
        self._segments[graph_name] = _Segment(name, owner, directory, generation, nbytes)
        self._generations[graph_name] = generation
        self.packs += 1
        return name, directory, nbytes

    def descriptor(self, graph_name: str) -> Optional[Tuple[str, dict]]:
        """The live ``(segment_name, directory)`` of *graph_name*, if any."""
        segment = self._segments.get(graph_name)
        if segment is None:
            return None
        return segment.name, segment.directory

    def unlink(self, graph_name: str) -> None:
        """Unlink and forget *graph_name*'s segment (idempotent)."""
        segment = self._segments.pop(graph_name, None)
        if segment is None:
            return
        # the name goes first, the lock second: released the other way
        # round, the segment would be an orphan for anyone to unlink
        try:
            os.unlink(_path(segment.name))
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        segment.owner.close()

    def close(self) -> None:
        """Unlink every live segment (coordinator shutdown)."""
        for graph_name in list(self._segments):
            self.unlink(graph_name)

    def info(self) -> List[Dict[str, object]]:
        """Per-graph segment facts for status endpoints and benchmarks."""
        return [
            {
                "graph": graph_name,
                "segment": segment.name,
                "generation": segment.generation,
                "bytes": segment.nbytes,
            }
            for graph_name, segment in sorted(self._segments.items())
        ]
