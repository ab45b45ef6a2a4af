"""Wire protocol of the replicated serving tier.

Everything that crosses the coordinator/worker pipe is built from
primitives — ``bytes``, ``str``, ``int``, ``float``, ``None``, and
tuples/lists/dicts thereof.  No :class:`~repro.model.terms.Term` crosses it
at all, and no query or store object is ever pickled across the boundary:

* **rows** travel as the packed id column blobs of the columnar data
  plane (:meth:`TripleStore.column_bytes` format — 4-byte
  :data:`~repro.model.dictionary.ID_TYPECODE` ids in native byte order, the bytes
  the checkpoint also stores), laid out into one graph *image*
  (:func:`repro.cluster.shm.layout_image`) in a named segment that every
  worker attaches — the pipe carries its name, never its bytes; an ingest
  batch travels as ``(kind_value, s, p, o)`` id rows;
* **queries** travel compiled (:func:`query_payload`): the coordinator
  parses, guards and compiles them against its own dictionary and sends a
  worker only the *evaluation* of the id query;
* **answers** travel as head id tuples, decoded once against the
  coordinator's dictionary — which is why cluster answers are bit-identical
  to in-process ones;
* the **vocabulary** a worker's ``G∞`` rules read — the ids of ``rdf:type``
  and the RDFS constraint properties
  (:func:`~repro.schema.encoded_saturation.vocabulary_ids`) — travels with
  a load, and with any log entry whose batch minted one of them.

Message framing
---------------
A message is one pickle behind an 8-byte big-endian length, written to and
read from the socket-pair descriptor directly (:class:`Connection` — no
``multiprocessing``).  Every request is ``(request_id, op, payload)`` and every reply
``(request_id, status, payload)`` with ``status`` either ``"ok"`` or
``"error"`` (payload then ``(error_kind, message)``).  A worker answers in
the order it was sent to — read-your-writes rests on that: a write reaches
it as a message sent ahead of the request that must see it — and replies
are matched by id because several coordinator threads have requests
outstanding on one pipe; a per-worker receiver thread routes each reply to
its waiter.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import sys
from typing import Dict, Tuple

from repro.model.triple import TripleKind

__all__ = [
    "Connection",
    "OP_LOAD",
    "OP_DELTA",
    "OP_QUERY",
    "OP_DROP",
    "OP_PING",
    "OP_SHUTDOWN",
    "pack_full_tables",
    "query_payload",
]

#: Request opcodes (coordinator → worker).
#:
#: ``OP_LOAD`` carries ``(name, version, tables, vocabulary, deltas)``:
#: *tables* is ``(segment_name, directory)`` — the generation's segment and
#: where each table lies in it (see :func:`repro.cluster.shm.layout_image`)
#: — *vocabulary* the graph's vocabulary map, and *deltas* the (possibly
#: empty) list of log entries — ``(version, vocabulary or None, rows)``
#: ingest batches — that post-date the image, applied in order before the
#: load is acknowledged, so a re-attach after a crash needs no repack.
#: ``OP_DELTA`` carries the same kind of list: every entry of the graph's
#: log the worker has not been sent yet, in one message.  ``OP_QUERY`` has
#: no version to wait for: what it must see was sent ahead of it.  Its
#: reply holds the head id rows and, as asked, the plan's per-stage counts,
#: the worker's span subtree and its ``G∞`` metrics.
OP_LOAD = "load"  # (name, version, (segment_name, directory), vocabulary, deltas)
OP_DELTA = "delta"  # (name, [(version, vocabulary or None, rows), ...])
OP_QUERY = "query"  # (name, [(s, p, o, table kind values), ...], head_slots,
#                     variable_count, limit, saturated, explain, trace_id)
OP_DROP = "drop"  # (name,)
OP_PING = "ping"  # ()
OP_SHUTDOWN = "shutdown"  # ()
OPS = (OP_LOAD, OP_DELTA, OP_QUERY, OP_DROP, OP_PING, OP_SHUTDOWN)

#: The byte order blobs are packed in; shipped alongside so a worker on a
#: different-endian host (exotic, but cheap to guard) byteswaps on load.
BYTEORDER = sys.byteorder


_LENGTH = struct.Struct("!Q")


class Connection:
    """One end of a coordinator/worker pipe, owning the descriptor *fd*.  One
    thread may send while another receives; two senders need a lock of their
    own.  Only what the other end of the pair wrote is ever unpickled."""

    def __init__(self, fd: int):
        self._fd = fd

    def fileno(self) -> int:
        """The descriptor; ``-1`` once closed (every use of it then raises)."""
        return self._fd

    def send(self, message) -> None:
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        # a large answer set or a long log entry runs to megabytes: its
        # header goes ahead of it, not into a copy of it
        header = _LENGTH.pack(len(data))
        for part in [header + data] if len(data) < 65536 else [header, data]:
            view = memoryview(part)
            while view:
                view = view[os.write(self._fd, view) :]

    def _read(self, size: int) -> bytearray:
        data = bytearray()
        while len(data) < size:
            chunk = os.read(self._fd, min(size - len(data), 1 << 20))
            if not chunk:
                raise EOFError("the other end of the pipe is closed")
            data += chunk
        return data

    def recv(self):
        (size,) = _LENGTH.unpack(self._read(_LENGTH.size))
        return pickle.loads(self._read(size))

    def poll(self, timeout: float) -> bool:
        """Whether a message (or EOF) is readable within *timeout* seconds."""
        return bool(select.select([self._fd], [], [], timeout)[0])

    def close(self) -> None:
        fd, self._fd = self._fd, -1
        if fd >= 0:
            os.close(fd)


def query_payload(graph_name: str, compiled, limit, saturated: bool, explain: bool, trace_id):
    """The ``OP_QUERY`` payload evaluating *compiled* (a
    :class:`~repro.service.evaluator.CompiledQuery`) on graph *graph_name*."""
    patterns = [
        (pattern.subject, pattern.predicate, pattern.object, [kind.value for kind in pattern.tables])
        for pattern in compiled.patterns
    ]
    return (
        graph_name, patterns, compiled.head_slots, compiled.variable_count,
        limit, saturated, explain, trace_id,
    )  # fmt: skip


def pack_full_tables(store) -> Dict[str, Tuple[int, bytes, bytes, bytes]]:
    """All three tables of *store* as packed blobs, keyed by kind value."""
    return {kind.value: store.column_bytes(kind) for kind in TripleKind}

