"""Wire protocol of the sharded serving tier.

Everything that crosses the coordinator/worker pipe is built from
primitives — ``bytes``, ``str``, ``int``, ``None``, and tuples/lists/dicts
thereof.  No :class:`~repro.model.terms.Term`, no query objects, no store
objects are ever pickled across the boundary:

* **rows** travel as the packed id column blobs of the columnar data
  plane (:meth:`TripleStore.column_bytes` format — 4-byte
  :data:`~repro.model.dictionary.ID_TYPECODE` ids in native byte order, the bytes
  the checkpoint also stores), extracted per shard by
  :meth:`TripleStore.partition_column_bytes` and laid out into one graph
  *image* (:func:`repro.cluster.shm.layout_image`) in a named segment that
  every worker attaches — the pipe carries its name, never its bytes;
* **terms** travel through the one term codec of
  :mod:`repro.model.dictionary` (re-exported here) — the structural
  ``(kind, value, datatype, language)`` tuples the persistent catalog's
  term chunks also hold; a worker reconstructs its dictionary id-for-id,
  and a term landing on an unexpected id is a
  :class:`~repro.errors.DictionaryError`, never a silent mis-key;
* **queries** travel as SPARQL text (:meth:`BGPQuery.to_sparql` round-trips
  through :func:`~repro.queries.parser.parse_query`);
* **answers** travel as integer-id tuples, decoded against the
  coordinator's dictionary — which is why cluster answers are bit-identical
  to in-process ones.

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
from typing import Dict, List, Sequence, Tuple

from repro.errors import ClusterError
from repro.model.dictionary import (
    TERM_CHUNK,
    pack_term_chunks,
    pack_terms,
    unpack_term_chunks,
    unpack_terms,
)
from repro.model.triple import TripleKind
from repro.store.base import shard_of

__all__ = [
    "Connection",
    "OP_LOAD",
    "OP_DELTA",
    "OP_QUERY",
    "OP_DROP",
    "OP_PING",
    "OP_SHUTDOWN",
    "TERM_CHUNK",
    "pack_terms",
    "pack_term_chunks",
    "unpack_terms",
    "unpack_term_chunks",
    "pack_full_tables",
    "pack_all_shard_tables",
    "shard_rows",
]

#: Request opcodes (coordinator → worker).
#:
#: ``OP_LOAD`` carries ``(name, version, tables, deltas)``: *tables* is
#: ``(segment_name, directory)`` — the generation's segment and where each
#: target lies in it (see :func:`repro.cluster.shm.layout_image`) — and
#: *deltas* is the (possibly empty) list of log entries — ``(version,
#: (dict_start, packed_terms), rows)`` ingest batches — that post-date the
#: image, applied in order before the load is acknowledged, so a re-attach
#: after a crash needs no repack.
#: ``OP_DELTA`` carries the same kind of list: every entry of the graph's
#: log the worker has not been sent yet, in one message.  ``OP_QUERY`` has
#: no version to wait for: what it must see was sent ahead of it.
OP_LOAD = "load"  # (name, version, (segment_name, directory), deltas)
OP_DELTA = "delta"  # (name, [(version, (dict_start, packed_terms), rows), ...])
OP_QUERY = "query"  # (name, sparql, target, limit, saturated, explain, trace_id)
OP_DROP = "drop"  # (name,)
OP_PING = "ping"  # ()
OP_SHUTDOWN = "shutdown"  # ()

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


def pack_full_tables(store) -> Dict[str, Tuple[int, bytes, bytes, bytes]]:
    """All three tables of *store* as packed blobs, keyed by kind value."""
    return {kind.value: store.column_bytes(kind) for kind in TripleKind}


def pack_all_shard_tables(
    store, shard_count: int
) -> List[Dict[str, Tuple[int, bytes, bytes, bytes]]]:
    """Every shard's tables as packed blobs, one extraction pass per kind.

    The sharding rule of the tier: DATA and TYPE rows are partitioned by
    :func:`~repro.store.base.shard_of` on the subject id — disjoint across
    shards — while SCHEMA rows are **broadcast** whole to every shard.
    Schema triples are the non-subject-keyed patterns of query evaluation
    (class/property hierarchies joined from any pattern), tiny by the
    paper's own measurements, and replicating them is what keeps
    shard-local evaluation of subject-keyed queries exact.
    """
    if shard_count <= 0:
        raise ClusterError("shard_count must be positive")
    data_parts = store.partition_column_bytes(TripleKind.DATA, shard_count)
    type_parts = store.partition_column_bytes(TripleKind.TYPE, shard_count)
    schema = store.column_bytes(TripleKind.SCHEMA)
    return [
        {
            TripleKind.DATA.value: data_parts[index],
            TripleKind.TYPE.value: type_parts[index],
            TripleKind.SCHEMA.value: schema,
        }
        for index in range(shard_count)
    ]


def shard_rows(
    rows: Sequence[Tuple[str, int, int, int]], shard_index: int, shard_count: int
) -> List[Tuple[str, int, int, int]]:
    """The subset of delta *rows* shard *shard_index* must apply.

    Mirrors :func:`pack_all_shard_tables` at the row level: DATA/TYPE rows by
    subject hash, SCHEMA rows always.  ``rows`` are
    ``(kind_value, s, p, o)`` tuples — the delta wire format.
    """
    schema_value = TripleKind.SCHEMA.value
    return [
        row
        for row in rows
        if row[0] == schema_value or shard_of(row[1], shard_count) == shard_index
    ]
