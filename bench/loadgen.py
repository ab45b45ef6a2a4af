"""Closed-loop HTTP load generator: persistent connections, one send per request.

Each client is a thread with its own HTTP/1.1 keep-alive connection that
waits for every reply before sending the next request (API callers, not
independent users).  Requests are pre-serialized, written with a single
``sendall`` on a ``TCP_NODELAY`` socket, and answers are decoded and checked
*after* the latency clock stops, so a stall in a sample is the server's.
"""

from __future__ import annotations

import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter, thread_time
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from inputs import IngestOp, QueryOp, http_request

Op = Union[QueryOp, IngestOp]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (*q* in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Sample(NamedTuple):
    op: Op
    seconds: float
    ok: bool


class Plan(NamedTuple):
    """One client's work: *ops* from *offset*, once or cycled until time is up.

    *quick_ack* is for untimed passes only: the server answers in two sends
    (headers, then body), and a client that delays its ACK of the first —
    as every default client does — makes each small response wait out the
    kernel's 40 ms delayed-ACK timer.  Timed phases keep that wait, because
    clients see it; a warm-up pass only has to touch server state.
    """

    ops: Sequence[Op]
    offset: int = 0
    cycle: bool = True
    quick_ack: bool = False


class PhaseResult(NamedTuple):
    samples: List[Sample]
    elapsed: float
    client_cpu: float  #: CPU seconds of all client threads
    acknowledged: List[IngestOp]  #: ingest POSTs the server answered 200 for

    def latencies_ms(self, ingest: bool) -> List[float]:
        return [
            s.seconds * 1e3
            for s in self.samples
            if s.ok and isinstance(s.op, IngestOp) == ingest
        ]

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample.ok)


class Connection:
    """A keep-alive HTTP/1.1 client connection over a raw socket."""

    def __init__(self, port: int, quick_ack: bool = False, timeout: float = 60.0):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._quick_ack = quick_ack
        self._pending = b""

    def request(self, raw: bytes) -> Tuple[int, bytes]:
        """Send *raw*, return ``(status, body)`` once the whole body arrived."""
        self._sock.sendall(raw)
        data = self._pending
        while True:
            end = data.find(b"\r\n\r\n")
            if end >= 0:
                break
            if self._quick_ack:
                # not sticky: the kernel clears it whenever it likes
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-response")
            data += chunk
        head, rest = data[:end], data[end + 4 :]
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        parts = [rest]
        received = len(rest)
        while received < length:
            chunk = self._sock.recv(min(1 << 20, length - received))
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            parts.append(chunk)
            received += len(chunk)
        body = b"".join(parts)
        self._pending = body[length:]
        return status, body[:length]

    def get_json(self, path: str):
        status, body = self.request(http_request("GET", path))
        if status != 200:
            raise ConnectionError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self._sock.close()


def _accepts(op: Op, status: int, body: bytes) -> bool:
    """A 200 whose body is what the oracle expects; a body that is not the
    JSON it should be is a wrong answer, not a crash of the checker."""
    if status != 200:
        return False
    try:
        payload = json.loads(body)
        if isinstance(op, IngestOp):
            return payload["inserted"] == len(op.triples)
        return op.expect.accepts(payload["answers"])
    except (ValueError, KeyError, TypeError):
        return False


class _Clock:
    """Phase start, stamped by the barrier when every connection is up."""

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self.begin = 0.0
        self.stopped = False

    def mark(self) -> None:
        self.begin = perf_counter()

    def expired(self) -> bool:
        return self.stopped or (
            self.seconds is not None and perf_counter() >= self.begin + self.seconds
        )


class _Done(NamedTuple):
    samples: List[Sample]
    acknowledged: List[IngestOp]
    cpu: float
    finished: float


def _client(port: int, plan: Plan, clock: _Clock, start: threading.Barrier) -> _Done:
    samples: List[Sample] = []
    acknowledged: List[IngestOp] = []
    cpu_start = thread_time()
    try:
        connection = Connection(port, plan.quick_ack)
    except OSError:
        start.abort()
        raise
    try:
        start.wait()
        position = plan.offset
        end = plan.offset + len(plan.ops)
        while not clock.expired():
            if not plan.cycle and position == end:
                # a timed phase is over when one client has nothing left to
                # send: the others must not go on against an idle server
                clock.stopped = clock.seconds is not None
                break
            op = plan.ops[position % len(plan.ops)]
            position += 1
            sent = perf_counter()
            try:
                status, body = connection.request(op.request)
            except OSError:
                # a transport error is a failed operation; the connection is
                # unusable afterwards, and a server that refuses the
                # reconnect is down — that ends the phase with an error
                samples.append(Sample(op, perf_counter() - sent, False))
                connection.close()
                connection = Connection(port, plan.quick_ack)
                continue
            seconds = perf_counter() - sent
            samples.append(Sample(op, seconds, _accepts(op, status, body)))
            if isinstance(op, IngestOp) and status == 200:
                acknowledged.append(op)
    except BaseException:
        clock.stopped = True
        start.abort()
        raise
    finally:
        connection.close()
    return _Done(samples, acknowledged, thread_time() - cpu_start, perf_counter())


def run_phase(port: int, plans: Sequence[Plan], seconds: Optional[float]) -> PhaseResult:
    """Run one client thread per plan.  With *seconds* the phase lasts that
    long, or until a plan that does not cycle runs out; with ``None`` every
    client makes one pass.  A client that dies takes the phase with it."""
    clock = _Clock(seconds)
    start = threading.Barrier(len(plans), action=clock.mark)
    with ThreadPoolExecutor(len(plans)) as pool:
        futures = [pool.submit(_client, port, plan, clock, start) for plan in plans]
    errors = [future.exception() for future in futures if future.exception()]
    if errors:
        # the clients a failure released from the barrier are not the cause
        raise next(
            (e for e in errors if not isinstance(e, threading.BrokenBarrierError)), errors[0]
        )
    done = [future.result() for future in futures]
    return PhaseResult(
        [sample for part in done for sample in part.samples],
        max(part.finished for part in done) - clock.begin,
        sum(part.cpu for part in done),
        [op for part in done for op in part.acknowledged],
    )
