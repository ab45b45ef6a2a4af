"""The HTTP front end of the serving layer (``repro serve``).

A thin JSON API over one :class:`~repro.service.catalog.GraphCatalog`,
served by the server's own HTTP/1.1 loop on :mod:`socketserver`: one thread
per connection, on which each request is read, answered and written (how
many do heavy work at once is the
:class:`~repro.server.executor.QueryExecutor`'s bound).  The loop speaks
what the API needs — ``GET`` / ``POST`` / ``DELETE``, ``Content-Length``
bodies, keep-alive, ``Expect: 100-continue`` — and nothing here imports
:mod:`http.server`, which costs a serving process ``http.client``, ``email``
and ``ssl`` for no request that ever called them.  Routes:

========  =================================  =====================================
method    path                               action
========  =================================  =====================================
GET       ``/healthz``                       liveness + catalog overview
GET       ``/metrics``                       Prometheus text exposition
GET       ``/debug/slow``                    slow-query log (JSON ring buffer)
GET       ``/cluster``                       worker-pool status (404 in-process)
GET       ``/graphs``                        registered graphs with row counts
POST      ``/graphs``                        register a graph (JSON name+triples)
DELETE    ``/graphs/<name>``                 drop a graph
GET       ``/graphs/<name>/statistics``      store + cardinality + service stats
GET       ``/graphs/<name>/summary/<kind>``  summary metrics (``?format=ntriples``
                                             for the summary graph itself)
POST      ``/graphs/<name>/query``           answer a BGP query (summary-guarded)
POST      ``/graphs/<name>/triples``         ingest N-Triples (write-locked)
========  =================================  =====================================

Request and response bodies are JSON (except the optional N-Triples
rendering of a summary); RDF terms travel in N-Triples syntax.  Errors map
onto conventional status codes: unknown graph → 404, malformed queries or
triples → 400, duplicate registration → 409.

The server binds ``127.0.0.1`` by default and has no authentication —
front it with a reverse proxy before exposing it beyond localhost.
"""

from __future__ import annotations

import json
import re
import socketserver
import sys
import threading
from http import HTTPStatus
from itertools import chain
from json.encoder import encode_basestring_ascii
from time import gmtime, monotonic, perf_counter, strftime
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlparse

import repro
from repro import telemetry
from repro.errors import (
    ClusterError,
    DuplicateGraphError,
    PersistenceError,
    ReproError,
    UnknownGraphError,
)
from repro.io.ntriples import parse_ntriples, serialize_ntriples
from repro.model.graph import RDFGraph
from repro.queries.parser import parse_query
from repro.server.executor import QueryExecutor
from repro.service.catalog import GraphCatalog
from repro.service.evaluator import AnswerRows
from repro.service.service import QueryAnswer, QueryService

__all__ = ["ServerApp", "make_server", "start_background"]

_GRAPH_ROUTE = re.compile(r"^/graphs/(?P<name>[^/]+)(?P<rest>/.*)?$")

#: Largest accepted request body (64 MiB) — a guard against memory abuse,
#: not a statement about sensible ingest batch sizes.
_MAX_BODY_BYTES = 64 * 1024 * 1024

#: The longest request or header line (414 / 431 past it) and the most
#: header lines (431).
_MAX_LINE_BYTES = 65536
_MAX_HEADERS = 100

#: Once a request's first byte has arrived, the longest one read of its head
#: or body may stall before the answer is 408 and a close.  A keep-alive
#: connection idling *between* requests is not timed.
_READ_TIMEOUT_SECONDS = 30.0

_REQUEST_LINE = re.compile(rb"([!-~]+) ([!-~]+) (HTTP/\d+\.\d+)\r?\n")
_REASONS = {status.value: status.phrase for status in HTTPStatus}


class _HTTPError(Exception):
    """Internal: an error with a status code, rendered as a JSON body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServerApp:
    """The server's state: catalog, guarded service, executor.

    Parameters mirror ``repro serve``: the guard summary *kind* and join
    *strategy* configure the single shared :class:`QueryService`;
    *max_workers* bounds concurrent query/ingest execution; *default_limit*
    caps answers per query unless the request asks for fewer;
    *max_body_bytes* is the request-size ceiling behind the 413 response
    (deployments ingesting big N-Triples batches raise it, public-facing
    ones lower it).  With a *cluster*
    (:class:`~repro.cluster.coordinator.ClusterCoordinator`) attached, its
    one service answers — guarded and compiled here, evaluated on a worker —
    and ingest, registration and drops route through it: same answers.
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        kind: str = "strong",
        strategy: str = "hash",
        max_workers: int = 8,
        default_limit: Optional[int] = 1000,
        quiet: bool = True,
        max_body_bytes: int = _MAX_BODY_BYTES,
        cluster=None,
    ):
        self.catalog = catalog
        self.service = (
            QueryService(catalog, kind=kind, strategy=strategy)
            if cluster is None
            else cluster.service
        )
        self.executor = QueryExecutor(self.service, max_workers=max_workers)
        self.default_limit = default_limit
        self.quiet = quiet
        if max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")
        self.max_body_bytes = max_body_bytes
        self.cluster = cluster
        #: register / add_triples / drop: through the cluster when there is one
        self._writer = catalog if cluster is None else cluster
        self.started_at = monotonic()
        self._http_requests = telemetry.counter("http.requests")
        self._http_request_seconds = telemetry.histogram("http.request.seconds")
        #: In-flight request accounting behind :meth:`drain`: a graceful
        #: shutdown lets started requests finish before anything closes.
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # ------------------------------------------------------------------
    # in-flight tracking (graceful drain)
    # ------------------------------------------------------------------
    def begin_request(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def end_request(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            if self._inflight <= 0:
                self._inflight_cv.notify_all()

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Wait until no request is mid-dispatch; ``False`` on timeout.

        Called between ``server_close()`` (stop accepting) and
        :meth:`close` (stop executing) — the SIGTERM drain of ``repro
        serve``: every request already past the socket finishes and
        responds before the executor, cluster and catalog go away.
        """
        with self._inflight_cv:
            return self._inflight_cv.wait_for(lambda: self._inflight <= 0, timeout)

    # ------------------------------------------------------------------
    # route handlers (return (status, payload) pairs)
    # ------------------------------------------------------------------
    def healthz(self) -> Tuple[int, Dict]:
        payload = {
            "status": "ok",
            "graphs": self.catalog.names(),
            "persistent": self.catalog.persistent,
            "uptime_seconds": monotonic() - self.started_at,
            "version": repro.__version__,
            "workers": self.executor.max_workers,
        }
        if self.cluster is not None:
            status = self.cluster.status()
            payload["cluster"] = {
                "worker_count": status["worker_count"],
                "workers_alive": sum(
                    1 for worker in status["workers"] if worker["alive"]
                ),
                "workers": [
                    {
                        "index": worker["index"],
                        "alive": worker["alive"],
                        "last_heartbeat_age_seconds": worker.get(
                            "last_heartbeat_age_seconds"
                        ),
                    }
                    for worker in status["workers"]
                ],
            }
        return 200, payload

    def metrics(self) -> Tuple[int, str]:
        """Prometheus text exposition of the process-wide registry."""
        return 200, telemetry.REGISTRY.render_prometheus()

    def debug_slow(self) -> Tuple[int, Dict]:
        """The slow-query ring buffer as structured JSON."""
        return 200, telemetry.SLOW_LOG.as_dict()

    def cluster_status(self) -> Tuple[int, Dict]:
        if self.cluster is None:
            raise _HTTPError(404, "this server runs in-process (no cluster)")
        return 200, self.cluster.status()

    def list_graphs(self) -> Tuple[int, Dict]:
        graphs = []
        for name in self.catalog.names():
            try:
                entry = self.catalog.entry(name)
            except UnknownGraphError:
                continue  # dropped between the listing and the lookup
            with entry.rwlock.read_locked():
                if entry.closed:
                    continue
                graphs.append(
                    {
                        "name": name,
                        "version": entry.version,
                        "store": entry.store.statistics().as_dict(),
                    }
                )
        return 200, {"graphs": graphs}

    def register_graph(self, body: Dict) -> Tuple[int, Dict]:
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise _HTTPError(400, "register needs a non-empty string 'name'")
        if "/" in name:
            raise _HTTPError(
                400, "graph names must not contain '/' (they form the URL path)"
            )
        triples_text = body.get("triples", "")
        if not isinstance(triples_text, str):
            raise _HTTPError(400, "'triples' must be an N-Triples string")

        graph = parse_ntriples(triples_text, name=name) if triples_text else RDFGraph(name=name)
        # with a cluster: registers in the shared catalog AND ships the graph
        # to every worker before the 201 goes out
        entry = self._writer.register(name, graph=graph)
        return 201, {"name": name, "version": entry.version, "triples": len(graph)}

    def drop_graph(self, name: str) -> Tuple[int, Dict]:
        self._writer.drop(name)
        return 200, {"dropped": name}

    def graph_statistics(self, name: str) -> Tuple[int, Dict]:
        entry = self.catalog.entry(name)
        with entry.rwlock.read_locked():
            if entry.closed:
                raise UnknownGraphError(f"graph {name!r} was dropped")
            return 200, {
                "name": name,
                "version": entry.version,
                "store": entry.store.statistics().as_dict(),
                "cardinality": entry.statistics_index().as_dict(),
                "build_counters": dict(entry.build_counters),
                # rows logged since the last checkpoint: what a reopen
                # would replay (null for an in-memory catalog)
                "log_tail_rows": self.catalog.log_tail_rows(name),
                # G∞ maintenance costs (null until a saturated query of
                # this process built the saturated store)
                "saturation": entry.saturation_metrics(),
                # the summary maintainer's sizes, weak and strong alike,
                # under its published key (null until it is primed)
                "strong_maintainer": entry.maintainer_metrics(),
            }

    def graph_summary(self, name: str, kind: str, query_string: Dict) -> Tuple[int, object]:
        entry = self.catalog.entry(name)
        with entry.rwlock.read_locked():
            if entry.closed:
                raise UnknownGraphError(f"graph {name!r} was dropped")
            summary = entry.summary(kind)
            if (query_string.get("format") or [""])[0] == "ntriples":
                return 200, serialize_ntriples(summary.graph)
            return 200, {
                "name": name,
                "kind": summary.kind,
                "version": entry.version,
                "statistics": summary.statistics().as_dict(),
            }

    def query_graph(self, name: str, body: Dict) -> Tuple[int, Dict]:
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise _HTTPError(400, "query needs a non-empty string 'query'")
        query = parse_query(text, name=body.get("name", "http"))
        limit = body.get("limit", self.default_limit)
        # bool is an int subclass: "limit": true must be a 400, not limit=1
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or not 0 < limit <= sys.maxsize
        ):
            raise _HTTPError(400, "'limit' must be a positive integer or null")
        flags = [body.get(key, False) for key in ("saturated", "explain", "trace")]
        # "saturated": "false" is truthy: anything but a JSON boolean is a 400
        if not all(isinstance(flag, bool) for flag in flags):
            raise _HTTPError(400, "'saturated', 'explain' and 'trace' must be true or false")
        saturated, explain, trace = flags
        if query.is_boolean() and limit is None:
            limit = 1
        answer = self.executor.answer(name, query, limit, saturated, explain, trace)
        return 200, self._render_answer(answer)

    def ingest_triples(self, name: str, body: Dict) -> Tuple[int, Dict]:
        text = body.get("triples")
        if not isinstance(text, str):
            raise _HTTPError(400, "ingest needs an N-Triples string 'triples'")

        inserted = self._writer.add_triples(name, parse_ntriples(text, name=name))
        version = self.catalog.entry(name).version
        return 200, {"name": name, "inserted": inserted, "version": version}

    # ------------------------------------------------------------------
    def _render_answer(self, answer: QueryAnswer) -> Dict:
        payload = {
            "graph": answer.graph_name,
            "query": answer.query.name or None,
            "head": [variable.name for variable in answer.query.head],
            "answers": answer.answers,
            "answer_count": len(answer.answers),
            "boolean": answer.query.is_boolean(),
            "pruned": answer.pruned,
            "prunable": answer.prunable,
            "kind": answer.kind,
            "strategy": answer.strategy,
            "guard_seconds": answer.guard_seconds,
            "evaluation_seconds": answer.evaluation_seconds,
        }
        if answer.trace is not None:
            payload["trace"] = answer.trace.as_dict()
        if answer.query_trace is not None:
            payload["query_trace"] = answer.query_trace.as_dict()
        if answer.saturation is not None:
            payload["saturation"] = answer.saturation
        if answer.cluster is not None:
            payload["cluster"] = answer.cluster
        return payload

    # ------------------------------------------------------------------
    def dispatch(self, method: str, path: str, body: Optional[Dict]) -> Tuple[int, object]:
        """Route one request; returns ``(status, payload)``.

        *payload* is a JSON-serializable object, or a plain string for
        text responses (the N-Triples summary rendering).
        """
        status, payload = self.route(method, path, body)
        if isinstance(payload, dict) and isinstance(payload.get("answers"), AnswerRows):
            payload["answers"] = list(map(list, _cells(payload["answers"])))
        return status, payload

    def route(self, method: str, path: str, body: Optional[Dict]) -> Tuple[int, object]:
        """:meth:`dispatch` with an answer's rows left ids, for the socket."""
        parsed = urlparse(path)
        route = parsed.path.rstrip("/") or "/"
        query_string = parse_qs(parsed.query)

        if route == "/healthz" and method == "GET":
            return self.healthz()
        if route == "/metrics" and method == "GET":
            return self.metrics()
        if route == "/debug/slow" and method == "GET":
            return self.debug_slow()
        if route == "/cluster" and method == "GET":
            return self.cluster_status()
        if route == "/graphs" and method == "GET":
            return self.list_graphs()
        # heavy routes run inside an executor slot (queries take theirs in
        # query_graph): N uploads never become N graph-sized parses at once
        bounded = self.executor.run
        if route == "/graphs" and method == "POST":
            return bounded(self.register_graph, body or {})

        match = _GRAPH_ROUTE.match(route)
        if match is None:
            raise _HTTPError(404, f"no such route: {method} {route}")
        # graph names travel percent-encoded in the path (clients encode
        # spaces etc.); names containing '/' are rejected at registration
        name = unquote(match.group("name"))
        rest = match.group("rest") or ""

        if rest == "" and method == "DELETE":
            return self.drop_graph(name)
        if rest == "/statistics" and method == "GET":
            return bounded(self.graph_statistics, name)
        if rest.startswith("/summary/") and method == "GET":
            kind = unquote(rest[len("/summary/") :])
            return bounded(self.graph_summary, name, kind, query_string)
        if rest == "/query" and method == "POST":
            return self.query_graph(name, body or {})
        if rest == "/triples" and method == "POST":
            return bounded(self.ingest_triples, name, body or {})
        raise _HTTPError(404, f"no such route: {method} {route}")

    def close(self) -> None:
        """Shut down the executor and an attached cluster (the app adopts the
        cluster it was handed; the catalog stays owned by the caller)."""
        self.executor.shutdown()
        if self.cluster is not None:
            self.cluster.close()


class _Handler(socketserver.StreamRequestHandler):
    """One connection's HTTP/1.1 loop, bound to one :class:`ServerApp` (see
    make_server): each request is read, answered and written on this thread."""

    app: ServerApp  # injected by make_server
    #: TCP_NODELAY on every accepted connection: responses are complete
    #: messages, never worth holding back for coalescing
    disable_nagle_algorithm = True

    def handle(self) -> None:
        self.close_connection = False
        app = self.app
        try:
            # a connection may idle between requests for as long as its client
            # likes: peek() waits for the next first byte (b"" at EOF) untimed
            while not self.close_connection and self.rfile.peek(1):
                self.requestline = ""  # logged as such when the line is refused
                app.begin_request()
                app._http_requests.inc()  # (before its response can be read)
                start = perf_counter()
                try:
                    self._respond(*self._answer())
                finally:
                    app._http_request_seconds.observe(perf_counter() - start)
                    app.end_request()
        except ConnectionError:
            pass  # the client went away under a read or a write

    def _closing(self, status: int, message: str) -> _HTTPError:
        """An error after which the bytes on the wire cannot be trusted to
        start a request: its response carries ``Connection: close``."""
        self.close_connection = True
        return _HTTPError(status, message)

    def _read_line(self, too_long: int) -> bytes:
        line = self.rfile.readline(_MAX_LINE_BYTES + 1)
        if len(line) > _MAX_LINE_BYTES:
            raise self._closing(too_long, f"line longer than {_MAX_LINE_BYTES} bytes")
        return line

    def _read_head(self) -> None:
        """Parse request line and headers into ``method``, ``path`` and
        ``headers`` (names lower-cased, a repeated field comma-joined)."""
        match = _REQUEST_LINE.fullmatch(self._read_line(414))
        if match is None:
            raise self._closing(400, "malformed request line")
        self.method, self.path, version = (part.decode("latin-1") for part in match.groups())
        self.requestline = f"{self.method} {self.path} {version}"
        if not version.startswith("HTTP/1."):
            raise self._closing(505, f"{version} is not spoken here")
        if self.method not in ("GET", "POST", "DELETE"):
            raise self._closing(501, f"unsupported method {self.method!r}")
        self.headers = headers = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._read_line(431)
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name or name != name.strip():
                raise self._closing(400, f"malformed header line {line!r}")
            name, value = name.lower(), value.strip()
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        else:
            raise self._closing(431, f"more than {_MAX_HEADERS} header lines")
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive"
        )

    def _read_body(self) -> Optional[Dict]:
        """The JSON body of a POST; what any other method sends is read and
        dropped — left unread, it would be parsed as the next request."""
        if "transfer-encoding" in self.headers:
            # we only frame bodies by Content-Length; leaving chunked bytes
            # unread would desynchronize the connection (request smuggling
            # behind a proxy), so refuse and close
            raise self._closing(501, "chunked request bodies are not supported")
        declared = self.headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit() and len(declared) < 19):
            raise self._closing(400, "malformed Content-Length header")
        length = int(declared)
        if length > self.app.max_body_bytes:
            raise self._closing(413, f"request body exceeds {self.app.max_body_bytes} bytes")
        if not length:
            return None
        if self.headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(length)
        if len(raw) < length:
            raise self._closing(400, "the request body ended early")
        if self.method != "POST":
            return None
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HTTPError(400, f"request body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return body

    def _respond(self, status: int, payload: object) -> None:
        if isinstance(payload, str):
            body, data = [], payload.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            body, data = _json_body(payload), b""  # ASCII: one byte per character
            content_type = "application/json"
        # One write per response, head and body encoded as one buffer.  Two
        # segments would make the second wait, on a keep-alive connection,
        # for the client's delayed ACK of the first (40 ms on Linux) — twenty
        # times the work of a guarded query.
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
            "Server: repro-serve",
            f"Date: {strftime('%a, %d %b %Y %H:%M:%S GMT', gmtime())}",
            f"Content-Type: {content_type}",
            f"Content-Length: {sum(map(len, body)) + len(data)}",
        ]
        if self.close_connection:
            head.append("Connection: close")
        if not self.app.quiet:
            sys.stderr.write(
                f"{self.client_address[0]} - - [{strftime('%d/%b/%Y %H:%M:%S')}] "
                f'"{self.requestline}" {status} -\n'
            )
        response = "".join(["\r\n".join(head), "\r\n\r\n", *body])
        del body  # (the pieces go before the bytes are made: two copies at most)
        self.wfile.write(response.encode("utf-8") + data)

    def _answer(self) -> Tuple[int, object]:
        """Read one request and dispatch it: the status and payload of its
        one response, whatever went wrong on the way."""
        try:
            self.connection.settimeout(_READ_TIMEOUT_SECONDS)
            try:
                self._read_head()
                body = self._read_body()
            except TimeoutError:
                raise self._closing(408, "the request stalled")
            finally:
                self.connection.settimeout(None)
            return self.app.route(self.method, self.path, body)
        except _HTTPError as error:
            return error.status, {"error": str(error)}
        except UnknownGraphError as error:
            return 404, {"error": str(error)}
        except DuplicateGraphError as error:
            return 409, {"error": str(error)}
        except PersistenceError as error:
            # a durability failure is the server's fault, never the client's
            return 500, {"error": f"persistence failure: {error}"}
        except ClusterError as error:
            # the worker pool failed past its retry budget: the server is
            # degraded, not the request malformed — 503 invites a retry
            return 503, {"error": f"cluster failure: {error}"}
        except ReproError as error:
            # malformed queries, terms and ingest bodies, unknown summary kinds
            return 400, {"error": str(error)}
        except ConnectionError:
            raise  # nobody is left to answer: handle() ends the connection
        except Exception as error:  # noqa: BLE001 - last-resort 500
            return 500, {"error": f"internal error: {error}"}


def _cells(
    answers: AnswerRows, render: Optional[Callable[[str], str]] = None
) -> Iterator[Tuple[str, ...]]:
    """The rows in term order, each the tuple of its cells' N-Triples texts
    — the dictionary's own strings, or as *render* rewrites them — regrouped
    at C speed."""
    rows, texts = answers.dictionary.sort_rows(answers.rows), answers.dictionary.texts
    if not answers.width:  # a boolean answer: () when anything matched
        return iter(rows)
    cells = map(texts.__getitem__, chain.from_iterable(rows))
    return zip(*[map(render, cells) if render else cells] * answers.width)


def _json_body(payload: Dict) -> List[str]:
    """``json.dumps(payload, sort_keys=True)`` as pieces of text, byte for
    byte, the answers written from their ids with the C quoting it uses."""
    answers = payload.get("answers")
    if not isinstance(answers, AnswerRows):
        return [json.dumps(payload, sort_keys=True)]
    rows = _cells(answers, encode_basestring_ascii)
    rows = ", ".join(["[" + ", ".join(row) + "]" for row in rows])
    # only the integer "answer_count" sorts before "answers": the first match is the key
    text = json.dumps({**payload, "answers": []}, sort_keys=True)
    before, _, after = text.partition('"answers": []')
    return [before, '"answers": [', rows, "]", after]


class _Server(socketserver.ThreadingMixIn, socketserver.TCPServer):
    allow_reuse_address = True
    daemon_threads = True
    #: listen backlog; the stdlib's 5 drops SYNs (a 1 s client retransmit)
    #: as soon as a few dozen clients connect at once
    request_queue_size = 128


def make_server(app: ServerApp, host: str = "127.0.0.1", port: int = 0) -> _Server:
    """A threading TCP server speaking HTTP for *app* (``port=0`` → ephemeral).

    The caller owns the server: run ``serve_forever()`` (typically on a
    thread), and ``shutdown()`` + ``server_close()`` when done.
    """
    handler = type("BoundHandler", (_Handler,), {"app": app})
    return _Server((host, port), handler)


def start_background(app: ServerApp, host: str = "127.0.0.1", port: int = 0):
    """Start a server on a daemon thread; returns ``(server, thread)``.

    Convenience for tests and benchmarks: the actual bound port is
    ``server.server_address[1]``.
    """
    server = make_server(app, host, port)
    # a tight poll interval keeps shutdown() snappy (tests/benchmarks start
    # and stop many servers; the default 0.5s poll dominates otherwise)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return server, thread
