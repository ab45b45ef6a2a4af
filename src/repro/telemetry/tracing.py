"""Per-query tracing: one tree of timed spans per query, across processes.

A :class:`QueryTrace` owns a *trace id* and a tree of :class:`Span`
objects.  The service layer opens spans around the guard cascade and the
join pipeline; the cluster coordinator opens spans around routing and
decode/union, ships the trace id to each worker inside the existing
``OP_QUERY`` payload, and grafts the span tree each worker sends back
under its own root — so one scatter-gather query yields **one** tree:

.. code-block:: text

    query 1f3a9c2e07b54d11 (0.84 ms)
    └─ cluster.answer
       ├─ route
       ├─ worker-0
       │  └─ query
       │     ├─ guard
       │     └─ evaluate
       ├─ worker-1
       │  └─ query ...
       └─ gather            (decode + union)

Spans serialize to plain dicts (:meth:`Span.as_dict` /
:meth:`Span.from_dict`) so they cross the coordinator/worker pipe with the
rest of the pickled reply — no new protocol opcode.

Tracing is strictly opt-in per query (``answer(trace=True)``, CLI
``--trace``, HTTP ``"trace": true``); an untraced query never touches
this module.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "QueryTrace", "maybe_span", "new_trace_id"]


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return os.urandom(8).hex()


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "seconds", "attributes", "children")

    def __init__(
        self,
        name: str,
        seconds: float = 0.0,
        attributes: Optional[Dict[str, Any]] = None,
        children: Optional[List["Span"]] = None,
    ):
        self.name = name
        self.seconds = seconds
        self.attributes: Dict[str, Any] = attributes if attributes is not None else {}
        self.children: List["Span"] = children if children is not None else []

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"name": self.name, "seconds": self.seconds}
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.as_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            name=str(payload.get("name", "")),
            seconds=float(payload.get("seconds", 0.0)),
            attributes=dict(payload.get("attributes") or {}),
            children=[cls.from_dict(child) for child in payload.get("children") or ()],
        )

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant (or self) named *name*."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return f"Span({self.name!r}, {self.seconds * 1000:.3f}ms, children={len(self.children)})"


class QueryTrace:
    """A trace id plus a span tree under construction.

    The builder keeps a stack of open spans guarded by a lock, so nested
    ``with trace.span(...)`` blocks from one thread build the tree in
    order, and a coordinator thread can still :meth:`graft` a worker's
    finished subtree concurrently with its own open spans.
    """

    __slots__ = ("trace_id", "root", "_stack", "_lock")

    def __init__(self, trace_id: Optional[str] = None, root_name: str = "query"):
        self.trace_id = trace_id or new_trace_id()
        self.root = Span(root_name)
        self._stack: List[Span] = [self.root]
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span under the innermost open span; time its body."""
        node = Span(name, attributes=dict(attributes) if attributes else None)
        with self._lock:
            self._stack[-1].children.append(node)
            self._stack.append(node)
        started = perf_counter()
        try:
            yield node
        finally:
            node.seconds = perf_counter() - started
            with self._lock:
                # pop back to the opener even if an inner span leaked open
                while self._stack and self._stack.pop() is not node:
                    pass
                if not self._stack:
                    self._stack.append(self.root)

    def graft(self, subtree: Span, under: Optional[Span] = None) -> None:
        """Attach a finished span tree (e.g. a worker's) as a child."""
        with self._lock:
            parent = under if under is not None else self._stack[-1]
            parent.children.append(subtree)

    def annotate(self, **attributes: Any) -> None:
        with self._lock:
            self._stack[-1].attributes.update(attributes)

    def finish(self, seconds: Optional[float] = None) -> None:
        """Close the root (total seconds default to the sum of its children)."""
        if seconds is None:
            seconds = sum(child.seconds for child in self.root.children)
        self.root.seconds = seconds

    def as_dict(self) -> Dict[str, Any]:
        payload = self.root.as_dict()
        payload["trace_id"] = self.trace_id
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QueryTrace":
        trace = cls(trace_id=str(payload.get("trace_id") or "") or None)
        trace.root = Span.from_dict(payload)
        trace._stack = [trace.root]
        return trace

    def render(self) -> str:
        """A human-readable tree for CLI ``--trace`` output."""
        lines = [f"trace {self.trace_id} ({self.root.seconds * 1000:.3f} ms)"]

        def _walk(span: Span, prefix: str, is_last: bool) -> None:
            connector = "└─ " if is_last else "├─ "
            attributes = ""
            if span.attributes:
                rendered = ", ".join(
                    f"{key}={value}" for key, value in sorted(span.attributes.items())
                )
                attributes = f"  [{rendered}]"
            lines.append(
                f"{prefix}{connector}{span.name}  {span.seconds * 1000:.3f} ms{attributes}"
            )
            extension = "   " if is_last else "│  "
            for index, child in enumerate(span.children):
                _walk(child, prefix + extension, index == len(span.children) - 1)

        for index, child in enumerate(self.root.children):
            _walk(child, "", index == len(self.root.children) - 1)
        return "\n".join(lines)

    def __repr__(self):
        return f"QueryTrace({self.trace_id!r}, spans={sum(1 for _ in self.root.walk())})"


def maybe_span(query_trace: Optional[QueryTrace], name: str, **attributes: Any):
    """A span of *query_trace* when tracing, an inert context otherwise."""
    if query_trace is None:
        return nullcontext()
    return query_trace.span(name, **attributes)
