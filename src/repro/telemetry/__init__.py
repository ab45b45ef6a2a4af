"""The end-to-end telemetry plane.

Three pieces, one import surface:

* a process-wide :class:`MetricsRegistry` of counters, gauges and
  fixed-bucket latency histograms every serving layer registers into
  (:mod:`repro.telemetry.registry`);
* per-query :class:`QueryTrace` span trees whose trace id crosses the
  coordinator→worker pipe (:mod:`repro.telemetry.tracing`);
* a ring-buffered structured :class:`SlowQueryLog`
  (:mod:`repro.telemetry.slowlog`), exposed at ``GET /debug/slow`` and
  dumped on shutdown.

The module-level accessors — :func:`counter`, :func:`gauge`,
:func:`histogram` — hand out the default registry's instruments; the plane
has no off switch, and each count is kept once, in that registry.
"""

from repro.telemetry.registry import (
    BYTE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from repro.telemetry.slowlog import (
    DEFAULT_CAPACITY,
    DEFAULT_THRESHOLD_SECONDS,
    SlowQueryLog,
)
from repro.telemetry.tracing import QueryTrace, Span, maybe_span, new_trace_id

#: The process-wide slow-query log the service layer records into.
SLOW_LOG = SlowQueryLog()

__all__ = [
    "BYTE_BUCKETS",
    "DEFAULT_CAPACITY",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_THRESHOLD_SECONDS",
    "REGISTRY",
    "SLOW_LOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryTrace",
    "SlowQueryLog",
    "Span",
    "counter",
    "gauge",
    "histogram",
    "maybe_span",
    "new_trace_id",
]
