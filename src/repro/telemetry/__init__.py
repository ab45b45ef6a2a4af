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
:func:`histogram` — hand out shared no-op instruments when telemetry is
disabled (:func:`set_enabled` / ``REPRO_TELEMETRY=0``), so the hot paths
stay near-free and the default registry stays empty in disabled mode.
"""

from repro.telemetry.registry import (
    BYTE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    enabled,
    gauge,
    histogram,
    set_enabled,
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
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
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
    "enabled",
    "gauge",
    "histogram",
    "maybe_span",
    "new_trace_id",
    "set_enabled",
]
