"""The process-wide metrics registry: counters, gauges, latency histograms.

Every serving layer registers its instruments here under hierarchical
dotted names (``query.guard.pruned``, ``join.stage.seconds``,
``cluster.ship.bytes``) and the HTTP front end exposes one snapshot of all
of them in the Prometheus text exposition format
(:meth:`MetricsRegistry.render_prometheus`, behind ``GET /metrics``).

Three instrument kinds, all thread-safe and deliberately tiny:

* :class:`Counter` — monotone, float-valued (so it can accumulate seconds
  as well as events).  Each count lives in exactly one registry counter:
  the layer that observes the event increments it, and whoever wants the
  number reads it there (a test reads the delta around its calls).
* :class:`Gauge` — a settable level, plus optional *callbacks* sampled at
  collection time (executor queue depth, cluster log entries unsent).  The
  reported value is the set value plus the sum of the live callbacks.
* :class:`Histogram` — fixed upper-bound buckets with cumulative counts,
  ``sum`` and ``count`` (the Prometheus histogram model).  Bucket math is
  a single ``bisect`` per observation.

The plane has one mode: the module-level accessors (:func:`counter`,
:func:`gauge`, :func:`histogram`) always hand out the registry's instrument.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "BYTE_BUCKETS",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]

#: Upper bucket bounds (seconds) of a latency histogram: 100 µs to 10 s in
#: a 1-2.5-5 progression — query guards live at the bottom, cold summary
#: builds at the top.  ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Upper bucket bounds for byte-sized observations (shipping payloads):
#: 1 KiB to 1 GiB in powers of 4.
BYTE_BUCKETS: Tuple[float, ...] = tuple(1024.0 * 4**exponent for exponent in range(11))


class Counter:
    """A monotone, thread-safe, float-valued counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str = ""):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def int_value(self) -> int:
        """The value as an int (event counters; exact below 2**53)."""
        return int(self.value)

    def __repr__(self):
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A settable level plus optional callbacks sampled at collection time."""

    __slots__ = ("name", "_value", "_lock", "_callbacks")

    def __init__(self, name: str = ""):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()
        self._callbacks: List[Callable[[], float]] = []

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def add_callback(self, callback: Callable[[], float]) -> None:
        """Attach a sampler whose result is added to the reported value."""
        with self._lock:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[[], float]) -> None:
        with self._lock:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    @property
    def value(self) -> float:
        with self._lock:
            total = self._value
            callbacks = list(self._callbacks)
        for callback in callbacks:
            try:
                total += float(callback())
            except Exception:  # noqa: BLE001 - a dead sampler must not break /metrics
                continue
        return total

    def __repr__(self):
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram: cumulative bucket counts, sum and count.

    ``bounds`` are the finite upper bounds in ascending order; an implicit
    ``+Inf`` bucket catches everything beyond the last bound.  One
    observation costs a ``bisect`` and three additions under the lock.
    """

    __slots__ = ("name", "bounds", "_bucket_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str = "", buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly ascending: {bounds}")
        if any(math.isnan(bound) or math.isinf(bound) for bound in bounds):
            raise ValueError("histogram bounds must be finite (the +Inf bucket is implicit)")
        self.name = name
        self.bounds = bounds
        # one slot per finite bound plus the +Inf overflow slot
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, object]:
        """Cumulative ``le`` → count pairs plus sum/count, one consistent read."""
        with self._lock:
            raw = list(self._bucket_counts)
            total = self._count
            observed_sum = self._sum
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, raw):
            running += bucket
            cumulative.append((bound, running))
        return {
            "buckets": cumulative,
            "count": total,
            "sum": observed_sum,
        }

    def __repr__(self):
        return f"Histogram({self.name!r}, count={self.count})"


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def _prometheus_name(name: str) -> str:
    sanitized = _PROM_INVALID.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Name → instrument map with get-or-create semantics.

    ``counter`` / ``gauge`` / ``histogram`` return the existing instrument
    when the name is already registered (and raise on a kind mismatch), so
    call sites can fetch by name without coordinating.  Collection
    (:meth:`render_prometheus`) walks a snapshot of the map; instruments
    update concurrently under their own locks.
    """

    def __init__(self):
        #: name → instrument; guarded by self._lock
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: type, factory):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} is a {type(existing).__name__}, "
                        f"not a {kind.__name__}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, buckets))

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def _snapshot(self) -> List[Tuple[str, object]]:
        with self._lock:
            return sorted(self._metrics.items())

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (``GET /metrics``).

        Dotted names are sanitized to underscores under a ``repro_``
        prefix; counters gain the conventional ``_total`` suffix and
        histograms emit the ``_bucket``/``_sum``/``_count`` triple with
        cumulative ``le`` labels ending at ``+Inf``.
        """
        lines: List[str] = []
        for name, metric in self._snapshot():
            exposition = _prometheus_name(name)
            if isinstance(metric, Histogram):
                snapshot = metric.snapshot()
                lines.append(f"# TYPE {exposition} histogram")
                for bound, count in snapshot["buckets"]:
                    lines.append(
                        f'{exposition}_bucket{{le="{_format_value(bound)}"}} {count}'
                    )
                lines.append(f'{exposition}_bucket{{le="+Inf"}} {snapshot["count"]}')
                lines.append(f"{exposition}_sum {_format_value(snapshot['sum'])}")
                lines.append(f"{exposition}_count {snapshot['count']}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {exposition} gauge")
                lines.append(f"{exposition} {_format_value(metric.value)}")
            else:
                lines.append(f"# TYPE {exposition}_total counter")
                lines.append(f"{exposition}_total {_format_value(metric.value)}")
        return "\n".join(lines) + "\n"


#: The process-wide default registry every layer registers into.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """The default registry's counter *name*."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, buckets)
