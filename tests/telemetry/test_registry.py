"""The metrics registry: instruments, bucket math, exposition."""

import threading

import pytest

from repro import telemetry
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry import registry as registry_module


class TestCounter:
    def test_basic_increments(self):
        counter = Counter("events")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.int_value == 3

    def test_negative_increment_raises(self):
        counter = Counter("events")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0.0

    def test_concurrent_increments_under_barrier(self):
        """N threads released together must lose no increments."""
        threads = 8
        per_thread = 2000
        counter = Counter("events")
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.int_value == threads * per_thread


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("level")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_callbacks_add_to_value(self):
        gauge = Gauge("depth")
        gauge.set(1)
        sampler = lambda: 41  # noqa: E731
        gauge.add_callback(sampler)
        assert gauge.value == 42
        gauge.remove_callback(sampler)
        assert gauge.value == 1
        # removing twice is harmless
        gauge.remove_callback(sampler)

    def test_dead_callback_is_tolerated(self):
        gauge = Gauge("depth")

        def broken():
            raise RuntimeError("sampler died")

        gauge.add_callback(broken)
        gauge.add_callback(lambda: 7)
        assert gauge.value == 7


class TestHistogram:
    def test_bucket_math(self):
        histogram = Histogram("latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 10.0, 11.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        # bisect_left puts a value equal to a bound into that bound's
        # bucket — the Prometheus le (<=) semantics
        assert snapshot["buckets"] == [(0.1, 2), (1.0, 3), (10.0, 4)]
        assert snapshot["count"] == 5  # the 11.0 lives in the implicit +Inf
        assert snapshot["sum"] == pytest.approx(21.65)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(21.65)

    def test_cumulative_counts_are_monotone(self):
        histogram = Histogram("latency")
        for index in range(200):
            histogram.observe(index / 40.0)
        counts = [count for _bound, count in histogram.snapshot()["buckets"]]
        assert counts == sorted(counts)
        assert counts[-1] <= histogram.count

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, float("inf")))

    def test_concurrent_observations_under_barrier(self):
        threads = 6
        per_thread = 1500
        histogram = Histogram("latency", buckets=(0.5,))
        barrier = threading.Barrier(threads)

        def worker(offset):
            barrier.wait()
            for index in range(per_thread):
                histogram.observe((index + offset) % 2)  # alternates 0 / 1

        pool = [
            threading.Thread(target=worker, args=(offset,)) for offset in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        snapshot = histogram.snapshot()
        assert snapshot["count"] == threads * per_thread
        assert snapshot["buckets"] == [(0.5, threads * per_thread // 2)]


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert len(registry) == 3
        assert registry.names() == ["a.b", "g", "h"]
        assert "a.b" in registry

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.gauge("name")
        with pytest.raises(TypeError):
            registry.histogram("name")

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("query.guard.pruned").inc(3)
        registry.gauge("executor.queue.depth").set(2)
        registry.histogram("join.stage.seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_query_guard_pruned_total counter" in lines
        assert "repro_query_guard_pruned_total 3" in lines
        assert "# TYPE repro_executor_queue_depth gauge" in lines
        assert "repro_executor_queue_depth 2" in lines
        assert "# TYPE repro_join_stage_seconds histogram" in lines
        assert 'repro_join_stage_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_join_stage_seconds_bucket{le="1"} 1' in lines
        assert 'repro_join_stage_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_join_stage_seconds_sum 0.05" in lines
        assert "repro_join_stage_seconds_count 1" in lines
        assert text.endswith("\n")

    def test_accessors_hand_out_the_default_registrys_instruments(self, monkeypatch):
        """Each accessor call returns the registry's one live instrument by
        name: there is no stand-in that records nothing."""
        registry = MetricsRegistry()
        monkeypatch.setattr(registry_module, "REGISTRY", registry)
        telemetry.counter("c").inc(2)
        telemetry.gauge("g").set(1.5)
        telemetry.histogram("h", buckets=(1.0,)).observe(0.5)
        assert telemetry.counter("c") is registry.counter("c")
        assert telemetry.gauge("g") is registry.gauge("g")
        assert telemetry.histogram("h") is registry.histogram("h", buckets=(1.0,))
        assert registry.counter("c").value == 2
        assert registry.gauge("g").value == 1.5
        assert registry.histogram("h", buckets=(1.0,)).count == 1
        assert sorted(registry.names()) == ["c", "g", "h"]

    def test_enabled_stack_registers_query_metrics(self, fig2):
        with GraphCatalog() as catalog:
            catalog.register("fig2", graph=fig2)
            QueryService(catalog)
        for name in ("query.count", "query.guard.seconds", "lock.write_wait.seconds"):
            assert name in telemetry.REGISTRY
