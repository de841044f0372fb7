"""Tests for the metrics registry: counters, gauges, histograms."""

import pytest

from repro.observability import (
    HISTOGRAM_SAMPLE_CAP,
    MetricsRegistry,
    format_key,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("phases")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("phases")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_same_name_and_labels_share_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("phases", scheduler="rtsads")
        b = registry.counter("phases", scheduler="rtsads")
        assert a is b

    def test_different_labels_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("phases", scheduler="rtsads")
        b = registry.counter("phases", scheduler="dcols")
        assert a is not b
        a.inc(3)
        assert b.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("queue_depth")
        gauge.set(5)
        gauge.inc(2)
        assert gauge.value == 7.0


class TestHistogram:
    def test_summary_stats(self):
        hist = MetricsRegistry().histogram("quantum")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["total"] == pytest.approx(10.0)
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_quantiles_nearest_rank(self):
        hist = MetricsRegistry().histogram("quantum")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(0.5) == 51.0
        assert hist.quantile(1.0) == 100.0

    def test_quantile_out_of_range_rejected(self):
        hist = MetricsRegistry().histogram("quantum")
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_sample_cap_keeps_exact_aggregates(self):
        hist = MetricsRegistry().histogram("quantum")
        n = HISTOGRAM_SAMPLE_CAP + 500
        for value in range(n):
            hist.observe(float(value))
        # count/total/min/max stay exact past the cap...
        assert hist.count == n
        assert hist.max == float(n - 1)
        # ...while the stored sample stops growing.
        assert len(hist._samples) == HISTOGRAM_SAMPLE_CAP

    def test_empty_summary_is_zeroed(self):
        summary = MetricsRegistry().histogram("quantum").summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p95"] == 0.0


class TestRegistry:
    def test_snapshot_renders_labelled_keys(self):
        registry = MetricsRegistry()
        registry.counter("phases", scheduler="rtsads").inc(7)
        registry.gauge("depth").set(3)
        registry.histogram("quantum", scheduler="rtsads").observe(1.5)
        snap = registry.snapshot()
        assert snap["counters"]["phases{scheduler=rtsads}"] == 7
        assert snap["gauges"]["depth"] == 3.0
        assert snap["histograms"]["quantum{scheduler=rtsads}"]["count"] == 1

    def test_snapshot_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.counter("x", b="2", a="1")
        b = registry.counter("x", a="1", b="2")
        assert a is b
        assert format_key(a.key) == "x{a=1,b=2}"

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("phases")
        counter.inc(9)
        hist = registry.histogram("quantum")
        hist.observe(4.0)
        registry.reset()
        # Handed-out references stay live and read zero.
        assert counter.value == 0
        assert hist.count == 0
        counter.inc()
        assert registry.snapshot()["counters"]["phases"] == 1

    def test_name_label_is_reserved(self):
        # Through the registry methods Python itself rejects the collision
        # with the positional parameter; the key builder backs that up for
        # any direct-dict path.
        from repro.observability.metrics import _key

        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.counter("phases", name="rtsads")
        with pytest.raises(ValueError, match="reserved"):
            _key("phases", {"name": "rtsads"})

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_len_counts_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert len(registry) == 3
