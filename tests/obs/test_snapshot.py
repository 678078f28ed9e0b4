"""The registry snapshot is the one export of the metrics.

``MetricsRegistry.snapshot()`` is what every reader renders from (the
examples, the benches, ``TransformService.stats`` for process workers
via :func:`merge_snapshots`), so its keys, summaries and JSON round
trip are pinned here.
"""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import merge_snapshots


def populated_registry():
    registry = MetricsRegistry()
    registry.counter("transform.fallback", reason="unsupported-construct",
                     phase="compile").inc(3)
    registry.counter("transform.rewrite_attempts").inc(5)
    histogram = registry.histogram("compile.seconds", stage="xquery-gen")
    for value in (0.01, 0.02, 0.03, 0.5):
        histogram.record(value)
    return registry


class TestSnapshot:
    def test_counter_keys_carry_sorted_labels(self):
        counters = populated_registry().snapshot()["counters"]
        assert counters == {
            "transform.fallback{phase=compile,reason=unsupported-construct}":
                3,
            "transform.rewrite_attempts": 5,
        }

    def test_histogram_summary_fields(self):
        summary = populated_registry().snapshot()["histograms"][
            "compile.seconds{stage=xquery-gen}"]
        assert set(summary) == {"count", "sum", "min", "max", "p50", "p95"}
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(0.56)
        assert summary["min"] == 0.01
        assert summary["max"] == 0.5
        assert summary["p50"] == 0.02
        assert summary["p95"] == 0.5

    def test_gauges_section_only_once_a_gauge_exists(self):
        registry = populated_registry()
        assert "gauges" not in registry.snapshot()
        registry.gauge("serve.queue.depth").set(3)
        registry.gauge("serve.queue.saturation").set(0.25)
        assert registry.snapshot()["gauges"] == {
            "serve.queue.depth": 3.0,
            "serve.queue.saturation": 0.25,
        }

    def test_empty_registry(self):
        assert MetricsRegistry().snapshot() == {"counters": {},
                                                "histograms": {}}

    def test_unrecorded_histogram_has_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("never.recorded")
        assert registry.snapshot()["histograms"]["never.recorded"] == {
            "count": 0, "sum": 0.0, "min": None, "max": None,
            "p50": None, "p95": None,
        }

    def test_capped_histogram_summary_stays_consistent(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("capped")
        histogram.max_samples = 64
        for value in range(1000):
            histogram.record(float(value))
        summary = registry.snapshot()["histograms"]["capped"]
        # count and sum stay exact; the order statistics come from the
        # retained samples and so stay inside the recorded range
        assert summary["count"] == 1000
        assert summary["sum"] == float(sum(range(1000)))
        assert 0.0 <= summary["min"] <= summary["p50"] <= summary["p95"] \
            <= summary["max"] <= 999.0

    def test_snapshot_is_detached_from_the_registry(self):
        registry = populated_registry()
        before = registry.snapshot()
        registry.counter("transform.rewrite_attempts").inc()
        registry.histogram("compile.seconds", stage="xquery-gen").record(9.0)
        assert before["counters"]["transform.rewrite_attempts"] == 5
        assert before["histograms"][
            "compile.seconds{stage=xquery-gen}"]["count"] == 4

    @pytest.mark.parametrize("value", [
        "plain",
        'say "hi"',
        "back\\slash",
        "line\nbreak",
        "a=b,c}",
        "café ☃",
    ], ids=["plain", "quote", "backslash", "newline", "separators",
            "non-ascii"])
    def test_label_values_survive_a_json_round_trip(self, value):
        registry = MetricsRegistry()
        registry.counter("odd", why=value).inc()
        registry.histogram("odd.seconds", why=value).record(0.5)
        registry.gauge("odd.level", why=value).set(2)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        key = "odd{why=%s}" % value
        assert snapshot["counters"] == {key: 1}
        assert snapshot["histograms"]["odd.seconds{why=%s}" % value][
            "count"] == 1
        assert snapshot["gauges"] == {"odd.level{why=%s}" % value: 2.0}


class TestMergeSnapshots:
    def test_nothing_merges_to_empty(self):
        assert merge_snapshots([]) == {"counters": {}, "histograms": {}}

    def test_counters_sum_per_key(self):
        first, second = populated_registry(), MetricsRegistry()
        second.counter("transform.rewrite_attempts").inc(2)
        second.counter("serve.errors").inc()
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counters"] == {
            "transform.fallback{phase=compile,reason=unsupported-construct}":
                3,
            "transform.rewrite_attempts": 7,
            "serve.errors": 1,
        }

    def test_gauges_sum_and_stay_absent_when_none(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.gauge("serve.queue.depth").set(2)
        second.gauge("serve.queue.depth").set(3)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["gauges"] == {"serve.queue.depth": 5.0}
        assert "gauges" not in merge_snapshots(
            [populated_registry().snapshot()])

    def test_histograms_add_counts_and_take_the_extremes(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        for value in (0.2, 0.4):
            first.histogram("lat").record(value)
        for value in (0.1, 0.3, 0.9):
            second.histogram("lat").record(value)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        summary = merged["histograms"]["lat"]
        assert summary["count"] == 5
        assert summary["sum"] == pytest.approx(1.9)
        assert summary["min"] == 0.1
        assert summary["max"] == 0.9

    def test_percentiles_are_dropped(self):
        merged = merge_snapshots([populated_registry().snapshot()] * 2)
        summary = merged["histograms"]["compile.seconds{stage=xquery-gen}"]
        assert set(summary) == {"count", "sum", "min", "max"}
        assert summary["count"] == 8

    def test_an_unrecorded_histogram_leaves_the_extremes_alone(self):
        empty, recorded = MetricsRegistry(), MetricsRegistry()
        empty.histogram("lat")
        recorded.histogram("lat").record(0.25)
        merged = merge_snapshots([empty.snapshot(), recorded.snapshot()])
        assert merged["histograms"]["lat"] == {
            "count": 1, "sum": 0.25, "min": 0.25, "max": 0.25,
        }
        only_empty = merge_snapshots([empty.snapshot()])
        assert only_empty["histograms"]["lat"] == {
            "count": 0, "sum": 0.0, "min": None, "max": None,
        }

    def test_missing_sections_are_tolerated(self):
        merged = merge_snapshots([
            {},
            {"counters": {"c": 1}},
            {"histograms": {"h": {"count": 2, "sum": 1.0}}},
            {"counters": None, "gauges": {"g": 1.5}},
        ])
        assert merged == {
            "counters": {"c": 1},
            "histograms": {"h": {"count": 2, "sum": 1.0,
                                 "min": None, "max": None}},
            "gauges": {"g": 1.5},
        }
