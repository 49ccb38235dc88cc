"""Unit tests for the telemetry substrate (:mod:`repro.obs.metrics`)."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    create_registry,
)


class TestHistogram:
    def test_buckets_are_inclusive_upper_bounds(self):
        histogram = Histogram(buckets=(1, 2, 4))
        for value in (1, 2, 3, 4, 5):
            histogram.observe(value)
        # 1 -> [<=1], 2 -> [<=2], 3 and 4 -> [<=4], 5 -> overflow.
        assert histogram.counts == [1, 1, 2, 1]
        assert histogram.count == 5
        assert histogram.total == 15

    def test_snapshot_integral_total_serialises_as_int(self):
        histogram = Histogram(buckets=(10,))
        histogram.observe(3.0)
        snap = histogram.snapshot()
        assert snap["total"] == 3
        assert isinstance(snap["total"], int)
        assert snap["buckets"] == [10]
        assert snap["counts"] == [1, 0]

    def test_default_buckets_cover_batch_sizes(self):
        assert DEFAULT_BUCKETS[0] == 1
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.count("a.b")
        registry.count("a.b", 3)
        assert registry.snapshot()["metrics"]["a.b"] == 4

    def test_gauge_overwrites_and_gauge_max_keeps_peak(self):
        registry = MetricsRegistry()
        registry.gauge("depth", 5)
        registry.gauge("depth", 2)
        registry.gauge_max("peak", 5)
        registry.gauge_max("peak", 2)
        metrics = registry.snapshot()["metrics"]
        assert metrics["depth"] == 2
        assert metrics["peak"] == 5

    def test_observe_builds_histogram_in_metrics_section(self):
        registry = MetricsRegistry()
        registry.observe("batch", 3, buckets=(2, 4))
        registry.observe("batch", 10)
        snap = registry.snapshot()["metrics"]["batch"]
        assert snap["count"] == 2
        assert snap["counts"] == [0, 1, 1]  # first call fixed the buckets

    def test_observe_seconds_lands_in_timings_not_metrics(self):
        registry = MetricsRegistry()
        registry.observe_seconds("rpc", 0.25)
        registry.observe_seconds("rpc", 0.75)
        snap = registry.snapshot()
        assert "rpc" not in snap["metrics"]
        assert snap["timings"]["rpc"]["count"] == 2
        assert snap["timings"]["rpc"]["total_seconds"] == pytest.approx(1.0)

    def test_span_paths_nest_with_slash(self):
        registry = MetricsRegistry()
        with registry.span("round"):
            with registry.span("update"):
                pass
            with registry.span("update"):
                pass
        timings = registry.snapshot()["timings"]
        assert timings["round"]["count"] == 1
        assert timings["round/update"]["count"] == 2

    def test_span_stack_unwinds_after_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                raise RuntimeError("boom")
        with registry.span("next"):
            pass
        timings = registry.snapshot()["timings"]
        assert "outer" in timings
        assert "next" in timings  # not "outer/next": the stack unwound

    def test_views_route_seconds_keys_into_timings(self):
        registry = MetricsRegistry()
        registry.add_view(
            "net", lambda: {"messages": 7, "pause_seconds": 0.5}
        )
        snap = registry.snapshot()
        assert snap["metrics"]["net.messages"] == 7
        assert snap["timings"]["net.pause_seconds"] == 0.5

    def test_views_read_live_state_at_snapshot_time(self):
        state = {"messages": 0}
        registry = MetricsRegistry()
        registry.add_view("net", lambda: dict(state))
        state["messages"] = 9
        assert registry.snapshot()["metrics"]["net.messages"] == 9

    def test_snapshot_keys_are_sorted(self):
        registry = MetricsRegistry()
        registry.count("z")
        registry.count("a")
        registry.count("m")
        assert list(registry.snapshot()["metrics"]) == ["a", "m", "z"]

    def test_summary_lines_print_every_metric_and_note_spans(self):
        registry = MetricsRegistry()
        for index in range(20):
            registry.count("metric.{:02d}".format(index))
        with registry.span("work"):
            pass
        lines = registry.summary_lines()
        assert len(lines) == 21  # 20 metrics + span note
        for index, line in enumerate(lines[:20]):
            assert line.split() == ["metric.{:02d}".format(index), "1"]
        assert "more metrics" not in "".join(lines)
        assert "timed spans: work" in lines[-1]

    def test_write_jsonl_ends_with_snapshot_line(self, tmp_path):
        registry, path = create_registry(
            "jsonl:" + str(tmp_path / "trace.jsonl")
        )
        registry.count("hits", 2)
        with registry.span("step", round=1):
            pass
        registry.write_jsonl(path)
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8").read().splitlines()
        ]
        assert lines[0]["event"] == "span"
        assert lines[0]["name"] == "step"
        assert lines[0]["tags"] == {"round": 1}
        assert lines[-1]["event"] == "snapshot"
        assert lines[-1]["metrics"]["hits"] == 2


class TestNullRegistry:
    def test_shared_singleton_is_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert isinstance(NULL_REGISTRY, NullRegistry)

    def test_every_operation_is_a_no_op(self):
        NULL_REGISTRY.count("x")
        NULL_REGISTRY.gauge("x", 1)
        NULL_REGISTRY.gauge_max("x", 1)
        NULL_REGISTRY.observe("x", 1)
        NULL_REGISTRY.observe_seconds("x", 1.0)
        NULL_REGISTRY.add_view("x", dict)
        assert NULL_REGISTRY.snapshot() == {"metrics": {}, "timings": {}}

    def test_span_hands_back_one_shared_context_manager(self):
        first = NULL_REGISTRY.span("a")
        second = NULL_REGISTRY.span("b", tag=1)
        assert first is second
        with first:
            pass


class TestCreateRegistry:
    def test_off_returns_the_null_singleton(self):
        registry, path = create_registry("off")
        assert registry is NULL_REGISTRY
        assert path is None

    def test_summary_returns_live_registry_without_trace(self):
        registry, path = create_registry("summary")
        assert registry.enabled and registry.mode == "summary"
        assert path is None

    def test_jsonl_returns_traced_registry_and_path(self):
        registry, path = create_registry("jsonl:/tmp/t.jsonl")
        assert registry.enabled and registry.mode == "jsonl"
        assert path == "/tmp/t.jsonl"

    @pytest.mark.parametrize("spec", ["jsonl:", "csv", "ON"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            create_registry(spec)
