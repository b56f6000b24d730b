"""Unit tests for ``repro.obs``: registry, spans, kernel timers, exporters.

The parity claims (telemetry never perturbs experiment results, counters
merge exactly across worker counts) live in ``test_obs_parity.py``; this
file pins the mechanics — instrument bookkeeping, payload merges, the
enabled-guard fast path, exporter round-trips, and the Chrome trace
validator's accept/reject behaviour.
"""

import json

import numpy as np
import pytest

from repro.obs import (
    OBS,
    MetricsRegistry,
    begin_span,
    chrome_trace,
    disable,
    enable,
    end_span,
    instrument_kernels,
    kernel_timers_active,
    prometheus_text,
    read_jsonl,
    registry_to_jsonl,
    span,
    telemetry,
    telemetry_enabled,
    top_allocations,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture(autouse=True)
def _quiet_telemetry():
    """Every test starts and ends with telemetry off and a fresh registry."""
    previous = (OBS.enabled, OBS.registry)
    OBS.enabled = False
    OBS.registry = MetricsRegistry()
    yield
    OBS.enabled, OBS.registry = previous


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("sim.slots", 480)
    registry.inc("netsim.dropped", 13, loss=0.1)
    registry.inc("netsim.dropped", 7, loss=0.2)
    registry.gauge("fabric.workers").set(4)
    hist = registry.histogram("decode.dur_ns", buckets=(10.0, 100.0, 1000.0))
    for value in (5, 50, 500, 5000):
        hist.observe(value)
    registry.record_span("trial", 1_700_000_000_000_000_000, 2_500_000, {"index": 3}, pid=7, tid=1)
    return registry


class TestRegistry:
    def test_counters_are_keyed_by_labels(self):
        registry = populated_registry()
        assert registry.counter_value("netsim.dropped", loss=0.1) == 13
        assert registry.counter_value("netsim.dropped", loss=0.2) == 7
        assert registry.counter_value("netsim.dropped") == 0
        assert registry.counter_totals()["netsim.dropped"] == 20

    def test_payload_round_trip_is_exact(self):
        registry = populated_registry()
        rebuilt = MetricsRegistry.from_payload(registry.to_payload())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_merge_sums_counters_and_histograms(self):
        a = populated_registry()
        b = populated_registry()
        a.merge_payload(b.to_payload())
        assert a.counter_value("sim.slots") == 960
        assert a.counter_value("netsim.dropped", loss=0.1) == 26
        name, _, hist = next(iter(a.histograms()))
        assert name == "decode.dur_ns"
        assert hist.count == 8
        assert hist.counts == [2, 2, 2, 2]
        assert len(a.spans) == 2

    def test_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0))
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge_payload(b.to_payload())

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))


class TestRuntimeAndSpans:
    def test_enabled_guard_defaults_off(self):
        assert not telemetry_enabled()
        assert begin_span("anything") is None
        end_span(None)  # must be a no-op, not an error
        with span("ignored", label="x"):
            pass
        assert OBS.registry.snapshot()["spans"] == ()

    def test_telemetry_scope_restores_prior_state(self):
        outer = enable()
        outer.inc("outer")
        with telemetry() as inner:
            assert telemetry_enabled()
            inner.inc("inner")
            assert OBS.registry is inner
        assert OBS.registry is outer
        assert outer.counter_value("inner") == 0
        disable()
        assert not telemetry_enabled()

    def test_span_records_labels_and_duration(self):
        with telemetry() as registry:
            with span("netsim.phase", label="init", budget=100):
                pass
        (event,) = registry.spans
        assert event.name == "netsim.phase"
        assert dict(event.labels) == {"label": "init", "budget": "100"}
        assert event.dur_ns >= 0
        assert event.ts_ns > 0


class TestKernelTimers:
    def test_instrument_and_restore(self):
        from repro.state import kernels as state_kernels

        original = state_kernels.pairwise_distances
        assert not kernel_timers_active()
        instrumentation = instrument_kernels()
        try:
            assert kernel_timers_active()
            assert state_kernels.pairwise_distances is not original
            # Idempotent: a second call is a no-op handle over the same wrap.
            again = instrument_kernels()
            assert state_kernels.pairwise_distances.__repro_kernel_timer__
            again.restore()
        finally:
            instrumentation.restore()
        assert state_kernels.pairwise_distances is original
        assert not kernel_timers_active()

    def test_wrapped_kernel_counts_calls_and_preserves_output(self):
        from repro.state import kernels as state_kernels

        xy = np.array([[0.0, 0.0], [3.0, 4.0]])
        expected = state_kernels.pairwise_distances(xy)
        with instrument_kernels():
            with telemetry() as registry:
                timed = state_kernels.pairwise_distances(xy)
        np.testing.assert_array_equal(timed, expected)
        assert registry.counter_value("kernel.calls", kernel="pairwise_distances") == 1
        assert registry.counter_value("kernel.time_ns", kernel="pairwise_distances") > 0

    def test_decode_arena_buffer_lookup_stays_unwrapped(self):
        from repro.sinr import channel
        from repro.state import DecodeWorkspace

        buffer, decode = DecodeWorkspace.__dict__["_buffer"], channel._decode_received
        with instrument_kernels() as instrumentation:
            assert DecodeWorkspace.__dict__["_buffer"] is buffer
            assert channel._decode_received is not decode
            assert "_buffer" not in instrumentation.kernel_names
            assert "_decode_received" in instrumentation.kernel_names

    def test_disabled_telemetry_records_nothing_through_wrapper(self):
        from repro.state import kernels as state_kernels

        xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        with instrument_kernels():
            state_kernels.pairwise_distances(xy)
        assert OBS.registry.counter_totals() == {}


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        registry = populated_registry()
        path = write_jsonl(registry, tmp_path / "metrics.jsonl")
        rebuilt = read_jsonl(path)
        assert rebuilt.snapshot() == registry.snapshot()

    def test_jsonl_rejects_unknown_rows(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "mystery"}) + "\n")
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_jsonl_text_is_line_delimited_json(self):
        lines = registry_to_jsonl(populated_registry()).splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[0]["type"] == "meta"
        assert {"counter", "gauge", "histogram", "span"} <= {r["type"] for r in rows[1:]}

    def test_prometheus_text_shape(self):
        text = prometheus_text(populated_registry())
        assert "# TYPE sim_slots counter" in text
        assert 'netsim_dropped{loss="0.1"} 13' in text
        assert "decode_dur_ns_bucket" in text
        assert 'le="+Inf"' in text
        assert "decode_dur_ns_count 4" in text

    def test_chrome_trace_validates_and_round_trips(self, tmp_path):
        registry = populated_registry()
        trace = chrome_trace(registry)
        validate_chrome_trace(trace)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        (event,) = events
        assert event["name"] == "trial"
        assert event["dur"] == pytest.approx(2500.0)  # 2.5 ms in microseconds
        assert event["args"] == {"index": "3"}
        path = write_chrome_trace(registry, tmp_path / "trace.json")
        validate_chrome_trace(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "trace",
        [
            {"traceEvents": "nope"},
            {"traceEvents": [{"ph": "X", "name": "t", "ts": 1.0}]},
            {"traceEvents": [{"ph": "X", "name": "t", "ts": 1.0, "dur": -5, "pid": 1, "tid": 1}]},
            {"traceEvents": [{"ph": "M", "name": "mystery_meta", "args": {}}]},
        ],
    )
    def test_chrome_trace_validator_rejects(self, trace):
        with pytest.raises(ValueError):
            validate_chrome_trace(trace)


class TestProfilingHelper:
    def test_top_allocations_returns_result_and_rows(self):
        result, rows = top_allocations(lambda: [bytearray(4096) for _ in range(8)], top=5)
        assert len(result) == 8
        assert rows
        assert {"kib", "blocks", "location"} <= set(rows[0])
        assert rows[0]["kib"] > 0
