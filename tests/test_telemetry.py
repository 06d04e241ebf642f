"""Telemetry registry semantics, disabled-mode no-ops, and trace round-trips."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.codes.rs import ReedSolomonCode
from repro.fusion.costmodel import SystemProfile
from repro.fusion.framework import ECFusion
from repro.hybrid import ECFusionPlanner
from repro.telemetry import (
    METRICS,
    TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceRecorder,
    default_buckets,
    render_metrics_table,
)
from repro.cluster import ClusterConfig, run_workload
from repro.workloads import FailureEvent, OpType, Request, Trace

GAMMA = 1024.0 * 1024


@pytest.fixture(autouse=True)
def clean_singletons():
    """Every test starts and ends with the global telemetry switched off."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def small_workload(num_requests=12, failures=2):
    scheme = ECFusionPlanner(4, 2, GAMMA)
    requests = [
        Request(
            time=0.1 * i,
            op=OpType.READ if i % 3 else OpType.WRITE,
            stripe=i % 4,
            block=i % 4,
        )
        for i in range(num_requests)
    ]
    fails = [FailureEvent(time=0.0, stripe=i % 4, block=1) for i in range(failures)]
    config = ClusterConfig(num_nodes=18, profile=SystemProfile(gamma=GAMMA))
    return scheme, Trace(name="t", requests=requests), fails, config


class TestRegistry:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("a.calls", unit="calls").inc()
        reg.counter("a.calls").inc(2.5)
        assert reg.counter("a.calls").value == 3.5
        assert reg.counter("a.calls").unit == "calls"
        assert len(reg) == 1 and "a.calls" in reg

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_tracks_high_water(self):
        g = Gauge("depth")
        g.set(5)
        g.set(2)
        assert g.value == 2
        assert g.high_water == 5

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_reset_and_snapshot(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("n").inc(4)
        snap = reg.snapshot()
        assert snap["n"] == {"type": "counter", "unit": "", "value": 4.0}
        reg.reset()
        assert len(reg) == 0 and reg.get("n") is None


class TestHistogram:
    def test_bucket_bounds_are_sorted_half_decades(self):
        bounds = default_buckets()
        assert bounds == sorted(bounds)
        assert 1.0 in bounds and 1e-9 in bounds

    def test_percentile_estimates_bracket_true_quantiles(self):
        h = Histogram("lat", unit="s")
        samples = [0.001 * (i + 1) for i in range(100)]  # 1ms .. 100ms
        for v in samples:
            h.observe(v)
        assert h.count == 100
        assert h.mean == pytest.approx(sum(samples) / 100)
        assert h.min == pytest.approx(0.001) and h.max == pytest.approx(0.1)
        # bucket estimate is biased high by at most one sqrt(10) bucket
        for q in (0.5, 0.95, 0.99):
            true = samples[int(q * 99)]
            est = h.percentile(q)
            assert true <= est <= true * 3.17

    def test_percentile_capped_at_observed_max(self):
        h = Histogram("lat")
        h.observe(0.0042)
        assert h.percentile(0.99) == pytest.approx(0.0042)

    def test_empty_and_invalid(self):
        h = Histogram("lat")
        assert h.percentile(0.5) == 0.0
        assert h.mean == 0.0
        with pytest.raises(ValueError):
            h.observe(1) or h.percentile(1.5)

    def test_overflow_bucket(self):
        h = Histogram("big", buckets=[1.0, 10.0])
        for v in (0.5, 5.0, 1e6):
            h.observe(v)
        assert h.counts[-1] == 1  # 1e6 landed past every bound
        assert h.percentile(1.0) == 1e6


class TestDisabledModeIsNoOp:
    def test_codec_records_nothing_while_disabled(self):
        rs = ReedSolomonCode(k=4, r=2)
        rs.encode(np.arange(4 * 8, dtype=np.uint8).reshape(4, 8))
        assert len(METRICS) == 0

    def test_codec_records_when_enabled(self):
        telemetry.enable()
        rs = ReedSolomonCode(k=4, r=2)
        rs.encode(np.arange(4 * 8, dtype=np.uint8).reshape(4, 8))
        assert METRICS.counter("codes.rs.encode_calls").value == 1
        assert METRICS.counter("codes.rs.gf_mul_bytes").value > 0

    def test_simulation_records_nothing_while_disabled(self):
        run_workload(*small_workload())
        assert len(METRICS) == 0
        assert len(TRACER) == 0

    def test_fusion_store_counters(self):
        telemetry.enable()
        fusion = ECFusion(k=4, r=2)
        data = np.arange(4 * 16, dtype=np.uint8).reshape(4, 16)
        fusion.write("s0", data)
        fusion.read("s0", 1)
        fusion.recover("s0", 1)
        assert METRICS.counter("fusion.store.writes").value == 1
        assert METRICS.counter("fusion.store.reads").value == 1
        assert METRICS.counter("fusion.store.recoveries").value == 1
        assert METRICS.counter("fusion.store.repair_bytes_read").value > 0


class TestSimulationMetrics:
    def test_run_workload_populates_every_layer(self):
        telemetry.enable()
        run_workload(*small_workload())
        names = METRICS.names()
        assert any(n.startswith("sim.queue_wait.") for n in names)
        assert any(n.startswith("cluster.net.bytes.") for n in names)
        assert METRICS.counter("cluster.requests.read").value > 0
        assert METRICS.counter("cluster.recovery.jobs").value > 0
        assert METRICS.gauge("sim.heap_depth").high_water > 0
        assert METRICS.histogram("cluster.latency.read").count > 0

    def test_render_table_nonempty_after_run(self):
        telemetry.enable()
        run_workload(*small_workload())
        table = render_metrics_table()
        assert "cluster.latency.read" in table
        assert "p50" in table

    def test_render_table_empty_registry(self):
        assert "no metrics recorded" in render_metrics_table()


class TestTraceRoundTrip:
    def test_recorder_capacity_drops(self):
        rec = TraceRecorder(enabled=True, capacity=2)
        for i in range(5):
            rec.emit("e", ts=float(i))
        assert len(rec) == 2 and rec.dropped == 3

    def test_to_dict_stringifies_non_scalars(self):
        rec = TraceRecorder(enabled=True)
        rec.emit("e", ts=1.0, stripe=(1, 2))
        assert rec.events[0].to_dict()["stripe"] == "(1, 2)"

    def test_simulation_trace_schema(self, tmp_path):
        telemetry.enable(tracing=True)
        run_workload(*small_workload())
        path = tmp_path / "trace.jsonl"
        count = TRACER.dump_jsonl(path)
        assert count == len(TRACER) > 0
        kinds = set()
        for line in path.read_text().splitlines():
            ev = json.loads(line)
            assert isinstance(ev["ts"], (int, float))
            assert isinstance(ev["kind"], str)
            for value in ev.values():
                assert isinstance(value, (str, int, float, bool, type(None)))
            kinds.add(ev["kind"])
        assert "request" in kinds and "recovery" in kinds
        req = next(
            json.loads(l)
            for l in path.read_text().splitlines()
            if json.loads(l)["kind"] == "request"
        )
        assert {"ts", "kind", "scheme", "op", "stripe", "latency", "degraded"} <= set(req)


class TestTelemetryIsNeutral:
    """Telemetry on ≡ off for every simulated output.

    Switching the collectors on may only add records; it must never move
    an event.  (``FIFOResource.use_ev`` used to take its uncontended fast
    path only while unmetered, which reordered same-instant events.)
    """

    @staticmethod
    def _both_ways(run):
        outputs = []
        for metered in (False, True):
            telemetry.disable()
            telemetry.reset()
            if metered:
                telemetry.enable(metrics=True, tracing=True, snapshots=True)
            outputs.append(run())
        return outputs

    def test_degraded_serving_run(self):
        from repro.server import ServerConfig, WorkloadSpec, run_serving

        spec = WorkloadSpec(
            target_ops=300,
            duration=6.0,
            read_fraction=0.7,
            distribution="latest",
            num_objects=64,
            seed=7,
        )
        plain, metered = self._both_ways(
            lambda: run_serving(spec, ServerConfig(failure_rate=200.0))
        )
        assert plain.degraded_latencies and plain.repair_latencies
        assert metered.get_latencies == plain.get_latencies
        assert metered.put_latencies == plain.put_latencies
        assert metered.degraded_latencies == plain.degraded_latencies
        assert metered.repair_latencies == plain.repair_latencies
        assert metered.stats == plain.stats
        assert metered == plain

    def test_chaos_run_workload(self):
        from repro.experiments import ExperimentConfig
        from repro.experiments.parallel import CampaignTask, _run_cell

        config = ExperimentConfig(
            num_requests=200,
            num_stripes=16,
            chaos_profile="storm",
            chaos_seed=1,
            verify_invariants=True,
        )
        for scheme in ("LRC", "EC-Fusion"):
            plain, metered = self._both_ways(
                lambda: _run_cell(CampaignTask(config, "mds1", scheme))
            )
            assert plain.recovery_latencies and plain.chaos["applied"]
            assert metered.read_latencies == plain.read_latencies
            assert metered.write_latencies == plain.write_latencies
            assert metered.recovery_latencies == plain.recovery_latencies
            assert metered.chaos == plain.chaos
            assert metered == plain, scheme
