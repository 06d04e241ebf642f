"""Prometheus exposition format and the versioned JSON campaign report."""

import json
import re

import pytest

from repro import telemetry
from repro.telemetry import (
    REPORT_SCHEMA,
    MetricsRegistry,
    SnapshotCollector,
    TraceRecorder,
    build_report,
    render_prometheus,
    write_chrome_trace,
    write_report,
)


@pytest.fixture(autouse=True)
def clean_singletons():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry(enabled=True)
    reg.counter("cluster.requests.read", unit="requests").inc(7)
    g = reg.gauge("sim.heap_depth")
    g.set(9)
    g.set(3)
    h = reg.histogram("cluster.latency.read", unit="s")
    for v in (0.002, 0.02, 0.02, 1.5):
        h.observe(v)
    return reg


class TestPrometheusExposition:
    def test_golden_lines_parse(self):
        text = render_prometheus(populated_registry())
        assert text.endswith("\n")
        sample_re = re.compile(
            r'^[a-zA-Z_][a-zA-Z0-9_]*(\{le="[^"]+"\})? (NaN|[+-]?Inf|[-0-9.e+]+)$'
        )
        meta_re = re.compile(r"^# (HELP|TYPE) [a-zA-Z_][a-zA-Z0-9_]* .+$")
        for line in text.splitlines():
            assert sample_re.match(line) or meta_re.match(line), line

    def test_no_duplicate_families_and_types_match(self):
        text = render_prometheus(populated_registry())
        families: dict[str, str] = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert name not in families, f"duplicate family {name}"
                families[name] = kind
        assert families["repro_cluster_requests_read_total"] == "counter"
        assert families["repro_sim_heap_depth"] == "gauge"
        assert families["repro_sim_heap_depth_high_water"] == "gauge"
        assert families["repro_cluster_latency_read"] == "histogram"

    def test_counter_and_gauge_samples(self):
        text = render_prometheus(populated_registry())
        assert "repro_cluster_requests_read_total 7" in text
        assert "repro_sim_heap_depth 3" in text
        assert "repro_sim_heap_depth_high_water 9" in text

    def test_histogram_buckets_cumulative_with_inf_sum_count(self):
        text = render_prometheus(populated_registry())
        buckets = [
            (m.group(1), int(m.group(2)))
            for m in re.finditer(
                r'repro_cluster_latency_read_bucket\{le="([^"]+)"\} (\d+)', text
            )
        ]
        assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 4
        counts = [c for _, c in buckets]
        assert counts == sorted(counts)  # cumulative, monotone
        assert "repro_cluster_latency_read_count 4" in text
        sum_value = float(
            re.search(r"repro_cluster_latency_read_sum (\S+)", text).group(1)
        )
        assert sum_value == pytest.approx(0.002 + 0.02 + 0.02 + 1.5)

    def test_name_sanitisation(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("fusion.trigger.recovery-insert").inc()
        text = render_prometheus(reg)
        assert "repro_fusion_trigger_recovery_insert_total 1" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry(enabled=True)) == ""


class TestReport:
    def make_report(self) -> dict:
        tracer = TraceRecorder(enabled=True)
        tracer.emit("recovery", ts=4.0, latency=1.0, stripe=2)
        snaps = SnapshotCollector(enabled=True)
        return build_report(
            registry=populated_registry(),
            tracer=tracer,
            snapshots=snaps,
            experiments=["fig16"],
            config={"num_requests": 10},
        )

    def test_sections_and_schema(self):
        report = self.make_report()
        assert report["schema"] == REPORT_SCHEMA
        assert report["experiments"] == ["fig16"]
        assert report["config"] == {"num_requests": 10}
        assert report["metrics"]["cluster.requests.read"]["value"] == 7.0
        assert report["trace"] == {"events": 1, "dropped": 0}
        assert report["spans"]["aggregates"]["recovery"]["count"] == 1

    def test_host_section_names_the_gf_kernel_and_round_trips(self, tmp_path, monkeypatch):
        from repro.gf import available_backends, native_info

        host = self.make_report()["host"]
        assert host == {"gf_backends": list(available_backends()), "gf_native": native_info()}
        assert ("native" in host["gf_backends"]) == ("isa" in host["gf_native"])
        assert set(host["gf_native"]) >= {"isa", "flags", "compiler", "entry"} or set(host["gf_native"]) == {"absent"}
        assert host["gf_native"].get("entry") in ("fastcall", "ctypes", None)
        path = tmp_path / "out.json"
        write_report(path, self.make_report())
        assert json.loads(path.read_text())["host"] == host
        # a disabled kernel is disclosed, not silently missing
        monkeypatch.setenv("REPRO_GF_NATIVE", "0")
        off = self.make_report()["host"]
        assert "native" not in off["gf_backends"]
        assert off["gf_native"] == {"absent": "disabled by REPRO_GF_NATIVE=0"}

    def test_write_report_atomic_and_json(self, tmp_path):
        path = tmp_path / "out.json"
        write_report(path, self.make_report())
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == REPORT_SCHEMA
        # no temp-file droppings beside the report
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_write_report_failure_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_report(path, {"bad": object()})
        assert list(tmp_path.iterdir()) == []

    def test_extra_sections_are_added_top_level(self):
        tracer = TraceRecorder(enabled=True)
        report = build_report(
            registry=populated_registry(),
            tracer=tracer,
            snapshots=SnapshotCollector(enabled=True),
            extra={"serving": {"offered": 3}},
        )
        assert report["serving"] == {"offered": 3}
        assert report["schema"] == REPORT_SCHEMA

    def test_extra_section_cannot_shadow_builtin(self):
        with pytest.raises(ValueError):
            build_report(
                registry=populated_registry(),
                tracer=TraceRecorder(enabled=True),
                snapshots=SnapshotCollector(enabled=True),
                extra={"metrics": {}},
            )

    def test_report_is_json_serialisable_after_real_run(self):
        telemetry.enable(tracing=True, snapshots=True)
        telemetry.TRACER.emit("request", ts=1.0, latency=0.5, op="read")
        report = build_report(experiments=["stats"])
        json.dumps(report)  # must not raise


def _fail_report(path, monkeypatch):
    write_report(path, {"bad": object()})


def _fail_jsonl(path, monkeypatch):
    # a lone surrogate survives JSON encoding and fails only in the UTF-8
    # encoder, i.e. once the output file is already open
    monkeypatch.setattr(TraceRecorder, "to_jsonl", lambda self: "\ud800")
    TraceRecorder(enabled=True).dump_jsonl(path)


def _fail_perfetto(path, monkeypatch):
    span = {"ts": 2.0, "kind": "request", "trace_id": 1, "span_id": 1,
            "op": "get", "latency": 1.0, "bad": object()}
    write_chrome_trace(path, [span])


@pytest.mark.parametrize(
    "write", [_fail_report, _fail_jsonl, _fail_perfetto],
    ids=["write_report", "dump_jsonl", "write_chrome_trace"],
)
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out"
    path.write_bytes(b"precious\n")
    with pytest.raises((TypeError, UnicodeEncodeError)):
        write(path, monkeypatch)
    assert path.read_bytes() == b"precious\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no temp left
