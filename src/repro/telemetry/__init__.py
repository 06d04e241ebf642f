"""Opt-in observability: metrics, tracing, snapshots, span analytics.

Every layer of the reproduction — the discrete-event kernel, the cluster
substrate, the fusion pipeline and the codecs — records into one shared
:data:`METRICS` registry and one shared :data:`TRACER` recorder; when
:data:`SNAPSHOTS` is enabled the cluster additionally samples sim-time
series of live gauges (MSR share, queue occupancy, in-flight traffic).
All three start **disabled**: an instrumented hot path costs a single
attribute lookup until :func:`enable` flips the switch, so simulation
results and codec throughput are unchanged for users who never ask for
telemetry.

Typical session::

    from repro import telemetry
    telemetry.enable(tracing=True, snapshots=True)
    ...  # run a workload / experiment
    print(telemetry.render_metrics_table())
    telemetry.TRACER.dump_jsonl("trace.jsonl")
    report = telemetry.build_report(experiments=["fig16"])
    telemetry.disable()

The CLI wires the same switches to ``python -m repro stats``,
``--trace PATH`` and ``--report PATH``, and ``python -m repro
trace-report PATH`` replays the offline span analytics on an existing
trace; the metric catalogue, trace-event schema and report schema are
documented in ``docs/telemetry.md``.
"""

from __future__ import annotations

from .._lazy import lazy_exports
from .registry import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    default_buckets,
    nearest_rank,
    serving_buckets,
)
from .snapshots import SNAPSHOTS, SnapshotCollector, SnapshotSampler, SnapshotSeries
from .tracing import TRACER, SpanContext, TraceEvent, TraceRecorder

__all__ = [
    "METRICS",
    "TRACER",
    "SNAPSHOTS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "SnapshotCollector",
    "SnapshotSampler",
    "SnapshotSeries",
    "Span",
    "SpanContext",
    "TailExplanation",
    "TraceAnalysis",
    "TraceEvent",
    "TraceRecorder",
    "PHASES",
    "REPORT_SCHEMA",
    "analyze_events",
    "analyze_trace",
    "attribute_phases",
    "attribution_summary",
    "build_report",
    "build_traces",
    "critical_path",
    "default_buckets",
    "explain_tail",
    "load_events",
    "nearest_rank",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_metrics_table",
    "render_prometheus",
    "serving_buckets",
    "write_report",
    "enable",
    "disable",
    "reset",
]


# the offline analytics and exporters load on first use; the recorders
# above stay eager, since enable/disable/reset read them as globals
__getattr__, __dir__ = lazy_exports(__name__, {
    ".causal": ("PHASES", "TailExplanation", "attribute_phases", "attribution_summary",
                "build_traces", "critical_path", "explain_tail", "to_chrome_trace",
                "write_chrome_trace"),
    ".export": ("REPORT_SCHEMA", "build_report", "render_prometheus", "write_report"),
    ".report": ("render_metrics_table",),
    ".spans": ("Span", "TraceAnalysis", "analyze_events", "analyze_trace", "load_events"),
})  # fmt: skip


def enable(metrics: bool = True, tracing: bool = False, snapshots: bool = False) -> None:
    """Switch the default registry (and optionally tracer/snapshots) on."""
    if metrics:
        METRICS.enable()
    if tracing:
        TRACER.enable()
    if snapshots:
        SNAPSHOTS.enable()


def disable() -> None:
    """Switch the default registry, tracer and snapshot collector off."""
    METRICS.disable()
    TRACER.disable()
    SNAPSHOTS.disable()


def reset() -> None:
    """Clear all recorded metrics, buffered trace events and snapshot series."""
    METRICS.reset()
    TRACER.clear()
    SNAPSHOTS.clear()
