"""Machine-readable telemetry export: Prometheus text + JSON reports.

Two consumers, two formats:

* :func:`render_prometheus` — the registry in Prometheus text exposition
  format (``# TYPE`` families, ``_total`` counters, cumulative
  ``_bucket{le=...}`` histograms), so a scraper or ``promtool`` can
  ingest a campaign's metrics without bespoke parsing.
* :func:`build_report` / :func:`write_report` — one versioned JSON
  document per campaign (schema :data:`REPORT_SCHEMA`) combining metric
  aggregates, sim-time snapshot series, and span analytics; this is what
  ``python -m repro <experiment> --report out.json`` writes and what
  future PRs regress benchmark trajectories against.

Report writes are atomic (temp file + ``os.replace``) so a crash mid-dump
never leaves a half-written report behind.
"""

from __future__ import annotations

import json

from ..gf import available_backends, native_info
from .atomic import write_atomic
from .causal import attribution_summary
from .registry import Counter, Gauge, Histogram, MetricsRegistry, METRICS
from .snapshots import SnapshotCollector, SNAPSHOTS
from .spans import analyze_events
from .tracing import TraceRecorder, TRACER

__all__ = [
    "REPORT_SCHEMA",
    "render_prometheus",
    "build_report",
    "write_report",
]

#: Version tag embedded in every report; bump on breaking layout changes.
REPORT_SCHEMA = "repro.report/v1"


# ---------------------------------------------------------------- prometheus
def _prom_name(name: str) -> str:
    """Sanitise a dotted metric name into a Prometheus family name."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return "repro_" + safe


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _prom_family(lines: list[str], name: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """The whole registry in Prometheus text exposition format.

    Counters become ``<name>_total``; gauges emit their level plus a
    separate ``<name>_high_water`` family; histograms emit the full
    cumulative ``_bucket`` ladder, ``_sum`` and ``_count``.
    """
    registry = registry if registry is not None else METRICS
    lines: list[str] = []
    for name in registry.names():
        metric = registry.get(name)
        unit_help = f"unit={metric.unit}" if metric.unit else "(no unit)"
        help_text = f"{name} {unit_help}"
        if isinstance(metric, Counter):
            family = _prom_name(name) + "_total"
            _prom_family(lines, family, "counter", help_text)
            lines.append(f"{family} {_prom_value(metric.value)}")
        elif isinstance(metric, Gauge):
            family = _prom_name(name)
            _prom_family(lines, family, "gauge", help_text)
            lines.append(f"{family} {_prom_value(metric.value)}")
            hw = family + "_high_water"
            _prom_family(lines, hw, "gauge", help_text + " (high-water mark)")
            lines.append(f"{hw} {_prom_value(metric.high_water)}")
        elif isinstance(metric, Histogram):
            family = _prom_name(name)
            _prom_family(lines, family, "histogram", help_text)
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                if count:  # sparse ladder: only buckets that gained samples
                    lines.append(
                        f'{family}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
                    )
            lines.append(f'{family}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{family}_sum {_prom_value(metric.total)}")
            lines.append(f"{family}_count {metric.count}")
        else:  # pragma: no cover - registry only stores the three types
            raise TypeError(f"unknown metric type {type(metric).__name__}")
    return "\n".join(lines) + ("\n" if lines else "")


# -------------------------------------------------------------------- report
def build_report(
    registry: MetricsRegistry | None = None,
    tracer: TraceRecorder | None = None,
    snapshots: SnapshotCollector | None = None,
    experiments: list[str] | None = None,
    config: dict | None = None,
    span_top: int = 5,
    extra: dict | None = None,
) -> dict:
    """Assemble the versioned campaign report as one JSON-ready dict.

    Sections (all always present; empty when the matching telemetry
    surface recorded nothing):

    * ``metrics`` — ``registry.snapshot()``, every counter/gauge/histogram;
    * ``snapshots`` — the sim-time series (see ``docs/telemetry.md``);
    * ``spans`` — trace analytics from the buffered events;
    * ``attribution`` — causal tail attribution per traced operation
      (:func:`~repro.telemetry.causal.attribution_summary`); ``{}`` when
      the trace carries no causal spans (figure campaigns, tracing off);
    * ``host`` — what served the bytes: the usable GF backends and the
      SIMD rung behind ``native`` with the entry Python calls it through
      (``fastcall`` or ``ctypes``), or the reason there is none
      (:func:`repro.gf.native_info`).

    ``extra`` adds caller-owned top-level sections (the ``serve``
    command's ``serving`` block rides in this way); extra keys may not
    shadow the built-in sections — the schema stays ``v1`` because the
    additions are strictly additive.
    """
    registry = registry if registry is not None else METRICS
    tracer = tracer if tracer is not None else TRACER
    snapshots = snapshots if snapshots is not None else SNAPSHOTS
    events = [ev.to_dict() for ev in tracer.events]
    analysis = analyze_events(events)
    report = {
        "schema": REPORT_SCHEMA,
        "experiments": list(experiments or []),
        "config": config,
        "metrics": registry.snapshot(),
        "snapshots": snapshots.to_dict(),
        "spans": analysis.to_dict(top=span_top),
        "attribution": attribution_summary(events),
        "trace": {"events": len(tracer.events), "dropped": tracer.dropped},
        "host": {"gf_backends": list(available_backends()), "gf_native": native_info()},
    }
    for key, section in (extra or {}).items():
        if key in report:
            raise ValueError(f"extra section {key!r} shadows a built-in report section")
        report[key] = section
    return report


def write_report(path, report: dict) -> None:
    """Atomically write ``report`` as pretty-printed JSON to ``path``."""
    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    write_atomic(path, text, prefix=".report-")
