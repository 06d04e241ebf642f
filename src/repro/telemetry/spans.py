"""Offline trace analytics: reconstruct spans from a recorded JSONL trace.

The trace recorder (:mod:`repro.telemetry.tracing`) emits *completion*
events: ``request``/``recovery``/``conversion`` records carry the
simulated completion time ``ts`` and the operation's ``latency``, so each
one reconstructs to a closed span ``[ts - latency, ts]``.  This module
turns a dumped trace back into those spans and computes the aggregates
per-repair measurement studies lean on — per-event-kind latency
percentiles, the top-N slowest repairs (the recovery critical path), and
per-stripe RS↔MSR conversion churn including the bytes the
intermediary-parity highway saved versus naive re-encoding.

Everything here is offline and side-effect free: it reads event dicts
(from a file, a string, or ``TRACER.events``) and returns plain data, so
``python -m repro trace-report PATH`` can summarise a trace recorded by
an earlier campaign without re-running anything.

Examples
--------
>>> events = [
...     {"ts": 1.0, "kind": "request", "op": "read", "latency": 0.25},
...     {"ts": 4.0, "kind": "recovery", "stripe": 7, "latency": 2.0},
... ]
>>> analysis = analyze_events(events)
>>> analysis.spans[1].start
2.0
>>> analysis.aggregates()["recovery"]["count"]
1
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .registry import nearest_rank

__all__ = [
    "Span",
    "TraceAnalysis",
    "nearest_rank",
    "load_events",
    "analyze_events",
    "analyze_trace",
]

#: Event kinds that carry a ``latency`` field and reconstruct to spans.
SPAN_KINDS = ("request", "recovery", "conversion")

#: The causal ids a traced event carries next to its payload.
_ID_KEYS = ("trace_id", "span_id", "parent_id")

#: Root-span kinds whose *residual* time is untagged coordination work.
_ROOT_KINDS = ("request", "recovery")


@dataclass(frozen=True)
class Span:
    """One closed interval of work reconstructed from a completion event.

    ``fields`` is the event's whole payload (everything but ``ts``, ``kind``
    and ``latency``).  Events emitted under a
    :class:`~repro.telemetry.tracing.SpanContext` also carry the three
    causal ids, and :func:`repro.telemetry.causal.build_traces` hangs
    each span's ``children`` under it.
    """

    kind: str
    start: float
    end: float
    fields: dict = field(default_factory=dict)
    trace_id: int | None = None
    span_id: int | None = None
    parent_id: int | None = None
    children: list["Span"] = field(default_factory=list)

    @classmethod
    def from_event(cls, ev: dict) -> "Span":
        """Rebuild ``[ts − latency, ts]`` from one completion event."""
        end = float(ev["ts"])
        ids = {key: int(ev[key]) for key in _ID_KEYS if ev.get(key) is not None}
        return cls(
            kind=str(ev.get("kind", "span")),
            start=end - float(ev["latency"]),
            end=end,
            fields={k: v for k, v in ev.items() if k not in ("ts", "kind", "latency")},
            **ids,
        )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def phase(self) -> str:
        """The phase this span's own (child-uncovered) time belongs to.

        Explicit ``phase`` tags win; root kinds fall back to ``other``
        (their residual is coordination, not a named phase); anything
        else stands under its kind name.
        """
        tagged = self.fields.get("phase")
        if tagged:
            return str(tagged)
        if self.kind in _ROOT_KINDS:
            return "other"
        return self.kind

    def label(self) -> str:
        """Short human identifier for rendering (kind + salient fields)."""
        bits = [self.kind]
        for key in ("op", "stage", "key", "stripe", "block", "attempt"):
            if key in self.fields:
                bits.append(f"{key}={self.fields[key]}")
        return " ".join(bits)

    def to_dict(self) -> dict:
        """Flat JSON-ready view (payload fields inlined)."""
        out = {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        for key, value in self.fields.items():
            out.setdefault(key, value)
        return out


def _latency_summary(durations: list[float]) -> dict:
    ordered = sorted(durations)
    n = len(ordered)
    return {
        "count": n,
        "mean": sum(ordered) / n if n else 0.0,
        "p50": nearest_rank(ordered, 0.50),
        "p95": nearest_rank(ordered, 0.95),
        "p99": nearest_rank(ordered, 0.99),
        "max": ordered[-1] if n else 0.0,
    }


def load_events(path) -> list[dict]:
    """Parse a JSONL trace file into event dicts (blank lines skipped)."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
            if not isinstance(ev, dict) or "kind" not in ev or "ts" not in ev:
                raise ValueError(f"{path}:{lineno}: not a trace event (needs ts + kind)")
            events.append(ev)
    return events


@dataclass
class TraceAnalysis:
    """Spans + aggregates reconstructed from one recorded trace."""

    events: list[dict]
    spans: list[Span]

    # -- aggregates --------------------------------------------------------
    def kinds(self) -> dict[str, int]:
        """Event count per kind tag."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev["kind"]] = out.get(ev["kind"], 0) + 1
        return out

    def aggregates(self) -> dict[str, dict]:
        """Per-kind duration summary (count/mean/p50/p95/p99/max)."""
        per_kind: dict[str, list[float]] = {}
        for span in self.spans:
            per_kind.setdefault(span.kind, []).append(span.duration)
        return {kind: _latency_summary(d) for kind, d in sorted(per_kind.items())}

    def slowest(self, kind: str = "recovery", n: int = 3) -> list[Span]:
        """The ``n`` longest spans of one kind (repair critical paths)."""
        chosen = [s for s in self.spans if s.kind == kind]
        chosen.sort(key=lambda s: s.duration, reverse=True)
        return chosen[:n]

    def request_breakdown(self) -> dict[str, dict]:
        """Request latency summaries split by op and degraded flag."""
        groups: dict[str, list[float]] = {}
        for span in self.spans:
            if span.kind != "request":
                continue
            op = span.fields.get("op", "unknown")
            groups.setdefault(op, []).append(span.duration)
            if span.fields.get("degraded"):
                groups.setdefault("degraded", []).append(span.duration)
        return {op: _latency_summary(d) for op, d in sorted(groups.items())}

    def conversion_churn(self) -> list[dict]:
        """Per-stripe RS↔MSR lifecycle: flips, conversion time, bytes.

        ``adapt`` events supply the flip decisions (by direction and
        trigger), ``conversion`` events the materialised cost — and, when
        the trace carries them, the per-conversion ``bytes_read`` and the
        ``saved`` bytes the intermediary-parity shortcut avoided reading.
        Sorted by flip count, churniest stripes first.
        """
        churn: dict[str, dict] = {}

        def entry(stripe) -> dict:
            key = str(stripe)
            return churn.setdefault(
                key,
                {
                    "stripe": key,
                    "flips": 0,
                    "to_msr": 0,
                    "to_rs": 0,
                    "conversions": 0,
                    "conversion_time": 0.0,
                    "bytes_read": 0.0,
                    "bytes_saved": 0.0,
                },
            )

        for ev in self.events:
            if ev["kind"] == "adapt":
                e = entry(ev.get("stripe"))
                e["flips"] += 1
                if ev.get("target") == "msr":
                    e["to_msr"] += 1
                elif ev.get("target") == "rs":
                    e["to_rs"] += 1
            elif ev["kind"] == "conversion":
                e = entry(ev.get("stripe"))
                e["conversions"] += 1
                e["conversion_time"] += float(ev.get("latency", 0.0))
                e["bytes_read"] += float(ev.get("bytes_read", 0.0))
                e["bytes_saved"] += float(ev.get("saved", 0.0))
        return sorted(
            churn.values(), key=lambda e: (e["flips"], e["conversions"]), reverse=True
        )

    # -- export ------------------------------------------------------------
    def to_dict(self, top: int = 5) -> dict:
        """JSON-friendly summary (the ``spans`` section of ``--report``)."""
        return {
            "events": len(self.events),
            "kinds": self.kinds(),
            "aggregates": self.aggregates(),
            "slowest_repairs": [s.to_dict() for s in self.slowest("recovery", top)],
            "requests": self.request_breakdown(),
            "conversion_churn": self.conversion_churn()[:top],
        }

    def render(self, top: int = 3) -> str:
        """Human-readable summary (what ``trace-report`` prints)."""
        lines = [f"trace: {len(self.events)} events"]
        kinds = self.kinds()
        if kinds:
            lines.append(
                "kinds: " + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            )
        agg = self.aggregates()
        if agg:
            lines.append("")
            lines.append(
                f"{'kind':12s} {'count':>6s} {'mean':>10s} {'p50':>10s} "
                f"{'p95':>10s} {'p99':>10s} {'max':>10s}"
            )
            for kind, a in agg.items():
                lines.append(
                    f"{kind:12s} {a['count']:6d} {a['mean']:10.4g} {a['p50']:10.4g} "
                    f"{a['p95']:10.4g} {a['p99']:10.4g} {a['max']:10.4g}"
                )
        slowest = self.slowest("recovery", top)
        if slowest:
            lines.append("")
            lines.append(f"top {len(slowest)} slowest repairs:")
            for i, span in enumerate(slowest, start=1):
                scheme = span.fields.get("scheme", "?")
                stripe = span.fields.get("stripe", "?")
                block = span.fields.get("block", "?")
                lines.append(
                    f"  {i}. {span.duration:9.3f}s  scheme={scheme} "
                    f"stripe={stripe} block={block} "
                    f"[{span.start:.2f}s – {span.end:.2f}s]"
                )
        churn = [e for e in self.conversion_churn() if e["flips"] or e["conversions"]]
        if churn:
            lines.append("")
            lines.append(f"churniest stripes (of {len(churn)} converting):")
            for e in churn[:top]:
                saved = f" saved={e['bytes_saved']:.3g}B" if e["bytes_saved"] else ""
                lines.append(
                    f"  stripe {e['stripe']}: {e['flips']} flips "
                    f"({e['to_msr']}→msr / {e['to_rs']}→rs), "
                    f"{e['conversions']} materialised, "
                    f"{e['conversion_time']:.3f}s converting{saved}"
                )
        return "\n".join(lines)


def analyze_events(events: Iterable[dict]) -> TraceAnalysis:
    """Build a :class:`TraceAnalysis` from already-parsed event dicts."""
    events = list(events)
    spans = [
        Span.from_event(ev)
        for ev in events
        if ev.get("kind") in SPAN_KINDS and "latency" in ev
    ]
    return TraceAnalysis(events=events, spans=spans)


def analyze_trace(path) -> TraceAnalysis:
    """Load a JSONL trace file and analyze it."""
    return analyze_events(load_events(path))
