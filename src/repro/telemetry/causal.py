"""Causal trace analytics: span trees, critical paths, tail attribution.

The flat span analytics (:mod:`repro.telemetry.spans`) answer *how slow*
each kind of operation was; this module answers *why*.  Serving-path
emitters (:mod:`repro.server`, the recovery scheduler, the pipelined
repair engine) thread a :class:`~repro.telemetry.tracing.SpanContext`
through every hop of a request, so each completion event carries
``trace_id``/``span_id``/``parent_id`` and a ``phase`` tag —

* ``queue`` — time spent waiting for a repair-scheduler dispatch slot;
* ``network`` — read/write fan-outs, coordinator NIC ingest/egress, and
  pipelined hop-by-hop streaming (media reads ride along: the phase is
  "moving bytes", not "NIC wire time");
* ``decode`` — coordinator GF compute (reconstruction / encode);
* ``repair-ride`` — a degraded read waiting on the in-flight repair job
  that is already rebuilding its chunk;
* ``retry`` — deterministic exponential backoff between repair attempts;
* ``other`` — everything the instrumented children do not cover
  (metadata round trips, namenode work, scheduling gaps).

Everything here is offline and side-effect free: functions take event
dicts (from :func:`~repro.telemetry.spans.load_events`, a report, or
``TRACER.events``) and return plain data.  Reconstruction is exact —
spans are completion events, so ``[ts − latency, ts]`` closes each
interval — and attribution is *conservative*: a parent's time is divided
among its children in arrival order, overlaps are clipped, and whatever
no child covers lands in the parent's own phase.  The per-request phase
totals therefore always sum to the request's critical-path duration.

Examples
--------
>>> events = [
...     {"ts": 2.0, "kind": "request", "trace_id": 1, "span_id": 1,
...      "op": "get", "latency": 1.0},
...     {"ts": 1.8, "kind": "phase", "trace_id": 1, "span_id": 2,
...      "parent_id": 1, "phase": "network", "latency": 0.6},
... ]
>>> roots = build_traces(events)
>>> breakdown = attribute_phases(roots[0])
>>> round(breakdown["network"], 3), round(breakdown["other"], 3)
(0.6, 0.4)
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .atomic import write_atomic
from .spans import _ID_KEYS, Span, nearest_rank

__all__ = [
    "PHASES",
    "build_traces",
    "attribute_phases",
    "critical_path",
    "TailExplanation",
    "explain_tail",
    "attribution_summary",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: The phase vocabulary the serving/recovery emitters use (plus ``other``).
PHASES = ("queue", "network", "decode", "repair-ride", "retry", "other")


def build_traces(events) -> list[Span]:
    """Reconstruct span trees from event dicts; returns the root spans.

    Only events carrying the three causal ids *and* a ``latency`` take
    part (flat legacy events pass through untouched — they simply have no
    causal identity).  Children attach to their parent when it exists in
    the same trace; orphans (parent dropped by a capacity cap) are
    promoted to roots so no recorded time silently disappears.  Output
    is deterministic: roots sort by ``(start, span_id)``, children
    likewise.
    """
    nodes: dict[tuple, Span] = {}
    for ev in events:
        if "trace_id" not in ev or "span_id" not in ev or "latency" not in ev:
            continue
        node = Span.from_event(ev)
        nodes[(node.trace_id, node.span_id)] = node
    roots: list[Span] = []
    for node in nodes.values():
        parent = (
            nodes.get((node.trace_id, node.parent_id))
            if node.parent_id is not None
            else None
        )
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start, n.span_id))
    roots.sort(key=lambda n: (n.start, n.span_id))
    return roots


def _sweep(node: Span):
    """Yield ``(child, clipped_start, clipped_end)`` in causal time order.

    Children are swept left to right across the parent's interval; each
    is clipped to the time not already covered by an earlier sibling (the
    emitters produce disjoint children, so clipping is a no-op there —
    it only defends against hand-built or truncated traces).
    """
    cursor = node.start
    for child in node.children:
        lo = max(child.start, cursor)
        hi = min(child.end, node.end)
        if hi <= lo:
            continue
        yield child, lo, hi
        cursor = hi


def attribute_phases(node: Span) -> dict[str, float]:
    """Per-phase seconds of one span tree; values sum to ``node.duration``.

    Leaves contribute their whole duration to their phase.  Internal
    spans divide their interval among their children (recursively) and
    keep the uncovered residual under their own phase — so the total is
    exactly the root's critical-path duration, with no double counting.
    """
    out: dict[str, float] = {}
    if not node.children:
        out[node.phase] = node.duration
        return out
    covered = 0.0
    for child, lo, hi in _sweep(node):
        sub = attribute_phases(child)
        scale = (hi - lo) / child.duration if child.duration > 0 else 0.0
        for phase, seconds in sub.items():
            out[phase] = out.get(phase, 0.0) + seconds * scale
        covered += hi - lo
    residual = node.duration - covered
    if residual > 0:
        out[node.phase] = out.get(node.phase, 0.0) + residual
    return out


def critical_path(node: Span) -> list[dict]:
    """The root-to-leaf time decomposition as flat, ordered segments.

    Each segment is ``{"start", "end", "phase", "label", "depth"}``;
    segments tile ``[node.start, node.end]`` exactly (gaps between
    children appear as the parent's own phase), so summing their
    durations reproduces the critical-path duration.
    """
    segments: list[dict] = []

    def walk(span: Span, depth: int) -> None:
        if not span.children:
            segments.append(
                {
                    "start": span.start,
                    "end": span.end,
                    "phase": span.phase,
                    "label": span.label(),
                    "depth": depth,
                }
            )
            return
        cursor = span.start
        for child, lo, hi in _sweep(span):
            if lo > cursor:
                segments.append(
                    {
                        "start": cursor,
                        "end": lo,
                        "phase": span.phase,
                        "label": span.label(),
                        "depth": depth,
                    }
                )
            walk(child, depth + 1)
            cursor = hi
        if span.end > cursor:
            segments.append(
                {
                    "start": cursor,
                    "end": span.end,
                    "phase": span.phase,
                    "label": span.label(),
                    "depth": depth,
                }
            )

    walk(node, 0)
    return segments


#: Canonical nearest-rank percentile, shared with the span analytics.
_percentile = nearest_rank


def _select_roots(roots: list[Span], op: str) -> list[Span]:
    """Request roots matching an explain target.

    ``op`` is a request op (``get``/``put``/``delete``), ``degraded``
    (gets that hit a lost chunk), or ``repair`` (background recovery
    traces).
    """
    if op == "repair":
        return [r for r in roots if r.kind == "recovery"]
    if op == "degraded":
        return [
            r
            for r in roots
            if r.kind == "request"
            and r.fields.get("op") == "get"
            and r.fields.get("degraded")
        ]
    return [r for r in roots if r.kind == "request" and r.fields.get("op") == op]


@dataclass
class TailExplanation:
    """Where a latency quantile lives: phase table + exemplar paths."""

    op: str
    quantile: float
    samples: int
    threshold: float
    tail_count: int
    phases: dict[str, float]
    exemplars: list[dict]

    def to_dict(self) -> dict:
        total = sum(self.phases.values())
        return {
            "op": self.op,
            "quantile": self.quantile,
            "samples": self.samples,
            "threshold": self.threshold,
            "tail_count": self.tail_count,
            "phases": dict(self.phases),
            "shares": {
                phase: (seconds / total if total else 0.0)
                for phase, seconds in self.phases.items()
            },
            "exemplars": list(self.exemplars),
        }

    def render(self) -> str:
        """Human-readable explanation (what the ``explain`` CLI prints)."""
        q_label = f"p{self.quantile * 100:g}"
        lines = [
            f"explain {self.op} @ {q_label}: "
            f"threshold {self.threshold * 1e3:.2f} ms over {self.samples} "
            f"sample(s); {self.tail_count} at/above"
        ]
        if not self.samples:
            lines.append("  (no matching traced requests — was --trace on?)")
            return "\n".join(lines)
        total = sum(self.phases.values())
        lines.append("")
        lines.append(
            f"where the {self.op} {q_label} lives "
            f"({self.tail_count} tail request(s), {total * 1e3:.2f} ms attributed):"
        )
        lines.append(f"  {'phase':12s} {'ms':>10s} {'share':>7s}")
        ordered = sorted(self.phases.items(), key=lambda kv: (-kv[1], kv[0]))
        for phase, seconds in ordered:
            share = seconds / total if total else 0.0
            lines.append(f"  {phase:12s} {seconds * 1e3:10.2f} {share:7.1%}")
        for i, ex in enumerate(self.exemplars, start=1):
            lines.append("")
            lines.append(
                f"exemplar {i}: {ex['label']} latency={ex['duration'] * 1e3:.2f} ms "
                f"[{ex['start']:.3f}s – {ex['end']:.3f}s] trace={ex['trace_id']}"
            )
            for seg in ex["segments"]:
                dur = (seg["end"] - seg["start"]) * 1e3
                if ex["duration"] > 0 and dur < ex["duration"] * 1e3 * 1e-6:
                    continue  # sub-ppm residual slivers are float noise
                indent = "  " * seg["depth"]
                lines.append(
                    f"  [{seg['start']:9.3f} – {seg['end']:9.3f}] "
                    f"{seg['phase']:12s} {dur:9.2f} ms  {indent}{seg['label']}"
                )
        return "\n".join(lines)


def explain_tail(
    events,
    op: str = "get",
    q: float = 0.99,
    exemplars: int = 3,
) -> TailExplanation:
    """Attribute the latency tail of one operation across phases.

    Selects the request roots for ``op`` (see :func:`_select_roots`),
    finds the exact nearest-rank ``q``-quantile of their durations, and
    aggregates :func:`attribute_phases` over every root at/above it; the
    ``exemplars`` slowest also carry their full critical-path segment
    list.  Deterministic for a deterministic trace: ties break on span
    ids, never on dict order.
    """
    if not 0 <= q <= 1:
        raise ValueError("q must be in [0, 1]")
    if isinstance(events, list) and events and isinstance(events[0], Span):
        roots = events
    else:
        roots = build_traces(events)
    chosen = _select_roots(roots, op)
    durations = sorted(r.duration for r in chosen)
    threshold = _percentile(durations, q)
    tail = [r for r in chosen if r.duration >= threshold]
    tail.sort(key=lambda r: (-r.duration, r.span_id))
    phases: dict[str, float] = {}
    for root in tail:
        for phase, seconds in attribute_phases(root).items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    exemplar_dicts = []
    for root in tail[: max(0, exemplars)]:
        exemplar_dicts.append(
            {
                "label": root.label(),
                "trace_id": root.trace_id,
                "start": root.start,
                "end": root.end,
                "duration": root.duration,
                "phases": attribute_phases(root),
                "segments": critical_path(root),
            }
        )
    return TailExplanation(
        op=op,
        quantile=q,
        samples=len(chosen),
        threshold=threshold,
        tail_count=len(tail),
        phases=phases,
        exemplars=exemplar_dicts,
    )


def attribution_summary(events, q: float = 0.99) -> dict:
    """The ``attribution`` section of a ``repro.report/v1`` report.

    One compact phase table per traced operation (plus ``repair`` for
    background recovery traces): sample count, the exact ``q``-quantile,
    and the tail's per-phase seconds.  Empty dict when the trace carries
    no causal spans — the report section stays present but quiet.
    """
    roots = build_traces(events)
    if not roots:
        return {}
    out: dict = {"quantile": q, "traces": len(roots), "ops": {}}
    for op in ("get", "put", "delete", "degraded", "repair"):
        chosen = _select_roots(roots, op)
        if not chosen:
            continue
        explanation = explain_tail(roots, op=op, q=q, exemplars=0)
        out["ops"][op] = {
            "samples": explanation.samples,
            "threshold": explanation.threshold,
            "tail_count": explanation.tail_count,
            "phases": dict(explanation.phases),
        }
    return out


# ------------------------------------------------------------- perfetto
def to_chrome_trace(events) -> dict:
    """The causal spans as a Chrome trace-event (Perfetto-loadable) dict.

    Every span becomes one complete (``"ph": "X"``) event — microsecond
    timestamps, one Perfetto track per ``trace_id`` — so
    ``ui.perfetto.dev`` renders each request/repair as its own row with
    phases nested underneath.  Point events with causal ids would be
    emitted as instants; the current emitters only attach ids to closed
    spans.
    """
    trace_events = []
    for root in build_traces(events):
        stack = [root]
        while stack:
            node = stack.pop()
            trace_events.append(
                {
                    "name": node.phase if node.fields.get("phase") else node.label(),
                    "cat": node.kind,
                    "ph": "X",
                    "ts": node.start * 1e6,
                    "dur": node.duration * 1e6,
                    "pid": 0,
                    "tid": node.trace_id,
                    "args": {
                        "span_id": node.span_id,
                        "parent_id": node.parent_id,
                        **{k: v for k, v in node.fields.items() if k not in _ID_KEYS},
                    },
                }
            )
            stack.extend(reversed(node.children))
    trace_events.sort(key=lambda ev: (ev["tid"], ev["ts"], ev["args"]["span_id"]))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, events) -> int:
    """Atomically write the Perfetto JSON of ``events`` to ``path``; span count."""
    doc = to_chrome_trace(events)
    write_atomic(path, json.dumps(doc, indent=2) + "\n", prefix=".perfetto-")
    return len(doc["traceEvents"])
