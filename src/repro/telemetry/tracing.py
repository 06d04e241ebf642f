"""Structured trace events with JSONL export.

A trace event is one timestamped record of something the system did —
a request completing, a stripe converting codes, a recovery draining.
Events are flat: a ``ts`` (the emitter's native clock — simulated
seconds in the cluster, selector event index in the adaptive policy),
a ``kind`` tag, and scalar fields.  One event serialises to one JSON
object per line, so a trace file replays with any JSONL tooling::

    {"ts": 1.52, "kind": "request", "op": "read", "stripe": 7, "latency": 0.031}

Like the metrics registry, the recorder is opt-in: sites guard emission
with ``if TRACER.enabled:`` and the default :data:`TRACER` starts off.

On top of the flat schema sits an optional **causal layer**: an event
may carry a :class:`SpanContext` (``trace_id``/``span_id``/
``parent_id``) linking it into a per-request span tree.  Contexts are
allocated by the recorder from one deterministic counter — no wall
clock, no ``uuid`` — so a seeded simulation replays to byte-identical
ids; ``repro.telemetry.causal`` reconstructs the trees offline and
attributes tail latency per phase.  Sites that never ask for a context
emit exactly the events they always did.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .atomic import write_atomic

__all__ = ["SpanContext", "TraceEvent", "TraceRecorder", "TRACER"]

#: JSON-scalar types a trace field may carry; anything else is stringified.
_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class SpanContext:
    """Causal identity of one span: which trace it belongs to, who begat it.

    Contexts are *values*: thread one through a generator chain (an extra
    ``ctx=`` argument) and every instrumented site along the way can emit
    child spans under it.  ``None`` is the universal "not tracing" context
    — every helper below accepts it and degrades to a no-op, so call
    sites never branch on the recorder state themselves.
    """

    trace_id: int
    span_id: int
    parent_id: int | None = None

    def ids(self) -> dict:
        """The three id fields as they appear on an emitted event."""
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        return out


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record: timestamp, kind tag, scalar fields."""

    ts: float
    kind: str
    fields: dict = field(default_factory=dict)
    ctx: Optional[SpanContext] = None

    def to_dict(self) -> dict:
        """Flat JSON-ready dict; non-scalar field values are stringified."""
        out = {"ts": float(self.ts), "kind": self.kind}
        if self.ctx is not None:
            out.update(self.ctx.ids())
        for key, value in self.fields.items():
            out[key] = value if isinstance(value, _SCALARS) else str(value)
        return out


class TraceRecorder:
    """In-memory event buffer with JSONL export.

    Parameters
    ----------
    enabled:
        Initial state; the module-level :data:`TRACER` starts disabled.
    capacity:
        Optional hard cap on buffered events — once full, further emits
        are dropped (and counted in :attr:`dropped`) instead of growing
        the buffer unboundedly during long campaigns.

    Examples
    --------
    >>> rec = TraceRecorder(enabled=True)
    >>> rec.emit("request", ts=0.5, op="read", latency=0.01)
    >>> rec.to_jsonl().startswith('{"ts": 0.5, "kind": "request"')
    True
    """

    def __init__(self, enabled: bool = False, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self.enabled = enabled
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        self.dropped = 0
        #: next span/trace id — a plain counter, reset by :meth:`clear`,
        #: so a seeded run allocates byte-identical ids on every replay
        self._next_id = 1

    # -- lifecycle ---------------------------------------------------------
    def enable(self) -> None:
        """Start buffering events at every instrumented site."""
        self.enabled = True

    def disable(self) -> None:
        """Stop buffering (the existing buffer is kept until :meth:`clear`)."""
        self.enabled = False

    def clear(self) -> None:
        """Drop all buffered events, the dropped-count, and the id counter."""
        self.events.clear()
        self.dropped = 0
        self._next_id = 1

    # -- causal contexts ---------------------------------------------------
    def start_trace(self) -> SpanContext | None:
        """A fresh root context (``None`` while disabled — free to thread).

        The root's ``span_id`` doubles as the ``trace_id`` every child
        inherits, so one counter serves both id spaces.
        """
        if not self.enabled:
            return None
        span_id = self._next_id
        self._next_id += 1
        return SpanContext(trace_id=span_id, span_id=span_id)

    def start_span(self, parent: SpanContext | None) -> SpanContext | None:
        """A child context under ``parent`` (``None`` in, ``None`` out)."""
        if not self.enabled or parent is None:
            return None
        span_id = self._next_id
        self._next_id += 1
        return SpanContext(
            trace_id=parent.trace_id, span_id=span_id, parent_id=parent.span_id
        )

    # -- recording ---------------------------------------------------------
    def emit(self, kind: str, ts: float = 0.0, ctx: SpanContext | None = None, **fields) -> None:
        """Record one event (no-op while disabled, drop-counted when full).

        ``ctx`` attaches the causal ids; untraced sites simply omit it and
        their events serialise exactly as they always did.
        """
        if not self.enabled:
            return
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(ts=ts, kind=kind, fields=fields, ctx=ctx))

    def span(
        self,
        kind: str,
        parent: SpanContext | None,
        start: float,
        end: float,
        **fields,
    ) -> SpanContext | None:
        """Emit one closed child span (completion event: ``ts=end``, ``latency``).

        Convenience for the common "I just finished a phase under this
        request" site: allocates the child context, stamps the interval,
        and returns the child (callers rarely need it).  No-op when the
        recorder is off or ``parent`` is ``None``.
        """
        ctx = self.start_span(parent)
        if ctx is None:
            return None
        self.emit(kind, ts=end, ctx=ctx, latency=end - start, **fields)
        return ctx

    # -- state transfer ----------------------------------------------------
    def export_state(self) -> dict:
        """JSON/pickle-friendly payload of the whole buffer (see merge)."""
        return {
            "events": [
                (
                    ev.ts,
                    ev.kind,
                    dict(ev.fields),
                    None
                    if ev.ctx is None
                    else (ev.ctx.trace_id, ev.ctx.span_id, ev.ctx.parent_id),
                )
                for ev in self.events
            ],
            "dropped": self.dropped,
            "next_id": self._next_id,
        }

    def merge_state(self, state: dict) -> None:
        """Append an :meth:`export_state` payload, respecting capacity.

        Span ids are merged verbatim (each worker's buffer is internally
        consistent); the local counter advances past the payload's so ids
        allocated *after* a merge never collide with merged ones.
        """
        for ts, kind, fields, ctx in state["events"]:
            if self.capacity is not None and len(self.events) >= self.capacity:
                self.dropped += 1
                continue
            span_ctx = None if ctx is None else SpanContext(*ctx)
            self.events.append(
                TraceEvent(ts=ts, kind=kind, fields=fields, ctx=span_ctx)
            )
        self.dropped += state["dropped"]
        self._next_id = max(self._next_id, state.get("next_id", 1))

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def kinds(self) -> dict[str, int]:
        """Event count per kind tag (quick trace summary)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    # -- export ------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The whole buffer as JSON-Lines text (one event per line)."""
        return "\n".join(json.dumps(ev.to_dict()) for ev in self.events)

    def dump_jsonl(self, path) -> int:
        """Atomically write the buffer to ``path`` as JSONL; returns the count."""
        text = self.to_jsonl()
        write_atomic(path, text + "\n" if text else "", prefix=".trace-")
        return len(self.events)


#: The process-wide default recorder every instrumented site emits to.
#: Disabled at import time — enable with ``repro.telemetry.enable(tracing=True)``.
TRACER = TraceRecorder(enabled=False)
