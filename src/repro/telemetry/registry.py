"""Zero-dependency metrics registry: counters, gauges, fixed-bucket histograms.

The registry is *opt-in*: every instrumented site in the package guards
its recording with ``if METRICS.enabled:`` so the hot path pays a single
attribute lookup while telemetry is off (the default).  When enabled, a
metric is fetched (or lazily created) by name from one shared dictionary,
so call sites never hold references that a :func:`reset` would orphan.

Metric names are dotted paths grouped by layer, e.g.
``sim.queue_wait.disk`` or ``fusion.transform.bytes_saved``; the full
catalogue lives in ``docs/telemetry.md``.

Examples
--------
>>> reg = MetricsRegistry(enabled=True)
>>> reg.counter("demo.calls").inc()
>>> reg.counter("demo.calls").value
1.0
>>> h = reg.histogram("demo.wait", unit="s")
>>> for v in (0.001, 0.002, 0.004):
...     h.observe(v)
>>> h.count
3
"""

from __future__ import annotations

import bisect
import math
import time

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "METRICS",
    "default_buckets",
    "serving_buckets",
]


class Counter:
    """A monotonically increasing sum (calls, bytes, operations)."""

    __slots__ = ("name", "unit", "value")

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the running total."""
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def snapshot(self) -> dict:
        """Plain-dict view (stable keys: type/unit/value)."""
        return {"type": "counter", "unit": self.unit, "value": self.value}


class Gauge:
    """A point-in-time level that also remembers its high-water mark."""

    __slots__ = ("name", "unit", "value", "high_water")

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        """Record the current level; the high-water mark tracks the max."""
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def snapshot(self) -> dict:
        """Plain-dict view including the high-water mark."""
        return {
            "type": "gauge",
            "unit": self.unit,
            "value": self.value,
            "high_water": self.high_water,
        }


def default_buckets() -> list[float]:
    """Half-decade geometric bucket bounds covering 1 ns .. 1 Tunit.

    One fixed ladder serves both latencies (seconds) and volumes (bytes):
    percentile estimates are then accurate to about a factor of
    sqrt(10) ~ 3.2, which is enough to tell a microsecond queue blip from
    a millisecond stall without per-metric tuning.
    """
    bounds = []
    for decade in range(-9, 13):
        bounds.append(10.0**decade)
        bounds.append(10.0**decade * 3.1622776601683795)
    return bounds


def serving_buckets() -> list[float]:
    """1-2-5 bucket ladder for ms-scale serving latencies (in seconds).

    The half-decade :func:`default_buckets` put a ~3.2× ceiling on
    percentile error — fine for spotting a stall, too coarse to watch a
    50 ms SLO.  This ladder covers 100 µs .. 500 s in 1-2-5 steps, so a
    bucket-estimated ``p99`` over the serving band is biased high by at
    most 2.5× (and typically 2×) of the true rank value; the ``server.*``
    histograms use it by default.  Exact nearest-rank percentiles still
    come from the span analytics / ``serving`` report section — see the
    bucket-error note in ``docs/telemetry.md``.

    Examples
    --------
    >>> b = serving_buckets()
    >>> (0.001 in b, 0.002 in b, 0.005 in b, 0.05 in b)
    (True, True, True, True)
    """
    return [m * 10.0**e for e in range(-4, 3) for m in (1.0, 2.0, 5.0)]


def nearest_rank(ordered: list[float], q: float) -> float:
    """Exact nearest-rank percentile of a pre-sorted sample list.

    The nearest-rank definition: the q-quantile of n samples is the
    ``ceil(q*n)``-th smallest (1-based), i.e. the smallest sample with at
    least a fraction ``q`` of the data at or below it.  Unlike the
    ``round(q*(n-1))`` index this never interpolates past the rank — for
    100 samples p50 is the 50th value, not the 51st — and for ``n == 1``
    every quantile is the lone sample.  Empty input returns 0.0.
    """
    if not ordered:
        return 0.0
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(len(ordered) - 1, idx)]


class Histogram:
    """Fixed-bucket histogram with rank-based percentile estimates.

    Observations land in the first bucket whose upper bound is >= the
    value (one final overflow bucket catches the rest).  ``percentile``
    returns the upper bound of the bucket holding the requested rank —
    the Prometheus-style estimate, biased high by at most one bucket
    width.  Exact ``count``/``total``/``min``/``max`` are kept alongside.
    """

    __slots__ = ("name", "unit", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, unit: str = "", buckets: list[float] | None = None):
        self.name = name
        self.unit = unit
        self.bounds = sorted(buckets) if buckets else default_buckets()
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) from the bucket counts."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen > rank:
                if i < len(self.bounds):
                    return min(self.bounds[i], self.max)
                return self.max  # overflow bucket: best remaining estimate
        return self.max

    def snapshot(self) -> dict:
        """Plain-dict view with count/mean and p50/p95/p99 estimates."""
        return {
            "type": "histogram",
            "unit": self.unit,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class Timer:
    """Context manager that measures a duration against any clock.

    ``elapsed`` is always set on exit, so callers that need the duration
    for their own accounting (e.g. the simulator's latency samples) read
    it whether or not telemetry is on.  The bound histogram — ``None``
    while the registry is disabled — only receives the observation when
    the block exits cleanly; a raising block records nothing.

    Examples
    --------
    >>> h = Histogram("demo.wait", unit="s")
    >>> fake_now = iter([2.0, 5.5])
    >>> with Timer(h, clock=lambda: next(fake_now)) as t:
    ...     pass
    >>> t.elapsed
    3.5
    >>> h.count
    1
    """

    __slots__ = ("_histogram", "_clock", "_start", "elapsed")

    def __init__(self, histogram: Histogram | None, clock=None):
        self._histogram = histogram
        self._clock = clock if clock is not None else time.perf_counter
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = self._clock() - self._start
        if self._histogram is not None and exc_type is None:
            self._histogram.observe(self.elapsed)
        return False


class MetricsRegistry:
    """Named metrics with get-or-create access and an on/off switch.

    Every accessor returns the same object for the same name, so call
    sites can re-fetch by name each time (the idiomatic pattern under an
    ``if METRICS.enabled:`` guard) without losing state.

    Parameters
    ----------
    enabled:
        Initial state; the module-level :data:`METRICS` default registry
        starts disabled so library users pay nothing until they opt in.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- lifecycle ---------------------------------------------------------
    def enable(self) -> None:
        """Start recording at every instrumented site."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (existing values are kept until :meth:`reset`)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every metric (state returns to a fresh registry)."""
        self._metrics.clear()

    # -- get-or-create accessors -------------------------------------------
    def _fetch(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, unit: str = "") -> Counter:
        """The counter called ``name``, created on first use."""
        return self._fetch(name, Counter, unit=unit)

    def gauge(self, name: str, unit: str = "") -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._fetch(name, Gauge, unit=unit)

    def histogram(
        self, name: str, unit: str = "", buckets: list[float] | None = None
    ) -> Histogram:
        """The histogram called ``name``, created on first use."""
        return self._fetch(name, Histogram, unit=unit, buckets=buckets)

    def timer(
        self,
        name: str,
        unit: str = "s",
        clock=None,
        buckets: list[float] | None = None,
    ) -> Timer:
        """A :class:`Timer` feeding the histogram called ``name``.

        While the registry is disabled the timer still measures (callers
        may rely on ``elapsed``) but no histogram is created or updated,
        keeping disabled-mode recording a strict no-op.
        """
        hist = self.histogram(name, unit=unit, buckets=buckets) if self.enabled else None
        return Timer(hist, clock=clock)

    # -- state transfer ----------------------------------------------------
    def export_state(self) -> dict[str, dict]:
        """Full-fidelity state of every metric, keyed by name.

        Unlike :meth:`snapshot` (a human-oriented view with derived
        percentiles), the exported state carries everything needed to
        reconstruct each metric exactly — histogram bucket counts
        included — so a worker process can ship its registry back to the
        parent and :meth:`merge_state` can fold it in losslessly.
        """
        out: dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = {"kind": "counter", "unit": metric.unit, "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {
                    "kind": "gauge",
                    "unit": metric.unit,
                    "value": metric.value,
                    "high_water": metric.high_water,
                }
            else:
                out[name] = {
                    "kind": "histogram",
                    "unit": metric.unit,
                    "bounds": list(metric.bounds),
                    "counts": list(metric.counts),
                    "count": metric.count,
                    "total": metric.total,
                    "min": metric.min,
                    "max": metric.max,
                }
        return out

    def merge_state(self, state: dict[str, dict]) -> None:
        """Fold an :meth:`export_state` payload into this registry in place.

        Counters and histograms add; gauges take the incoming value (the
        payload is the *later* writer) and keep the max high-water mark.
        Metrics unseen here are created; existing objects are mutated in
        place so call sites holding direct references stay live.
        """
        for name in sorted(state):
            data = state[name]
            kind = data["kind"]
            if kind == "counter":
                metric = self._fetch(name, Counter, unit=data["unit"])
                metric.value += data["value"]
            elif kind == "gauge":
                metric = self._fetch(name, Gauge, unit=data["unit"])
                metric.value = data["value"]
                if data["high_water"] > metric.high_water:
                    metric.high_water = data["high_water"]
            elif kind == "histogram":
                metric = self._fetch(name, Histogram, unit=data["unit"], buckets=data["bounds"])
                if list(metric.bounds) != list(data["bounds"]):
                    raise ValueError(f"histogram {name!r} bucket bounds differ")
                for i, c in enumerate(data["counts"]):
                    metric.counts[i] += c
                metric.count += data["count"]
                metric.total += data["total"]
                if data["min"] < metric.min:
                    metric.min = data["min"]
                if data["max"] > metric.max:
                    metric.max = data["max"]
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")

    # -- queries -----------------------------------------------------------
    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The metric called ``name``, or None if never recorded."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """Every metric's plain-dict view keyed by name (JSON-friendly)."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


#: The process-wide default registry every instrumented site records to.
#: Disabled at import time — enable with ``repro.telemetry.enable()``.
METRICS = MetricsRegistry(enabled=False)
