"""Open-loop workload generation against the object store (YCSB-style).

The generator is **open-loop by default**: request arrival times are a
Poisson process at the target rate, drawn *one arrival ahead* from the
workload seed, and every request's latency is measured from its **intended
arrival time** — not from when a worker got around to dispatching it.
That distinction is the classic *coordinated omission* trap: a
closed-loop driver (fixed worker pool, next request only after the last
completes) silently stops sending while the system is slow, so the slow
period contributes one sample instead of the hundreds a real user
population would have experienced.  Open-loop arrivals keep sending on
schedule, which makes queueing delay — and therefore the p99/p999 the
SLO cares about — real.

``mode="closed"`` is available for exactly that comparison: a fixed pool
of workers issuing back-to-back requests, latency measured from
dispatch.  Its percentiles are *service* time under self-throttled load,
not user-visible response time; ``docs/serving.md`` walks through the
difference.

Everything is deterministic: one ``numpy`` Generator seeded from the
spec draws the schedule (times, op mix, key ranks) in a fixed order, and
the simulator breaks ties by scheduling order — the same seed replays
byte-identically.  Each open-loop arrival starts at its absolute time
and, on firing, draws and books the next one, so the run holds
in-flight work plus one arrival rather than every offered request.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from itertools import chain, islice

import numpy as np

from ..chaos.faults import ChaosConfig
from ..cluster.events import FIFOResource
from ..telemetry import METRICS, SNAPSHOTS, nearest_rank, serving_buckets
from .store import ObjectStore, ServerConfig

#: ms-scale 1-2-5 bucket ladder every ``server.latency.*`` histogram uses
#: (built once: the registry keeps first-registration buckets anyway)
SERVING_BUCKETS = serving_buckets()

__all__ = [
    "DISTRIBUTIONS",
    "WorkloadSpec",
    "Arrival",
    "generate_arrivals",
    "ServingResult",
    "run_serving",
]

DISTRIBUTIONS = ("zipfian", "latest", "uniform")


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs of one serving workload (the YCSB-shaped surface).

    Attributes
    ----------
    target_ops:
        Offered load in operations per second (the Poisson rate).
    duration:
        Simulated seconds of arrivals.
    read_fraction:
        Probability each operation is a get (the rest are puts).
    distribution:
        Key popularity: ``zipfian`` (rank-frequency with
        :attr:`zipf_theta`), ``latest`` (zipfian over recency — the most
        recently *written* keys are hottest), ``uniform``.
    zipf_theta:
        Zipfian skew (YCSB's default 0.99).
    num_objects:
        Working-set size preloaded before the clock starts.
    object_size:
        Bytes per object (``None`` = exactly one stripe).
    seed:
        Drives the whole arrival schedule *and* the store's failure
        injector; same seed → byte-identical replay.
    connections:
        Optional frontend connection pool: at most this many requests in
        service at once (arrivals past the limit queue, which is where
        open-loop latency diverges from service time).  ``None`` =
        unbounded.
    mode:
        ``open`` (default) or ``closed`` (fixed worker pool, see module
        docstring).
    workers:
        Closed-loop pool size (ignored in open mode).
    """

    target_ops: float = 200.0
    duration: float = 10.0
    read_fraction: float = 0.95
    distribution: str = "zipfian"
    zipf_theta: float = 0.99
    num_objects: int = 64
    object_size: float | None = None
    seed: int = 7
    connections: int | None = None
    mode: str = "open"
    workers: int = 8

    def __post_init__(self):
        if self.target_ops <= 0:
            raise ValueError("target_ops must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.read_fraction <= 1:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; pick from {DISTRIBUTIONS}"
            )
        if self.num_objects < 1:
            raise ValueError("need at least one object")
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', got {self.mode!r}")
        if self.connections is not None and self.connections < 1:
            raise ValueError("connections must be at least 1 (or None)")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, what, and which popularity rank.

    ``rank`` is a *popularity rank* (0 = hottest), resolved to a key at
    dispatch time — identity order for zipfian/uniform, recency order
    (most recently written first) for ``latest``.
    """

    time: float
    op: str  # "get" | "put"
    rank: int


def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    """Cumulative rank-popularity for a zipfian(θ) over ``n`` items."""
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), theta)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _schedule(spec: WorkloadSpec) -> Iterator[tuple[float, str, int]]:
    """The request schedule as ``(time, op, rank)``, drawn one at a time.

    Inter-arrival gaps are exponential(1/target_ops) — a Poisson process
    — and every random draw (gap, op type, key rank) comes from one
    seeded generator in a fixed order, so the schedule is a pure function
    of the spec.
    """
    rng = np.random.default_rng(spec.seed)
    exponential, random, integers = rng.exponential, rng.random, rng.integers
    cdf = None
    if spec.distribution in ("zipfian", "latest"):
        cdf = _zipf_cdf(spec.num_objects, spec.zipf_theta).tolist()
    mean_gap, duration, read_fraction = 1.0 / spec.target_ops, spec.duration, spec.read_fraction
    n, t = spec.num_objects, 0.0
    while True:
        t += float(exponential(mean_gap))
        if t >= duration:
            return
        op = "get" if float(random()) < read_fraction else "put"
        if cdf is not None:
            rank = min(bisect_right(cdf, float(random())), n - 1)
        else:
            rank = int(integers(n))
        yield t, op, rank


def generate_arrivals(spec: WorkloadSpec) -> list[Arrival]:
    """The full deterministic request schedule for one workload: the
    arrivals :func:`run_serving` draws one at a time, as a list."""
    return [Arrival(*a) for a in _schedule(spec)]


def _exact_percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile over the raw samples (no bucketing)."""
    return nearest_rank(sorted(samples), q)


def _latency_summary(samples: list[float]) -> dict:
    """count/mean/p50/p99/p999/max over exact samples (SLO accounting)."""
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0, "max": 0.0}
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": _exact_percentile(samples, 0.50),
        "p99": _exact_percentile(samples, 0.99),
        "p999": _exact_percentile(samples, 0.999),
        "max": max(samples),
    }


@dataclass
class ServingResult:
    """Everything one serving run produced (exact latency samples kept).

    Latency lists hold *end-to-end* response times: intended arrival →
    completion in open mode (coordinated-omission-free), dispatch →
    completion in closed mode.  ``degraded_latencies`` is the subset of
    get latencies whose object had at least one lost chunk at dispatch.
    """

    scheme: str
    spec: WorkloadSpec
    offered: int = 0
    completed: int = 0
    failed: int = 0
    get_latencies: list[float] = field(default_factory=list)
    put_latencies: list[float] = field(default_factory=list)
    degraded_latencies: list[float] = field(default_factory=list)
    repair_latencies: list[float] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    unrecoverable: list = field(default_factory=list)
    sim_time: float = 0.0
    chaos: dict | None = None

    @property
    def achieved_ops(self) -> float:
        """Completed operations per simulated second."""
        return self.completed / self.sim_time if self.sim_time > 0 else 0.0

    def percentile(self, which: str, q: float) -> float:
        """Exact latency percentile for ``get``/``put``/``degraded_read``/``repair``."""
        samples = {
            "get": self.get_latencies,
            "put": self.put_latencies,
            "degraded": self.degraded_latencies,
            "degraded_read": self.degraded_latencies,
            "repair": self.repair_latencies,
        }[which]
        return _exact_percentile(samples, q)

    def to_dict(self) -> dict:
        """The ``serving`` section of a ``repro.report/v1`` report."""
        return {
            "scheme": self.scheme,
            "workload": asdict(self.spec),
            "offered": self.offered,
            "completed": self.completed,
            "failed": self.failed,
            "achieved_ops": self.achieved_ops,
            "sim_time": self.sim_time,
            "latency": {
                "get": _latency_summary(self.get_latencies),
                "put": _latency_summary(self.put_latencies),
                "degraded_read": _latency_summary(self.degraded_latencies),
                "repair": _latency_summary(self.repair_latencies),
            },
            "counts": dict(self.stats),
            "unrecoverable": list(self.unrecoverable),
            "chaos": self.chaos,
        }

    def render(self) -> str:
        """Human-readable SLO table."""
        from ..experiments.runner import format_table

        rows = []
        for label, samples in (
            ("get", self.get_latencies),
            ("put", self.put_latencies),
            ("degraded read", self.degraded_latencies),
            ("repair", self.repair_latencies),
        ):
            s = _latency_summary(samples)
            rows.append(
                [label, s["count"], s["mean"], s["p50"], s["p99"], s["p999"], s["max"]]
            )
        table = format_table(
            ["op", "count", "mean (s)", "p50", "p99", "p999", "max"],
            rows,
            title=(
                f"serving [{self.scheme}] {self.spec.mode}-loop "
                f"{self.spec.distribution} target={self.spec.target_ops:g} ops/s "
                f"achieved={self.achieved_ops:.1f} ops/s "
                f"(offered {self.offered}, failed {self.failed})"
            ),
        )
        extras = (
            f"degraded reads: {self.stats.get('degraded_reads', 0)}  "
            f"piggybacked: {self.stats.get('piggybacked_reads', 0)}  "
            f"chunk failures: {self.stats.get('chunk_failures', 0)}  "
            f"repairs: {self.stats.get('repairs', 0)}  "
            f"unrecoverable: {len(self.unrecoverable)}"
        )
        return table + "\n" + extras


def _attach_snapshots(store: ObjectStore, result: ServingResult) -> None:
    """Sim-time probes for the serving run (read-only, daemon-sampled)."""
    scheduler = store.cluster.scheduler
    probes = {
        "completed_ops": lambda: float(result.completed),
        "degraded_outstanding": lambda: float(len(store.failed_blocks)),
        "repair_queue_depth": lambda: float(scheduler.queue_depth),
        "nic_in_flight": lambda: float(
            sum(n.nic.queue_depth for n in store.cluster.nodes)
        ),
    }
    SNAPSHOTS.sample_into(store.sim, f"serve/{store.scheme.name}", probes)


class _Offered:
    """One offered request, from its arrival (or dispatch) to its
    completion callback."""

    __slots__ = ("drive", "op", "rank", "started_at", "key")

    def __init__(self, drive: "_Drive", op: str, rank: int, started_at: float):
        self.drive = drive
        self.op = op
        self.rank = rank
        self.started_at = started_at

    def start(self, _grant=None) -> None:
        """Resolve the key and start the operation (also the connection
        pool's grant callback)."""
        drive = self.drive
        if drive.spec.distribution == "latest":
            self.key = drive.recency[len(drive.recency) - 1 - self.rank]
        else:
            self.key = drive.keys[self.rank]
        if self.op == "get":
            drive.store.get_cb(self.key, self.served)
        else:
            drive.store.put_cb(self.key, drive.spec.object_size, self.served)

    def served(self, facts: dict | None, exc: BaseException | None) -> None:
        """Account the finished request, then free its connection (open
        loop) or start the worker's next request (closed loop)."""
        drive = self.drive
        result = drive.result
        op = self.op
        if exc is not None:  # the store hands over typed failures only
            result.failed += 1
            if METRICS.enabled:
                METRICS.counter("server.requests.failed", unit="requests").inc()
        else:
            if op == "put":
                drive.recency.remove(self.key)
                drive.recency.append(self.key)
            latency = drive.sim.now - self.started_at
            result.completed += 1
            if op == "get":
                result.get_latencies.append(latency)
                if facts["degraded"]:
                    result.degraded_latencies.append(latency)
                    if METRICS.enabled:
                        METRICS.histogram(
                            "server.latency.degraded_read",
                            unit="s",
                            buckets=SERVING_BUCKETS,
                        ).observe(latency)
            else:
                result.put_latencies.append(latency)
            if METRICS.enabled:
                METRICS.histogram(
                    f"server.latency.{op}", unit="s", buckets=SERVING_BUCKETS
                ).observe(latency)
        if drive.spec.mode == "closed":
            drive.next_closed()
        elif drive.pool is not None:
            drive.pool.release()


class _Drive:
    """The request chain of one :func:`run_serving` call.

    Open loop: each arrival is one absolute-time entry that, on firing,
    draws and books the next arrival *first*, then takes a connection (one
    grant entry when a pool is configured) and starts its operation.
    Closed loop: each worker starts with one zero-delay entry and takes
    its next arrival from the previous one's completion callback.  Either
    way an arrival is counted offered when it is taken from the schedule.
    """

    def __init__(
        self,
        store: ObjectStore,
        spec: WorkloadSpec,
        result: ServingResult,
        keys: list[str],
        pool: FIFOResource | None,
        schedule: Iterator[tuple[float, str, int]],
    ):
        self.store = store
        self.sim = store.sim
        self.spec = spec
        self.result = result
        self.keys = keys
        #: most-recently-written last; ``latest`` reads it back to front
        self.recency: list[str] = list(keys)
        self.pool = pool
        self.schedule = schedule

    def arrive(self, drawn: tuple[float, str, int]) -> None:
        # The arrival chain: the heap holds in-flight work plus one drawn
        # arrival, not the whole offered schedule.
        following = next(self.schedule, None)
        if following is not None:
            self.sim.call_at(following[0], self.arrive, following)
        self.result.offered += 1
        # Latency clock starts at the INTENDED arrival, before any queueing
        # for a connection — the coordinated-omission-free measurement.
        t, op, rank = drawn
        request = _Offered(self, op, rank, t)
        if self.pool is not None:
            self.pool.acquire().wait(request.start)
        else:
            request.start()

    def next_closed(self, _arg=None) -> None:
        drawn = next(self.schedule, None)
        if drawn is not None:
            self.result.offered += 1
            # Closed loop: the clock starts at dispatch — by construction
            # this hides queueing the worker itself caused by not sending.
            _Offered(self, drawn[1], drawn[2], self.sim.now).start()


def run_serving(
    spec: WorkloadSpec,
    config: ServerConfig | None = None,
    chaos: ChaosConfig | None = None,
) -> ServingResult:
    """Drive one seeded workload against a fresh store; returns the result.

    Builds the store, preloads the working set, optionally overlays a
    chaos campaign, arms the failure injector, replays the arrival
    schedule as it draws it, and collects SLO-grade latency.  Two independent
    seeds keep concerns separate: ``spec.seed`` owns the workload and
    injector draws, ``chaos.seed`` (when given) owns the fault schedule.
    """
    config = config or ServerConfig()
    store = ObjectStore(config, seed=spec.seed)
    result = ServingResult(scheme=store.scheme.name, spec=spec)
    keys = store.preload(spec.num_objects, spec.object_size)
    if chaos is not None:
        store.attach_chaos(chaos, horizon=spec.duration)
    store.start_failure_injector()
    sim = store.sim
    if SNAPSHOTS.enabled:
        _attach_snapshots(store, result)

    pool = (
        FIFOResource(sim, name="frontend-conns", capacity=spec.connections)
        if spec.connections is not None
        else None
    )
    schedule = _schedule(spec)
    if spec.mode != "open":
        # peek at most one arrival per worker: a worker starts only if
        # there is an arrival for it
        ahead = list(islice(schedule, spec.workers))
        schedule = chain(ahead, schedule)
    drive = _Drive(store, spec, result, keys, pool, schedule)
    if spec.mode == "open":
        first = next(schedule, None)
        if first is not None:
            sim.call_at(first[0], drive.arrive, first)
    else:
        for _ in ahead:
            sim.call_later(0.0, drive.next_closed)
    sim.run()

    result.sim_time = sim.now
    result.repair_latencies = list(store.repair_latencies)
    result.stats = dict(store.stats)
    result.unrecoverable = list(store.unrecoverable)
    if store.chaos_engine is not None:
        result.chaos = store.chaos_engine.summary()
    if METRICS.enabled:
        METRICS.gauge("server.achieved_ops", unit="ops/s").set(result.achieved_ops)
    return result
