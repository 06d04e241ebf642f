"""The object-store façade: put/get/delete over the simulated cluster.

This is the serving layer ROADMAP item 1 calls for — the piece that turns
"latency of one reconstruction" into "p99 of a user request".  An
:class:`ObjectStore` maps named objects onto stripes (object → stripes →
chunks), places each stripe through the namenode, and executes every
operation against the same discrete-event substrate the figure
experiments use:

* **put** — each stripe of the object is encoded and written through a
  frontend client (full-stripe writes, HDFS write-once semantics);
* **get** — healthy data chunks stream back in one fan-out read; chunks
  that are currently lost take the *degraded-read* path: ride the repair
  already rebuilding them (:meth:`RecoveryScheduler.ride`) or, when no
  such job is in flight, reconstruct just for this read;
* **delete** — a namenode metadata operation; no data I/O.

Background repair is the cluster's own risk-ordered
:class:`~repro.cluster.RecoveryScheduler`; a seeded Poisson chunk-failure
injector (and/or a chaos profile attached with :meth:`attach_chaos`)
provides the erasures.  Everything shares one simulated clock, so
foreground requests genuinely queue behind repair traffic.

:class:`AsyncObjectStore` wraps the store in ``async`` methods: each
awaited operation drives the shared simulator one event at a time
(:meth:`~repro.cluster.events.Simulator.step`), yielding to the asyncio
loop between events, so the façade is usable from ordinary ``await``
code while staying deterministic for a fixed seed and call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..chaos.faults import ChaosConfig, PartitionError
from ..cluster.client import Client, DeadNodeError
from ..cluster.cluster import Cluster, ClusterConfig
from ..cluster.events import Event
from ..cluster.recovery import _Conversion, _Repair, _split_plans
from ..fusion.costmodel import SystemProfile
from ..hybrid.planners import SchemePlanner
from ..hybrid.plans import OpPlan, PlanKind
from ..telemetry import METRICS, TRACER, serving_buckets

if TYPE_CHECKING:
    from ..chaos.engine import ChaosEngine

__all__ = ["ServerConfig", "ObjectMeta", "ObjectStore", "AsyncObjectStore"]

#: Schemes the server can front (same contenders as the figure experiments).
SERVER_SCHEMES = ("RS", "MSR", "LRC", "HACFS", "EC-Fusion")

#: ms-scale 1-2-5 latency buckets for every ``server.service.*`` histogram
SERVING_BUCKETS = serving_buckets()


@dataclass(frozen=True)
class ServerConfig:
    """Shape of the serving cluster and its striping policy.

    The defaults are sized for *request serving*, not figure replay: a
    256 KiB chunk keeps a single object transfer well under the 1 Gbps
    frontend NIC's second-scale territory, and six frontends spread the
    coordinator funnel so ~500 ops/s is actually attainable (one
    frontend NIC at 125 MB/s caps out near 115 one-stripe gets/s).

    Attributes
    ----------
    scheme:
        One of ``RS``/``MSR``/``LRC``/``HACFS``/``EC-Fusion``.
    k, r:
        Stripe shape (data/parity chunks).
    chunk_size:
        Bytes per chunk (the serving γ); objects stripe across
        ``k · chunk_size`` bytes per stripe.
    num_nodes, racks:
        Cluster size and failure domains (rack-aware placement).
    frontends:
        Independent client coordinators; requests round-robin across
        them, so this is the store's aggregate ingest/egress width.
    failure_rate:
        Expected chunk failures per simulated second injected by the
        seeded Poisson failure process (0 disables injection; a chaos
        profile can still supply faults).
    pipeline_chunk:
        Optional ECPipe-style repair chunking (bytes), as in
        :class:`~repro.cluster.ClusterConfig`.
    """

    scheme: str = "EC-Fusion"
    k: int = 4
    r: int = 2
    chunk_size: float = 256 * 1024.0
    num_nodes: int = 12
    racks: int = 3
    frontends: int = 6
    failure_rate: float = 0.0
    pipeline_chunk: float | None = None
    max_repairs_per_node: int = 2

    def __post_init__(self):
        if self.scheme not in SERVER_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick from {SERVER_SCHEMES}")
        if self.k < 2 or self.r < 1:
            raise ValueError("need k >= 2 data and r >= 1 parity chunks")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.frontends < 1:
            raise ValueError("at least one frontend required")
        if self.failure_rate < 0:
            raise ValueError("failure_rate must be non-negative")

    @property
    def profile(self) -> SystemProfile:
        """Platform constants with γ pinned to the serving chunk size."""
        return SystemProfile().with_gamma(self.chunk_size)

    @property
    def stripe_bytes(self) -> float:
        """User bytes per stripe."""
        return self.k * self.chunk_size

    def cluster_config(self) -> ClusterConfig:
        """The matching cluster shape (repair scheduler always on)."""
        return ClusterConfig(
            num_nodes=self.num_nodes,
            profile=self.profile,
            racks=self.racks,
            repair_scheduler=True,
            pipeline_chunk=self.pipeline_chunk,
            max_repairs_per_node=self.max_repairs_per_node,
        )

    def make_scheme(self) -> SchemePlanner:
        """A fresh planner instance for :attr:`scheme` at the serving γ."""
        from ..hybrid import make_planner

        return make_planner(
            self.scheme, self.k, self.r, self.chunk_size, profile=self.profile
        )


@dataclass(frozen=True)
class ObjectMeta:
    """Namenode-side record of one stored object."""

    key: str
    size: float
    stripes: tuple[int, ...]
    created: float


class ObjectStore:
    """Striped objects over the simulated cluster (see module docstring).

    Operations are *callback chains* against the store's simulator:
    ``get_cb`` / ``put_cb`` / ``delete_cb`` start one and it ends in
    ``done(facts, exc)``.  ``get_op`` / ``put_op`` / ``delete_op`` are
    their generator adapters: drive them with ``yield from`` inside
    another process, with ``sim.process(...)`` + ``sim.run()``, or
    through :class:`AsyncObjectStore`.  The facts are a small dict about
    the completed operation (``latency``, and for gets ``degraded`` /
    ``piggybacked``).
    """

    def __init__(self, config: ServerConfig | None = None, seed: int = 0):
        self.config = config or ServerConfig()
        self.scheme = self.config.make_scheme()
        self.cluster = Cluster(self.config.cluster_config(), width=self.scheme.width)
        self.sim = self.cluster.sim
        p = self.cluster.config.profile
        #: client coordinators requests round-robin across; the cluster's
        #: own client is frontend 0 so single-frontend stores match it
        self.frontends: list[Client] = [self.cluster.client] + [
            Client(self.sim, self.cluster.executor, p)
            for _ in range(self.config.frontends - 1)
        ]
        #: seconds per namenode round trip, charged to every operation
        self.metadata_latency = p.net_latency
        self._rr = 0
        #: a get with nothing lost reads every data slot: one shared plan
        self._data_slots = list(range(self.config.k))
        self._full_read = OpPlan(
            kind=PlanKind.READ,
            reads={b: self.config.chunk_size for b in self._data_slots},
        )
        #: ... and one per pattern of lost data slots (see ``_partial_read``)
        self._partial_reads: dict[tuple, tuple[list, OpPlan]] = {}
        #: chunks currently lost ((stripe, block)); the scheduler reads it
        #: for risk ordering, gets consult it for the degraded path
        self.failed_blocks: set[tuple] = set()
        assert self.cluster.scheduler is not None  # repair_scheduler=True
        self.cluster.scheduler.failed_blocks = self.failed_blocks
        self.objects: dict[str, ObjectMeta] = {}
        self._next_stripe = 0
        self._rng = np.random.default_rng(seed)
        self.chaos_engine: ChaosEngine | None = None
        # served/latency accounting (exact samples; histograms are coarse)
        self.stats = {
            "puts": 0,
            "gets": 0,
            "deletes": 0,
            "degraded_reads": 0,
            "piggybacked_reads": 0,
            "chunk_failures": 0,
            "repairs": 0,
        }
        self.repair_latencies: list[float] = []
        self.conversion_latencies: list[float] = []
        #: chunks the store gave up repairing (stripe/block/reason/time)
        self.unrecoverable: list[dict] = []

    # -- plumbing ------------------------------------------------------------
    def _frontend(self) -> Client:
        client = self.frontends[self._rr]
        self._rr = (self._rr + 1) % len(self.frontends)
        return client

    def _partial_read(self, lost: list[int]) -> tuple[list, OpPlan]:
        """(readable data slots, their fan-out plan) around the sorted
        ``lost`` slots — built once per pattern."""
        key = tuple(lost)
        entry = self._partial_reads.get(key)
        if entry is None:
            healthy = [b for b in self._data_slots if b not in lost]
            fanout = OpPlan(
                kind=PlanKind.READ, reads={b: self.config.chunk_size for b in healthy}
            )
            entry = self._partial_reads[key] = (healthy, fanout)
        return entry

    def _alloc_stripe(self) -> int:
        stripe = self._next_stripe
        self._next_stripe += 1
        self.cluster.namenode.lookup(stripe)  # pin placement now
        return stripe

    def _forget(self, meta: ObjectMeta) -> None:
        """Drop an object's stripes (ids are never reused)."""
        gone = set(meta.stripes)
        self.failed_blocks.difference_update(
            {fb for fb in self.failed_blocks if fb[0] in gone}
        )

    # -- operations ----------------------------------------------------------
    # Each operation is a chain of callbacks over one ``_Request`` (the
    # ``*_cb`` methods); ``put_op`` / ``get_op`` / ``delete_op`` are the
    # generator adapters for callers that are processes.

    def put_cb(self, key: str, size: float | None, done: Callable) -> None:
        """Store (or overwrite) ``key``, then ``done({"latency": ...}, None)``.

        The object stripes across ``ceil(size / (k·chunk_size))`` fresh
        stripes — overwrites allocate new stripes and retire the old ones,
        so a rewrite never races the repair of a chunk it just replaced.
        A chunk access that fails with :class:`DeadNodeError` or
        :class:`~repro.chaos.PartitionError` ends the chain in
        ``done(None, exc)``; any other error raises out of the simulator.
        """
        size = float(size) if size is not None else self.config.stripe_bytes
        if size <= 0:
            raise ValueError("object size must be positive")
        request = _Request(self, key, done)
        request.size = size
        self.sim.call_later(self.metadata_latency, _Request.put_begin, request)

    def get_cb(self, key: str, done: Callable) -> None:
        """Read the whole object behind ``key``, then ``done(facts, None)``.

        ``facts`` is ``{"latency", "degraded", "piggybacked"}`` — a get is
        *degraded* when any of its chunks was lost at dispatch time, and
        ``piggybacked`` counts chunks served by riding in-flight repairs.
        Failures end the chain as in :meth:`put_cb`.
        """
        meta = self.objects.get(key)
        if meta is None:
            raise KeyError(f"no object {key!r}")
        request = _Request(self, key, done)
        request.stripes = meta.stripes
        self.sim.call_later(self.metadata_latency, _Request.get_begin, request)

    def delete_cb(self, key: str, done: Callable) -> None:
        """Unlink ``key`` — a pure namenode metadata operation (no data
        I/O) — then ``done({"latency": ...}, None)``."""
        if key not in self.objects:
            raise KeyError(f"no object {key!r}")
        request = _Request(self, key, done)
        self.sim.call_later(self.metadata_latency, _Request.delete_end, request)

    def put_op(self, key: str, size: float | None = None):
        """Generator adapter of :meth:`put_cb`; returns its facts."""
        outcome = Event(self.sim)
        self.put_cb(key, size, outcome.settle)
        return (yield outcome)

    def get_op(self, key: str):
        """Generator adapter of :meth:`get_cb`; returns its facts."""
        outcome = Event(self.sim)
        self.get_cb(key, outcome.settle)
        return (yield outcome)

    def delete_op(self, key: str):
        """Generator adapter of :meth:`delete_cb`; returns its facts."""
        outcome = Event(self.sim)
        self.delete_cb(key, outcome.settle)
        return (yield outcome)

    # -- preload -------------------------------------------------------------
    def preload(
        self, num_objects: int, object_size: float | None = None, prefix: str = "obj-"
    ) -> list[str]:
        """Register ``num_objects`` objects instantly (no simulated I/O).

        The working set a load generator reads from has to exist before
        the clock starts; preloading registers placements and metadata at
        t=0 rather than simulating a bulk ingest nobody measures.
        """
        size = float(object_size) if object_size is not None else self.config.stripe_bytes
        nstripes = max(1, math.ceil(size / self.config.stripe_bytes))
        keys = []
        for i in range(num_objects):
            key = f"{prefix}{i:05d}"
            stripes = tuple(self._alloc_stripe() for _ in range(nstripes))
            self.objects[key] = ObjectMeta(
                key=key, size=size, stripes=stripes, created=self.sim.now
            )
            keys.append(key)
        return keys

    # -- background failure + repair ----------------------------------------
    # A repair is the chain the campaign runs too
    # (:class:`~repro.cluster.recovery._Repair`), started from a zero-delay
    # kick-off entry; so is the failure injector (daemon entries: a
    # kick-off, then one per exponential gap).

    def _repair(self, stripe: int, block: int):
        """One supervised reconstruction through the risk-ordered scheduler,
        as a generator.  A repair that gives up is reported in
        :attr:`unrecoverable`, not raised."""
        outcome = Event(self.sim)
        _Repair(self, stripe, block, outcome.settle).start()
        yield outcome

    def _lose(self, stripe: int, block: int) -> None:
        """Mark the chunk lost and repair it from a zero-delay entry of its
        own."""
        self.failed_blocks.add((stripe, block))
        self.sim.call_later(0.0, _Repair.start, _Repair(self, stripe, block))

    def _inject_one_failure(self) -> bool:
        """Lose one random data chunk (within erasure tolerance)."""
        live = [s for meta in self.objects.values() for s in meta.stripes]
        if not live:
            return False
        stripe = live[int(self._rng.integers(len(live)))]
        block = int(self._rng.integers(self.config.k))
        if (stripe, block) in self.failed_blocks:
            return False
        erasures = sum(1 for s, _b in self.failed_blocks if s == stripe)
        if erasures >= self.config.r:
            return False  # never exceed what the code tolerates
        self.stats["chunk_failures"] += 1
        if METRICS.enabled:
            METRICS.counter("server.chunk_failures", unit="chunks").inc()
        if TRACER.enabled:
            TRACER.emit("chunk-failure", ts=self.sim.now, stripe=stripe, block=block)
        self._lose(stripe, block)
        return True

    def start_failure_injector(self) -> None:
        """Arm the seeded Poisson chunk-failure process (a daemon).

        Failures fire only while foreground work keeps the simulation
        alive, so the injector never extends a run on its own.
        """
        if self.config.failure_rate > 0:
            self.sim.call_later(0.0, ObjectStore._next_failure, self, daemon=True)

    def _next_failure(self) -> None:
        gap = float(self._rng.exponential(1.0 / self.config.failure_rate))
        self.sim.call_later(gap, ObjectStore._failure_due, self, daemon=True)

    def _failure_due(self) -> None:
        self._inject_one_failure()
        self._next_failure()

    # -- the sink of the shared chains (cluster/recovery.py) -----------------
    # Repairs, conversions and rides report here: ``server.*`` metrics, the
    # store's own lists and stats, and a causal trace per repair.
    traced = True
    LATENCY = {"conversion": "server.service.conversion", "repair": "server.service.repair"}

    def histogram(self, kind: str):
        """Sink hook: the ``server.service.*`` histogram of a chain step."""
        return _histogram(self.LATENCY[kind])

    def record_conversion(self, stripe, plans, latency: float, now: float) -> None:
        """Sink hook: one committed code conversion."""
        self.conversion_latencies.append(latency)
        if METRICS.enabled:
            METRICS.counter("server.conversions", unit="conversions").inc()

    def record_repair(self, repair, latency: float) -> None:
        """Sink hook: one landed background repair."""
        self.stats["repairs"] += 1
        self.repair_latencies.append(latency)
        if METRICS.enabled:
            METRICS.counter("server.repairs", unit="jobs").inc()
        if TRACER.enabled:
            now = self.sim.now
            TRACER.emit(
                "recovery", ts=now, ctx=repair.ctx, stripe=repair.stripe, block=repair.block,
                latency=now - repair.started, failed=False,
            )

    def report_unrecoverable(self, repair, reason: str) -> None:
        """Sink hook: a repair gave up; the chunk is reported, not hidden."""
        now, stripe, block = self.sim.now, repair.stripe, repair.block
        self.unrecoverable.append({"stripe": stripe, "block": block, "reason": reason, "time": now})
        if METRICS.enabled:
            METRICS.counter("server.repair.failures", unit="jobs").inc()
        if TRACER.enabled:
            TRACER.emit("repair-failed", ts=now, stripe=stripe, block=block, reason=reason)
            TRACER.emit(
                "recovery", ts=now, ctx=repair.ctx, stripe=stripe, block=block,
                latency=now - repair.started, failed=True,
            )

    # -- chaos ----------------------------------------------------------------
    def attach_chaos(
        self, config: ChaosConfig, horizon: float | None = None
    ) -> ChaosEngine:
        """Overlay a seeded chaos campaign on the serving cluster.

        Stragglers derate resources, partitions stall frontends and repair
        helpers, and scrubber-detected corruption feeds the same repair
        path the failure injector uses.  Attach *after* preloading so the
        schedule can target live stripes.

        ``horizon`` compresses the profile's fault window to fit a
        serving run: profiles default to a 120 s horizon, so a 10 s run
        would otherwise dodge most of the storm it asked for.
        """
        from ..chaos.engine import ChaosEngine

        if horizon is not None:
            from dataclasses import replace

            config = replace(
                config, profile=replace(config.resolved(), horizon=horizon)
            )
        engine = ChaosEngine(
            config,
            self.cluster,
            self.scheme,
            failed_blocks=self.failed_blocks,
            num_stripes=max(1, self.cluster.namenode.stripe_count),
        )
        self.cluster.executor.chaos = engine.state
        engine.on_corruption_detected = self._lose
        engine.attach()
        self.chaos_engine = engine
        return engine


def _histogram(name: str):
    """The serving histogram a ``METRICS.timer`` over ``name`` would feed
    (``None`` while metrics are off)."""
    if METRICS.enabled:
        return METRICS.histogram(name, unit="s", buckets=SERVING_BUCKETS)
    return None


class _Request:
    """One get / put / delete in flight: the state of its callback chain.

    Steps are unbound functions handed to the kernel with the request as
    their argument, and event waits register bound methods of it, so
    nothing the request holds refers back to it: it dies by refcount once
    its last entry has fired (``Simulator.run`` pauses the cyclic GC).
    The push order is the simulated result, so each step books its
    entries — and calls the planner, the repair scheduler and the
    frontend round-robin — exactly where it does (the golden digests
    pin it).
    """

    __slots__ = (
        "store", "key", "done", "start", "root", "size", "stripes", "at", "stripe",
        "t0", "hist", "degraded", "piggybacked", "lost", "lost_at", "rode", "main", "then",
    )

    def __init__(self, store: ObjectStore, key: str, done: Callable):
        self.store = store
        self.key = key
        self.done = done
        self.start = store.sim.now
        self.root = TRACER.start_trace()  # None while tracing is off
        self.at = 0

    # -- one stripe's plans ----------------------------------------------
    def serve(self, conversions: list[OpPlan], main: list[OpPlan], then: Callable) -> None:
        """Conversions first (charged to this request), then the main
        plans through a frontend, then ``then(self)``."""
        self.main, self.then = main, then
        if conversions:
            store = self.store
            journal = _Conversion(store, self.stripe, conversions, self)
            store._frontend().start_cb(conversions, self.stripe, journal.finish, self.root)
        else:
            self.submit()

    def submit(self) -> None:
        # the frontend is picked when the kick-off entry is booked
        self.store._frontend().start_cb(self.main, self.stripe, self.resume, self.root)

    def resume(self, _value=None, exc: BaseException | None = None) -> None:
        if exc is not None:
            self.fail(exc)
        else:
            self.then(self)

    def fail(self, exc: BaseException) -> None:
        """A chunk access failed: typed failures end the request, anything
        else is a bug and raises out of the simulator."""
        if not isinstance(exc, (PartitionError, DeadNodeError)):
            raise exc
        self.done(None, exc)

    # -- put ---------------------------------------------------------------
    def put_begin(self) -> None:
        store = self.store
        nstripes = max(1, math.ceil(self.size / store.config.stripe_bytes))
        self.stripes = tuple(store._alloc_stripe() for _ in range(nstripes))
        self.t0, self.hist = store.sim.now, _histogram("server.service.put")
        self.put_stripe()

    def put_stripe(self) -> None:
        if self.at == len(self.stripes):
            self.put_end()
            return
        stripe = self.stripe = self.stripes[self.at]
        self.at += 1
        conversions, main = _split_plans(self.store.scheme.plan_write(stripe))
        self.serve(conversions, main, _Request.put_stripe)

    def put_end(self) -> None:
        store = self.store
        now = store.sim.now
        if self.hist is not None:
            self.hist.observe(now - self.t0)
        old = store.objects.get(self.key)
        if old is not None:
            store._forget(old)
        store.objects[self.key] = ObjectMeta(
            key=self.key, size=self.size, stripes=self.stripes, created=now
        )
        store.stats["puts"] += 1
        latency = now - self.start
        if METRICS.enabled:
            METRICS.counter("server.requests.put", unit="requests").inc()
        if TRACER.enabled:
            TRACER.emit(
                "request",
                ts=now,
                ctx=self.root,
                op="put",
                key=self.key,
                stripes=len(self.stripes),
                latency=latency,
            )
        self.done({"latency": latency}, None)

    # -- get ---------------------------------------------------------------
    def get_begin(self) -> None:
        self.degraded, self.piggybacked = False, 0
        self.t0, self.hist = self.store.sim.now, _histogram("server.service.get")
        self.get_stripe()

    def get_stripe(self) -> None:
        if self.at == len(self.stripes):
            self.get_end()
            return
        store = self.store
        stripe = self.stripe = self.stripes[self.at]
        self.at += 1
        k = store.config.k
        nodes = store.cluster.nodes
        chaos_state = store.cluster.executor.chaos
        # A chunk is unreadable when it is erased *or* its node is
        # currently unreachable — reconstruct around a partition instead
        # of stalling the whole get on one dark node.
        placement = store.cluster.namenode.lookup(stripe).placement
        lost = set()
        if store.failed_blocks:
            lost = {b for s, b in store.failed_blocks if s == stripe and b < k}
        for b in range(k):
            node = placement[b]
            if not nodes[node].alive or (
                chaos_state is not None and chaos_state.is_partitioned(node)
            ):
                lost.add(b)
        self.lost = sorted(lost)
        self.lost_at = 0
        if lost:
            self.degraded = True
            store.stats["degraded_reads"] += 1
            if METRICS.enabled:
                METRICS.counter("server.degraded_reads", unit="requests").inc()
        self.get_lost()

    def get_lost(self) -> None:
        """Degraded read of the next lost data chunk: ride the repair job
        already rebuilding it (:meth:`RecoveryScheduler.ride_cb`, the
        campaign's ride step too; a queued job gets boosted), or
        reconstruct just for this read when there is none."""
        if self.lost_at == len(self.lost):
            self.get_healthy()
            return
        store, block = self.store, self.lost[self.lost_at]
        if not store.cluster.scheduler.ride_cb(
            store.scheme, self.stripe, block, self.reconstruct, self.root
        ):
            self.reconstruct(store.scheme.plan_degraded_read(self.stripe, block), False)

    def reconstruct(self, plans: list[OpPlan], rode: bool) -> None:
        self.rode = rode
        conversions, main = _split_plans(plans)
        self.serve(conversions, main, _Request.lost_served)

    def lost_served(self) -> None:
        if self.rode:
            self.piggybacked += 1
            self.store.stats["piggybacked_reads"] += 1
            if METRICS.enabled:
                METRICS.counter("server.piggybacked_reads", unit="requests").inc()
        self.lost_at += 1
        self.get_lost()

    def get_healthy(self) -> None:
        """One fan-out read of the stripe's readable data chunks."""
        store = self.store
        healthy, fanout = store._data_slots, store._full_read
        if self.lost:
            healthy, fanout = store._partial_read(self.lost)
        if not healthy:
            self.get_stripe()
            return
        # planner hook first: adaptive schemes track read heat (and may
        # demand a conversion) via plan_read
        conversions, _ = _split_plans(store.scheme.plan_read(self.stripe, healthy[0]))
        self.serve(conversions, [fanout], _Request.get_stripe)

    def get_end(self) -> None:
        store = self.store
        now = store.sim.now
        if self.hist is not None:
            self.hist.observe(now - self.t0)
        store.stats["gets"] += 1
        latency = now - self.start
        if METRICS.enabled:
            METRICS.counter("server.requests.get", unit="requests").inc()
        if TRACER.enabled:
            TRACER.emit(
                "request",
                ts=now,
                ctx=self.root,
                op="get",
                key=self.key,
                latency=latency,
                degraded=self.degraded,
                piggybacked=self.piggybacked,
            )
        self.done(
            {"latency": latency, "degraded": self.degraded, "piggybacked": self.piggybacked},
            None,
        )

    # -- delete ------------------------------------------------------------
    def delete_end(self) -> None:
        store = self.store
        meta = store.objects.pop(self.key, None)
        if meta is not None:
            store._forget(meta)
        store.stats["deletes"] += 1
        latency = store.sim.now - self.start
        if METRICS.enabled:
            METRICS.counter("server.requests.delete", unit="requests").inc()
        if TRACER.enabled:
            TRACER.emit(
                "request", ts=store.sim.now, ctx=self.root, op="delete", key=self.key,
                latency=latency,
            )
        self.done({"latency": latency}, None)


class AsyncObjectStore:
    """``async`` façade over an :class:`ObjectStore`.

    Each awaited call starts the operation as a simulator process and
    then *drives the shared clock itself*: one
    :meth:`~repro.cluster.events.Simulator.step` per asyncio tick until
    the operation's completion event fires.  Concurrent awaits interleave
    on the same clock (whoever is scheduled steps next, every step
    advances everyone's events), so ``asyncio.gather`` of several puts
    genuinely overlaps them in simulated time.
    """

    def __init__(self, store: ObjectStore | None = None, **store_kwargs):
        import asyncio  # only the async façade needs an event loop

        self.store = store if store is not None else ObjectStore(**store_kwargs)
        self.sim = self.store.sim
        self._tick = asyncio.sleep

    async def _drive(self, gen):
        proc = self.sim.process(gen)
        while not proc.triggered:
            if not self.sim.step():
                raise RuntimeError(
                    "simulation stalled before the operation completed"
                )
            await self._tick(0)  # cooperate with other awaited operations
        if proc.exc is not None:
            raise proc.exc
        return proc.value

    async def put(self, key: str, size: float | None = None) -> dict:
        """Store an object; resolves to the operation's fact dict."""
        return await self._drive(self.store.put_op(key, size))

    async def get(self, key: str) -> dict:
        """Read an object (degraded chunks included); resolves to facts."""
        return await self._drive(self.store.get_op(key))

    async def delete(self, key: str) -> dict:
        """Unlink an object."""
        return await self._drive(self.store.delete_op(key))
