"""Cluster assembly + the online-recovery workload driver.

This is the substitute for the paper's Hadoop/HDFS testbed (Table VI): a
configurable set of data nodes, a namenode, one application client and a
recovery manager, all sharing the discrete-event clock.  ``run_workload``
replays an application trace and a failure stream simultaneously and
returns per-request latencies — the raw material for the paper's ε₁
(application), ε₂ (recovery), ε (overall) and ζ (cost-effective) metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chaos.engine import ChaosEngine
from ..chaos.faults import ChaosConfig, PartitionError
from ..chaos.invariants import InvariantChecker
from ..fusion.costmodel import SystemProfile
from ..hybrid.planners import SchemePlanner
from ..hybrid.plans import PlanKind
from ..telemetry import METRICS, SNAPSHOTS, TRACER, nearest_rank
from ..workloads.failures import FailureEvent, NodeFailureEvent
from ..workloads.trace import OpType, Trace
from .client import Client, DeadNodeError, PlanExecutor
from .events import Event, Simulator
from .namenode import NameNode
from .network import Fabric
from .node import DataNode
from .recovery import RecoveryError, RecoveryManager, RecoveryScheduler

__all__ = ["ClusterConfig", "SimulationResult", "Cluster", "run_workload"]


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware shape of the simulated cluster (paper Table VI analogue).

    Attributes
    ----------
    num_nodes:
        Data-node count; must cover the widest stripe a scheme places.
    profile:
        The (α, λ, φ, γ) platform constants shared with the cost model.
    disk_bandwidth:
        Per-disk streaming bandwidth in bytes/s (3 TB SSD class).
    io_latency:
        Fixed seconds per disk I/O operation.
    net_latency:
        Fixed seconds per network transfer.
    """

    num_nodes: int = 18
    profile: SystemProfile = field(default_factory=SystemProfile)
    disk_bandwidth: float = 500e6
    io_latency: float = 100e-6
    net_latency: float = 200e-6
    #: rack failure domains; > 1 enables rack-aware placement
    racks: int = 1
    #: data-center failure domains; > 1 spreads racks (and therefore
    #: stripes) across DCs; must divide ``racks`` evenly
    dcs: int = 1
    #: ToR oversubscription factor: each rack's shared uplink carries only
    #: ``member_NICs / factor`` bytes/s (None = non-blocking, seed default)
    rack_oversubscription: float | None = None
    #: same one level up: each DC's interconnect to the other DCs
    dc_oversubscription: float | None = None
    #: bytes/s cap shared by all background recovery traffic (None = unthrottled)
    recovery_bandwidth_cap: float | None = None
    #: pipelined (ECPipe-style) repair: chunk size in bytes; None keeps the
    #: conventional pull-everything reconstruction (bit-identical to seed)
    pipeline_chunk: float | None = None
    #: run repairs through the :class:`RecoveryScheduler` even without
    #: pipelining (risk-ordered batching + concurrency caps + ride-along)
    repair_scheduler: bool = False
    #: concurrent running repairs allowed to touch any one data node
    max_repairs_per_node: int = 2
    #: concurrent running repairs per rack (None = uncapped)
    max_repairs_per_rack: int | None = None
    #: concurrent running repairs per data center (None = uncapped)
    max_repairs_per_dc: int | None = None
    #: global ceiling on simultaneously running repairs (None = uncapped)
    max_concurrent_repairs: int | None = None


@dataclass
class SimulationResult:
    """Latency samples from one (scheme, trace, failures) run.

    Conversion time (adaptive schemes changing a stripe's code) is sampled
    separately: the paper's Fig. 17 reports pure reconstruction latency,
    while its Fig. 18 folds the conversion overhead into the overall
    performance ("the extra cost for EC-Fusion is included in the overall
    performance", §IV-E) — :attr:`overall` does the same here.
    """

    scheme: str
    trace: str
    read_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    recovery_latencies: list[float] = field(default_factory=list)
    conversion_latencies: list[float] = field(default_factory=list)
    storage_overhead: float = 0.0
    sim_time: float = 0.0
    degraded_reads: int = 0
    #: degraded reads served by riding an in-flight repair job instead of
    #: triggering their own reconstruction (scheduler runs only)
    piggybacked_reads: int = 0
    #: requests that failed outright under chaos (dead/partitioned nodes)
    failed_requests: int = 0
    #: chunks the cluster *gave up* repairing — each a dict with
    #: stripe/block/reason/time; losing data is only legal when reported here
    unrecoverable: list = field(default_factory=list)
    #: invariant sweeps performed (0 when --verify-invariants is off)
    invariant_checks: int = 0
    #: broken invariants, as dicts (time/invariant/stripe/detail)
    invariant_violations: list = field(default_factory=list)
    #: stripes flagged at-risk while their repair sat queued-but-unscheduled
    #: (dicts: stripe/time/queue_depth; scheduler + invariant runs only)
    at_risk_stripes: list = field(default_factory=list)
    #: chaos campaign summary (injected-fault counts etc.); None = no chaos
    chaos: dict | None = None

    @property
    def app_latencies(self) -> list[float]:
        return self.read_latencies + self.write_latencies

    @property
    def epsilon1(self) -> float:
        """Application performance: mean read/write latency (metric 2.a)."""
        lat = self.app_latencies
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def epsilon2(self) -> float:
        """Recovery performance: mean reconstruction latency (metric 2.b)."""
        lat = self.recovery_latencies
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def overall(self) -> float:
        """ε = (μ₁ε₁ + μ₂ε₂ + conversions) / (μ₁ + μ₂) (metric 2.c).

        Conversion time is amortised over all requests, matching the
        paper's statement that EC-Fusion's transformation overhead is
        charged to the overall performance.
        """
        mu1, mu2 = len(self.app_latencies), len(self.recovery_latencies)
        if mu1 + mu2 == 0:
            return 0.0
        total = (
            mu1 * self.epsilon1 + mu2 * self.epsilon2 + sum(self.conversion_latencies)
        )
        return total / (mu1 + mu2)

    def app_percentile(self, q: float) -> float:
        """Application latency percentile (q in [0, 1]); tail behaviour the
        paper's mean-only figures hide."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        return nearest_rank(sorted(self.app_latencies), q)

    def recovery_percentile(self, q: float) -> float:
        """Recovery latency percentile (q in [0, 1])."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        return nearest_rank(sorted(self.recovery_latencies), q)

    @property
    def conversion_fraction(self) -> float:
        """Share of the overall cost spent converting codes (paper: ≤ 1.47 %)."""
        mu = len(self.app_latencies) + len(self.recovery_latencies)
        if mu == 0 or self.overall == 0:
            return 0.0
        return sum(self.conversion_latencies) / (self.overall * mu)

    @property
    def cost_effective(self) -> float:
        """ζ = 1 / (ε · ρ) (metric 2.d)."""
        eps, rho = self.overall, self.storage_overhead
        if eps <= 0 or rho <= 0:
            return float("inf")
        return 1.0 / (eps * rho)


class Cluster:
    """A simulated HDFS-like cluster bound to one scheme's stripe width."""

    def __init__(self, config: ClusterConfig, width: int):
        self.config = config
        self.sim = Simulator()
        p = config.profile
        self.nodes = [
            DataNode(
                self.sim,
                node_id=i,
                disk_bandwidth=config.disk_bandwidth,
                io_latency=config.io_latency,
                phi=p.phi,
                net_bandwidth=p.lam,
                net_latency=config.net_latency,
                alpha=p.alpha,
            )
            for i in range(config.num_nodes)
        ]
        self.namenode = NameNode(
            config.num_nodes, width, racks=config.racks, dcs=config.dcs
        )
        self.executor = PlanExecutor(self.sim, self.nodes, self.namenode)
        if (
            config.rack_oversubscription is not None
            or config.dc_oversubscription is not None
        ):
            self.executor.fabric = Fabric(
                self.sim,
                self.namenode,
                node_bandwidth=p.lam,
                rack_oversubscription=config.rack_oversubscription,
                dc_oversubscription=config.dc_oversubscription,
                latency=config.net_latency,
            )
        self.client = Client(
            self.sim,
            self.executor,
            alpha=p.alpha,
            net_bandwidth=p.lam,
            net_latency=config.net_latency,
        )
        self.recovery = RecoveryManager(
            self.executor,
            bandwidth_cap=config.recovery_bandwidth_cap,
            pipeline_chunk=config.pipeline_chunk,
        )
        #: risk-ordered repair admission; None = dispatch-on-arrival (seed
        #: behaviour).  Pipelining implies the scheduler: a storm of
        #: unthrottled pipelines would otherwise collide on the helpers.
        self.scheduler: RecoveryScheduler | None = None
        if config.repair_scheduler or config.pipeline_chunk is not None:
            self.scheduler = RecoveryScheduler(
                self.recovery,
                self.namenode,
                max_per_node=config.max_repairs_per_node,
                max_per_rack=config.max_repairs_per_rack,
                max_total=config.max_concurrent_repairs,
                max_per_dc=config.max_repairs_per_dc,
            )

    # -- statistics --------------------------------------------------------
    def utilization(self) -> dict[str, float]:
        """Mean busy-fraction per resource class (diagnostics)."""
        span = self.sim.now or 1.0
        disks = sum(n.disk.busy_time for n in self.nodes) / (len(self.nodes) * span)
        nics = sum(n.nic.busy_time for n in self.nodes) / (len(self.nodes) * span)
        cpus = sum(n.cpu.busy_time for n in self.nodes) / (len(self.nodes) * span)
        return {"disk": disks, "nic": nics, "cpu": cpus}


def _split_plans(plans):
    """Separate leading conversion plans from the operation proper."""
    conversions = [p for p in plans if p.kind is PlanKind.CONVERSION]
    main = [p for p in plans if p.kind is not PlanKind.CONVERSION]
    return conversions, main


def _record_conversion(result, scheme, stripe, plans, latency, now):
    """Record one in-simulation code conversion (latency + telemetry).

    The histogram observation rides on the :class:`~repro.telemetry.Timer`
    at the call site; this helper keeps the result sample, the counter,
    and the trace event — including the conversion's read traffic and the
    bytes the intermediary-parity highway saved versus re-encoding the
    whole stripe (k·γ reads).
    """
    result.conversion_latencies.append(latency)
    if METRICS.enabled:
        METRICS.counter("cluster.conversions", unit="conversions").inc()
    if TRACER.enabled:
        bytes_read = sum(plan.bytes_read for plan in plans)
        gamma = getattr(scheme, "gamma", 0.0)
        saved = max(0.0, scheme.k * gamma - bytes_read) if gamma else 0.0
        TRACER.emit(
            "conversion",
            ts=now,
            scheme=scheme.name,
            stripe=stripe,
            latency=latency,
            bytes_read=bytes_read,
            saved=saved,
        )


def _record_recovery(result, scheme_name, stripe, block, latency, now):
    """Record one completed reconstruction (latency + telemetry)."""
    result.recovery_latencies.append(latency)
    if METRICS.enabled:
        METRICS.counter("cluster.recoveries", unit="jobs").inc()
    if TRACER.enabled:
        TRACER.emit(
            "recovery",
            ts=now,
            scheme=scheme_name,
            stripe=stripe,
            block=block,
            latency=latency,
        )


def _attach_snapshots(cluster, scheme, trace, failed_blocks, result):
    """Register the sim-time snapshot sampler for one (scheme, trace) run.

    Probes are read-only closures over live simulation state; the sampler
    runs as a kernel daemon process, so enabling snapshots changes what is
    *observed*, never what happens or when the run ends.
    """
    selector = getattr(scheme, "selector", None)

    def queue_probes(queue_name):
        if selector is None:
            return {
                f"{queue_name}_occupancy": lambda: 0.0,
                f"{queue_name}_hit_rate": lambda: 0.0,
            }
        queue = getattr(selector, queue_name)

        def hit_rate():
            if queue.total_hits == 0:
                return 0.0
            return 1.0 - queue.total_misses / queue.total_hits

        return {
            f"{queue_name}_occupancy": lambda: float(len(queue)),
            f"{queue_name}_hit_rate": hit_rate,
        }

    probes = {
        "msr_share": (lambda: selector.msr_fraction) if selector else (lambda: 0.0),
        **queue_probes("queue1"),
        **queue_probes("queue2"),
        "degraded_outstanding": lambda: float(len(failed_blocks)),
        "repair_queue_depth": (
            (lambda: float(cluster.scheduler.queue_depth))
            if cluster.scheduler is not None
            else (lambda: 0.0)
        ),
        "recoveries_done": lambda: float(len(result.recovery_latencies)),
        "nic_in_flight": lambda: float(sum(n.nic.queue_depth for n in cluster.nodes)),
        "disk_in_flight": lambda: float(sum(n.disk.queue_depth for n in cluster.nodes)),
        "nic_bytes_moved": lambda: float(sum(n.nic.bytes_moved for n in cluster.nodes)),
    }
    SNAPSHOTS.sample_into(cluster.sim, f"{scheme.name}/{trace.name}", probes)


def run_workload(
    scheme: SchemePlanner,
    trace: Trace,
    failures: list[FailureEvent] | None = None,
    config: ClusterConfig | None = None,
    mode: str = "closed",
    node_failures: list[NodeFailureEvent] | None = None,
    chaos: ChaosConfig | None = None,
) -> SimulationResult:
    """Replay an application trace + failure stream against one scheme.

    ``mode="closed"`` (default) replays the application requests
    back-to-back through the client — the paper's "test program"
    methodology, where ε₁ is the mean response time of a saturating
    request stream.  Failures are interleaved by request progress so
    recovery runs concurrently with foreground traffic (online recovery).

    ``mode="open"`` honours the trace's arrival timestamps instead; with
    27 MB chunks on a 1 Gbps link most traces then overload the cluster,
    which is useful for saturation studies but not for the paper's
    figures.

    ``node_failures`` model whole-node losses: at each event's time (open
    mode) or after half the request stream (closed mode), every data chunk
    the dead node holds spawns a concurrent recovery job — a recovery
    storm contending with foreground traffic.

    ``chaos`` (a :class:`~repro.chaos.ChaosConfig`) overlays a seeded
    fault-injection campaign: stragglers, partitions, silent corruption
    with a background scrubber, plus retry/backoff supervision of repair
    jobs.  With ``verify_invariants`` set, an invariant checker sweeps
    durability/metadata/conversion properties during the run; results
    land in :attr:`SimulationResult.invariant_violations`.  ``chaos=None``
    (the default) leaves every code path bit-identical to a chaos-free
    build.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown mode {mode!r}")
    config = config or ClusterConfig()
    failures = failures or []
    node_failures = node_failures or []
    cluster = Cluster(config, width=scheme.width)
    sim = cluster.sim
    result = SimulationResult(scheme=scheme.name, trace=trace.name)

    requests = list(trace)
    # In closed mode, failure j fires once the app stream has completed
    # floor(j+1) * len(requests) / (len(failures)+1) requests.
    fail_triggers = [Event(sim) for _ in failures]
    if mode == "closed" and failures:
        spacing = len(requests) / (len(failures) + 1)
        thresholds = [int((j + 1) * spacing) for j in range(len(failures))]
    else:
        thresholds = []
    progress = {"done": 0}
    failed_blocks: set[tuple] = set()  # chunks lost but not yet rebuilt
    if cluster.scheduler is not None:
        cluster.scheduler.failed_blocks = failed_blocks  # risk = erasure count
    sim_clock = lambda: sim.now  # noqa: E731 - Timer clock for sim-time spans
    if SNAPSHOTS.enabled:
        _attach_snapshots(cluster, scheme, trace, failed_blocks, result)

    engine = None
    chaos_state = None
    checker = None
    if chaos is not None:
        engine = ChaosEngine(
            chaos,
            cluster,
            scheme,
            failed_blocks=failed_blocks,
            num_stripes=len({req.stripe for req in requests}) or 1,
        )
        chaos_state = engine.state
        cluster.executor.chaos = chaos_state
        if chaos.verify_invariants:
            checker = InvariantChecker(
                cluster,
                scheme,
                state=chaos_state,
                failed_blocks=failed_blocks,
                unrecoverable=result.unrecoverable,
                interval=chaos.invariant_interval,
                scheduler=cluster.scheduler,
            )

    # Thresholds are non-decreasing, so a moving pointer replaces the full
    # scan this function used to do after every completed request.
    next_trigger = [0]

    def fire_due_triggers():
        j = next_trigger[0]
        done = progress["done"]
        while j < len(thresholds) and done >= thresholds[j]:
            if not fail_triggers[j].triggered:
                fail_triggers[j].succeed()
            j += 1
        next_trigger[0] = j

    def report_unrecoverable(stripe, block, reason):
        """The loud channel: giving up on a chunk is an event, never silence."""
        result.unrecoverable.append(
            {"stripe": stripe, "block": block, "reason": reason, "time": sim.now}
        )
        if METRICS.enabled:
            METRICS.counter("chaos.repair.failures", unit="jobs").inc()
        if TRACER.enabled:
            TRACER.emit(
                "repair-failed", ts=sim.now, stripe=stripe, block=block, reason=reason
            )

    def run_conversion(submit, stripe, plans):
        """One conversion, journalled: commits on success, aborts on failure."""
        if chaos_state is not None:
            chaos_state.begin_conversion(stripe, cluster.namenode)
        committed = False
        try:
            with METRICS.timer("cluster.latency.conversion", clock=sim_clock) as t:
                yield sim.process(submit)
            committed = True
        finally:
            if chaos_state is not None:
                chaos_state.end_conversion(stripe, cluster.namenode, committed=committed)
        _record_conversion(result, scheme, stripe, plans, t.elapsed, sim.now)

    def ride_repair(req):
        """Serve a degraded read by joining the repair already in flight.

        Returns True when a queued/running repair job covered the chunk
        (the read waits for the repair to land, then reads normally —
        no duplicate reconstruction); False when no such job exists and
        the caller should plan its own degraded read.  If the ridden job
        *gives up*, the read falls back to reconstructing for itself.
        """
        ride = cluster.scheduler.ride(req.stripe, req.block)
        if ride is None:
            return False
        rode = True
        with METRICS.timer("cluster.latency.read", clock=sim_clock) as t:
            try:
                yield ride
                plans = scheme.plan_read(req.stripe, req.block)
            except RecoveryError:
                rode = False  # the repair gave up; reconstruct after all
                plans = scheme.plan_degraded_read(req.stripe, req.block)
            yield sim.process(cluster.client.submit(plans, req.stripe))
        result.read_latencies.append(t.elapsed)
        if rode:
            result.piggybacked_reads += 1
        if METRICS.enabled:
            METRICS.counter("cluster.requests.read", unit="requests").inc()
            if rode:
                METRICS.counter("cluster.requests.piggybacked", unit="requests").inc()
        if TRACER.enabled:
            TRACER.emit(
                "request",
                ts=sim.now,
                scheme=scheme.name,
                op="read",
                stripe=req.stripe,
                latency=t.elapsed,
                degraded=True,
                piggybacked=rode,
            )
        return True

    def plan_healthy(req):
        """Plans of a write or a healthy read; ``None`` for a degraded read."""
        if req.op is OpType.WRITE:
            plans = scheme.plan_write(req.stripe)
            if failed_blocks:  # a full rewrite re-materialises every chunk
                failed_blocks.difference_update(
                    {fb for fb in failed_blocks if fb[0] == req.stripe}
                )
            if chaos_state is not None:
                chaos_state.rewrite_stripe(req.stripe)
            return plans
        if (req.stripe, req.block) in failed_blocks:
            return None
        return scheme.plan_read(req.stripe, req.block)

    def record_request(req, latency, degraded):
        """One served application request (latency sample + telemetry)."""
        if req.op is OpType.WRITE:
            result.write_latencies.append(latency)
        else:
            result.read_latencies.append(latency)
        if METRICS.enabled:
            METRICS.counter(f"cluster.requests.{req.op.value}", unit="requests").inc()
        if TRACER.enabled:
            TRACER.emit(
                "request",
                ts=sim.now,
                scheme=scheme.name,
                op=req.op.value,
                stripe=req.stripe,
                latency=latency,
                degraded=degraded,
            )

    def run_request(req, plans=None):
        """One request on the event path (``plans``: already planned by
        :func:`plan_healthy` when a quiet window fell back to here)."""
        degraded = False
        try:
            if plans is None:
                plans = plan_healthy(req)
            if plans is None:
                result.degraded_reads += 1
                degraded = True
                if METRICS.enabled:
                    METRICS.counter("cluster.degraded_reads", unit="requests").inc()
                if cluster.scheduler is not None:
                    served = yield from ride_repair(req)
                    if served:
                        return
                plans = scheme.plan_degraded_read(req.stripe, req.block)
            conversions, main = _split_plans(plans)
            if conversions:
                yield from run_conversion(
                    cluster.client.executor.run_plans(
                        conversions, req.stripe, cluster.client.cpu, cluster.client.nic
                    ),
                    req.stripe,
                    conversions,
                )
            with METRICS.timer(f"cluster.latency.{req.op.value}", clock=sim_clock) as t:
                yield sim.process(cluster.client.submit(main, req.stripe))
            record_request(req, t.elapsed, degraded)
        except (PartitionError, DeadNodeError) as exc:
            # chaos made the request fail outright; count it, don't hide it
            result.failed_requests += 1
            if METRICS.enabled:
                METRICS.counter("chaos.requests.failed", unit="requests").inc()
            if TRACER.enabled:
                TRACER.emit(
                    "request-failed",
                    ts=sim.now,
                    scheme=scheme.name,
                    stripe=req.stripe,
                    error=str(exc),
                )
        finally:
            progress["done"] += 1
            fire_due_triggers()

    # The closed loop is a callback chain: request i+1 starts in the heap
    # entry that finished request i.  When that entry leaves nothing else
    # scheduled (no non-daemon entry, hence every resource idle, and no
    # daemon due before the request would land) nothing can interleave
    # with the request — a *quiet window*: it is planned as ``run_request``
    # plans it, priced by ``PlanExecutor.price`` and booked as ONE entry at
    # its landing time, whose callback applies the event path's accounting.
    # Only the rest of the opening entry can still run inside the window;
    # if it pushes anything, the kernel first withdraws the landing entry
    # and calls ``fall_back``, so ``run_request`` starts as the ordinary
    # process, numbered before the intruder, with nothing booked yet
    # (docs/performance.md § Quiet-window fast-forward).
    executor, client = cluster.executor, cluster.client
    heap = sim._heap
    pending = iter(requests)

    def price_plans(plans, stripe, t, holds):
        for plan in plans:
            priced = executor.price(
                plan, cluster.namenode.lookup(stripe), client.cpu, client.nic, t
            )
            if priced is None:
                return None
            t = priced[0]
            holds += priced[1]
        return t

    def next_request(prev=None):
        if prev is not None and prev.exc is not None:
            raise prev.exc  # an event-path request died of an unexpected error
        req = next(pending, None)
        if req is None:
            return
        plans = None
        if (
            not sim._pending
            and chaos_state is None
            and executor.fabric is None
            and (not heap or heap[0][0] > sim.now)
        ):
            plans = plan_healthy(req)
            if plans is not None:
                conversions, main = _split_plans(plans)
                holds: list = []
                converted = landing = price_plans(conversions, req.stripe, sim.now, holds)
                if converted is not None:
                    landing = price_plans(main, req.stripe, converted, holds)
                if landing is not None and (not heap or heap[0][0] > landing):
                    priced = (req, plans, conversions, sim.now, converted, holds)
                    sim._window = (fall_back, sim.call_at(landing, land, priced))
                    return
        sim.process(run_request(req, plans)).wait(next_request)

    def fall_back(priced):
        sim.process(run_request(*priced[:2])).wait(next_request)

    def land(priced):
        sim._window = None
        req, _, conversions, started, converted, holds = priced
        executor.book(holds)
        if conversions:
            latency = converted - started
            if METRICS.enabled:
                METRICS.histogram("cluster.latency.conversion", unit="s").observe(latency)
            _record_conversion(result, scheme, req.stripe, conversions, latency, converted)
        latency = sim.now - converted
        if METRICS.enabled:
            METRICS.histogram(f"cluster.latency.{req.op.value}", unit="s").observe(latency)
        record_request(req, latency, False)
        progress["done"] += 1
        fire_due_triggers()
        next_request()

    def open_app_request(req):
        yield sim.timeout(req.time)
        yield sim.process(run_request(req))

    def execute_repair(stripe, block, conversions, main):
        """Run one supervised repair; reports instead of raising on give-up."""
        try:
            if conversions:
                yield from run_conversion(
                    cluster.recovery.submit(conversions, stripe), stripe, conversions
                )
            with METRICS.timer("cluster.latency.recovery", clock=sim_clock) as t:
                if cluster.scheduler is not None:
                    yield cluster.scheduler.submit(main, stripe, block)
                else:
                    yield sim.process(cluster.recovery.submit(main, stripe))
        except RecoveryError as exc:
            report_unrecoverable(stripe, block, str(exc))
            return False
        _record_recovery(result, scheme.name, stripe, block, t.elapsed, sim.now)
        failed_blocks.discard((stripe, block))
        if chaos_state is not None:
            chaos_state.repair_chunk(stripe, block)  # a rebuilt chunk is clean
        return True

    def recovery_job(event, trigger=None):
        if trigger is not None:
            yield trigger
        else:
            yield sim.timeout(event.time)
        failed_blocks.add((event.stripe, event.block))
        plans = scheme.plan_recovery(event.stripe, event.block)
        conversions, main = _split_plans(plans)
        yield from execute_repair(event.stripe, event.block, conversions, main)

    def corruption_repair(stripe, block):
        """Scrubber-triggered rebuild of a detected-corrupt chunk."""
        failed_blocks.add((stripe, block))
        plans = scheme.plan_recovery(stripe, block)
        conversions, main = _split_plans(plans)
        repaired = yield from execute_repair(stripe, block, conversions, main)
        if repaired and METRICS.enabled:
            METRICS.counter("chaos.scrub.repairs", unit="chunks").inc()

    if engine is not None:
        engine.on_corruption_detected = lambda stripe, slot: sim.process(
            corruption_repair(stripe, slot)
        )

    def chunk_losses_on(node: int) -> list[FailureEvent]:
        """Expand a node loss into per-stripe chunk failures (data slots)."""
        losses = []
        for info in cluster.namenode.stripes():
            for slot in range(min(scheme.k, len(info.placement))):
                if info.placement[slot] == node:
                    losses.append(
                        FailureEvent(time=0.0, stripe=info.stripe_id, block=slot)
                    )
        return losses

    def node_storm(event, trigger=None):
        if trigger is not None:
            yield trigger
        else:
            yield sim.timeout(event.time)
        jobs = []
        for loss in chunk_losses_on(event.node):
            failed_blocks.add((loss.stripe, loss.block))
            plans = scheme.plan_recovery(loss.stripe, loss.block)
            conversions, main = _split_plans(plans)

            def storm_job(loss=loss, conversions=conversions, main=main):
                yield from execute_repair(loss.stripe, loss.block, conversions, main)

            jobs.append(sim.process(storm_job()))
        if TRACER.enabled:
            TRACER.emit(
                "node-storm",
                ts=sim.now,
                scheme=scheme.name,
                node=event.node,
                jobs=len(jobs),
            )
        if jobs:
            yield sim.all_of(jobs)

    if mode == "closed":
        sim.call_later(0.0, next_request)
        for j, event in enumerate(failures):
            sim.process(recovery_job(event, trigger=fail_triggers[j]))
        # node storms fire once half the request stream has completed
        storm_triggers = [Event(sim) for _ in node_failures]
        storm_threshold = len(requests) // 2
        if node_failures:
            original_fire = fire_due_triggers

            def fire_all():
                original_fire()
                if progress["done"] >= storm_threshold:
                    for trig in storm_triggers:
                        if not trig.triggered:
                            trig.succeed()

            fire_due_triggers = fire_all  # noqa: F811 - deliberate rebind
        for j, event in enumerate(node_failures):
            sim.process(node_storm(event, trigger=storm_triggers[j]))
        fire_due_triggers()  # thresholds of 0 (e.g. empty trace) fire at once
    else:
        for req in requests:
            sim.process(open_app_request(req))
        for event in failures:
            sim.process(recovery_job(event))
        for event in node_failures:
            sim.process(node_storm(event))
    if engine is not None:
        engine.attach()
        if checker is not None:
            checker.attach()
    sim.run()
    # the chain's closures name each other through this cell: empty it, so
    # the cluster dies by refcount, not whenever the cyclic GC next runs
    next_request = None  # noqa: F841

    result.storage_overhead = scheme.storage_overhead()
    result.sim_time = sim.now
    if engine is not None:
        result.chaos = engine.summary()
        if checker is not None:
            report = checker.finalize()
            result.invariant_checks = report.checks
            report_dict = report.as_dict()
            result.invariant_violations = report_dict["violations"]
            result.at_risk_stripes = report_dict["at_risk"]
    return result
