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

from ..chaos.faults import ChaosConfig, PartitionError
from ..fusion.costmodel import SystemProfile
from ..hybrid.planners import SchemePlanner
from ..telemetry import METRICS, SNAPSHOTS, TRACER, nearest_rank
from ..workloads.failures import FailureEvent, NodeFailureEvent
from ..workloads.trace import OpType, Trace
from .client import Client, DeadNodeError, PlanExecutor
from .events import Simulator
from .namenode import NameNode
from .network import Fabric
from .node import DataNode
from .recovery import RecoveryManager, RecoveryScheduler, _Conversion, _Repair, _split_plans

__all__ = ["ClusterConfig", "SimulationResult", "Cluster", "run_workload"]


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware shape of the simulated cluster (paper Table VI analogue).

    Attributes
    ----------
    num_nodes:
        Data-node count; must cover the widest stripe a scheme places.
    profile:
        The platform the cost model prices on: every disk, NIC, CPU and
        fabric link of the cluster is sized from it (α, λ, φ, disk
        bandwidth, I/O and network latency), so none is stated here.
    """

    num_nodes: int = 18
    profile: SystemProfile = field(default_factory=SystemProfile)
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
        self.nodes = [DataNode(self.sim, i, p) for i in range(config.num_nodes)]
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
                p,
                rack_oversubscription=config.rack_oversubscription,
                dc_oversubscription=config.dc_oversubscription,
            )
        self.client = Client(self.sim, self.executor, p)
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
    failed_blocks: set[tuple] = set()  # chunks lost but not yet rebuilt
    if cluster.scheduler is not None:
        cluster.scheduler.failed_blocks = failed_blocks  # risk = erasure count
    if SNAPSHOTS.enabled:
        _attach_snapshots(cluster, scheme, trace, failed_blocks, result)

    engine = None
    checker = None
    if chaos is not None:
        from ..chaos.engine import ChaosEngine
        from ..chaos.invariants import InvariantChecker

        engine = ChaosEngine(
            chaos,
            cluster,
            scheme,
            failed_blocks=failed_blocks,
            num_stripes=len({req.stripe for req in requests}) or 1,
        )
        cluster.executor.chaos = engine.state
        if chaos.verify_invariants:
            checker = InvariantChecker(
                cluster,
                scheme,
                state=engine.state,
                failed_blocks=failed_blocks,
                unrecoverable=result.unrecoverable,
                interval=chaos.invariant_interval,
                scheduler=cluster.scheduler,
            )
    replay = _Replay(
        scheme, cluster, result, failed_blocks, requests, failures, node_failures,
        closed=mode == "closed",
    )
    if engine is not None:
        engine.on_corruption_detected = replay.corruption_detected

    # Every job below starts from a zero-delay kick-off entry booked here,
    # in this order: the digests pin these entries and their numbering.
    if replay.closed:
        sim.call_later(0.0, _Replay.next_request, replay)
        for j in range(len(failures)):
            sim.call_later(0.0, replay.arm_failure, j)
        for j in range(len(node_failures)):
            sim.call_later(0.0, replay.arm_storm, j)
        replay.fire_due_triggers()  # thresholds of 0 (e.g. empty trace) fire at once
    else:
        for req in requests:
            sim.call_later(0.0, _after, (sim, req.time, replay.arrive, req))
        for event in failures:
            sim.call_later(0.0, _after, (sim, event.time, replay.lose_chunk, event))
        for event in node_failures:
            sim.call_later(0.0, _after, (sim, event.time, replay.node_storm, event))
    if engine is not None:
        engine.attach()
        if checker is not None:
            checker.attach()
    sim.run()

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


def _after(delayed: tuple) -> None:
    """A kick-off entry that books ``fn(arg)`` ``delay`` seconds later."""
    sim, delay, fn, arg = delayed
    sim.call_later(delay, fn, arg)


def _run_plans(job: tuple) -> None:
    executor, plans, stripe, cpu, nic, done = job
    executor.run_cb(plans, stripe, cpu, nic, done)


def _histogram(name: str):
    """The sim-time latency histogram ``name`` (``None`` while metrics are
    off)."""
    return METRICS.histogram(name, unit="s") if METRICS.enabled else None


class _Replay:
    """One :func:`run_workload` in flight: the state its callback chains
    share, and the steps that are not any one request's or repair's.

    The closed loop is a chain: request i+1 starts in the heap entry that
    finished request i.  When that entry leaves nothing else scheduled (no
    non-daemon entry, hence every resource idle, and no daemon due before
    the request would land) nothing can interleave with the request — a
    *quiet window*: it is planned as the event path plans it, priced by
    ``PlanExecutor.price`` and booked as ONE entry at its landing time,
    whose callback applies the event path's accounting.  Only the rest of
    the opening entry can still run inside the window; if it pushes
    anything, the kernel first withdraws the landing entry and calls the
    window's fall-back, so the request starts on the event path
    (:class:`_Request`), numbered before the intruder, with nothing booked
    yet (docs/performance.md § Quiet-window fast-forward).

    It is also the *sink* of the repair chain, conversion journal and ride
    step it shares with the serving store (:mod:`repro.cluster.recovery`):
    latency samples go to the :class:`SimulationResult` and the
    ``cluster.*`` series, and its repairs carry no causal trace.

    Failure ``j`` of a closed loop fires once the stream has completed
    ``floor((j+1) · len(requests) / (len(failures)+1))`` requests, node
    storms once half of it has: each is *armed* by its kick-off entry and
    runs inline in whichever comes last, that entry or the request
    completion that crosses its threshold.
    """

    __slots__ = (
        "scheme", "cluster", "sim", "executor", "client", "result", "failed_blocks",
        "chaos", "pending", "closed", "done", "failures", "thresholds", "fired", "armed",
        "node_failures", "storm_threshold", "storms_fired", "storms_armed",
    )

    def __init__(
        self, scheme, cluster, result, failed_blocks, requests, failures, node_failures, closed
    ):
        self.scheme = scheme
        self.cluster = cluster
        self.sim = cluster.sim
        self.executor = cluster.executor
        self.client = cluster.client
        self.result = result
        self.failed_blocks = failed_blocks
        self.chaos = cluster.executor.chaos
        self.pending = iter(requests)
        self.closed = closed
        self.done = 0  # requests completed (served or failed)
        self.failures = failures
        spacing = len(requests) / (len(failures) + 1)
        self.thresholds = [int((j + 1) * spacing) for j in range(len(failures))]
        self.fired = 0  # triggers fired: thresholds are non-decreasing
        self.armed = [False] * len(failures)
        self.node_failures = node_failures
        self.storm_threshold = len(requests) // 2
        self.storms_fired = False
        self.storms_armed = [False] * len(node_failures)

    # -- closed-loop triggers ----------------------------------------------
    def arm_failure(self, j: int) -> None:
        if j < self.fired:
            self.lose_chunk(self.failures[j])
        else:
            self.armed[j] = True

    def arm_storm(self, j: int) -> None:
        if self.storms_fired:
            self.node_storm(self.node_failures[j])
        else:
            self.storms_armed[j] = True

    def fire_due_triggers(self) -> None:
        done, thresholds = self.done, self.thresholds
        while self.fired < len(thresholds) and done >= thresholds[self.fired]:
            j = self.fired
            self.fired = j + 1
            if self.armed[j]:
                self.lose_chunk(self.failures[j])
        if self.node_failures and not self.storms_fired and done >= self.storm_threshold:
            self.storms_fired = True
            for event, armed in zip(self.node_failures, self.storms_armed):
                if armed:
                    self.node_storm(event)

    # -- failures and repairs ------------------------------------------------
    def lose_chunk(self, event: FailureEvent) -> None:
        """One chunk loss: plan its repair and start it, inline."""
        self.lose(_Repair(self, event.stripe, event.block))

    def lose(self, repair: _Repair) -> None:
        """Mark ``repair``'s chunk lost, then plan and start the repair."""
        self.failed_blocks.add((repair.stripe, repair.block))
        repair.start()

    def node_storm(self, event: NodeFailureEvent) -> None:
        """Every data chunk of the dead node, each repaired from a kick-off
        entry of its own."""
        scheme, call_later = self.scheme, self.sim.call_later
        losses = [
            (info.stripe_id, slot)
            for info in self.cluster.namenode.stripes()
            for slot in range(min(scheme.k, len(info.placement)))
            if info.placement[slot] == event.node
        ]
        for stripe, slot in losses:
            self.failed_blocks.add((stripe, slot))
            repair = _Repair(self, stripe, slot)
            repair.plan()
            call_later(0.0, _Repair.begin, repair)
        if TRACER.enabled:
            TRACER.emit(
                "node-storm", ts=self.sim.now, scheme=scheme.name, node=event.node,
                jobs=len(losses),
            )

    def corruption_detected(self, stripe, block) -> None:
        """The scrubber's hook: rebuild the chunk from a kick-off entry."""
        self.sim.call_later(0.0, self.lose, _Repair(self, stripe, block, scrubbed=True))

    # -- the sink of the shared chains (cluster/recovery.py) -----------------
    #: the campaign's repairs carry no causal trace
    traced = False
    LATENCY = {"conversion": "cluster.latency.conversion", "repair": "cluster.latency.recovery"}

    def histogram(self, kind: str):
        return _histogram(self.LATENCY[kind])

    def record_conversion(self, stripe, plans, latency: float, now: float) -> None:
        """One in-simulation code conversion (latency + telemetry).

        The histogram observation is the caller's; this keeps the result
        sample, the counter, and the trace event — including the
        conversion's read traffic and the bytes the intermediary-parity
        highway saved versus re-encoding the whole stripe (k·γ reads).
        """
        self.result.conversion_latencies.append(latency)
        if METRICS.enabled:
            METRICS.counter("cluster.conversions", unit="conversions").inc()
        if TRACER.enabled:
            scheme = self.scheme
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

    def record_repair(self, repair: _Repair, latency: float) -> None:
        """One completed reconstruction (latency + telemetry)."""
        self.result.recovery_latencies.append(latency)
        if METRICS.enabled:
            METRICS.counter("cluster.recoveries", unit="jobs").inc()
        if TRACER.enabled:
            TRACER.emit(
                "recovery",
                ts=self.sim.now,
                scheme=self.scheme.name,
                stripe=repair.stripe,
                block=repair.block,
                latency=latency,
            )
        if repair.scrubbed and METRICS.enabled:
            METRICS.counter("chaos.scrub.repairs", unit="chunks").inc()

    def report_unrecoverable(self, repair: _Repair, reason: str) -> None:
        """The loud channel: giving up on a chunk is an event, never silence."""
        now, stripe, block = self.sim.now, repair.stripe, repair.block
        self.result.unrecoverable.append(
            {"stripe": stripe, "block": block, "reason": reason, "time": now}
        )
        if METRICS.enabled:
            METRICS.counter("chaos.repair.failures", unit="jobs").inc()
        if TRACER.enabled:
            TRACER.emit("repair-failed", ts=now, stripe=stripe, block=block, reason=reason)

    # -- application requests -----------------------------------------------
    def plan_healthy(self, req):
        """Plans of a write or a healthy read; ``None`` for a degraded read."""
        failed_blocks = self.failed_blocks
        if req.op is OpType.WRITE:
            plans = self.scheme.plan_write(req.stripe)
            if failed_blocks:  # a full rewrite re-materialises every chunk
                failed_blocks.difference_update(
                    {fb for fb in failed_blocks if fb[0] == req.stripe}
                )
            if self.chaos is not None:
                self.chaos.rewrite_stripe(req.stripe)
            return plans
        if failed_blocks and (req.stripe, req.block) in failed_blocks:
            return None
        return self.scheme.plan_read(req.stripe, req.block)

    def record_request(self, req, latency: float, degraded: bool, rode=None) -> None:
        """One served application request (latency sample + telemetry).

        ``rode`` is ``None`` unless the read waited on a repair job: then
        whether it rode the job (piggybacked) or reconstructed after the
        job gave up.
        """
        result = self.result
        if req.op is OpType.WRITE:
            result.write_latencies.append(latency)
        else:
            result.read_latencies.append(latency)
        if rode:
            result.piggybacked_reads += 1
        if METRICS.enabled:
            METRICS.counter(f"cluster.requests.{req.op.value}", unit="requests").inc()
            if rode:
                METRICS.counter("cluster.requests.piggybacked", unit="requests").inc()
        if TRACER.enabled:
            ride = {} if rode is None else {"piggybacked": rode}
            TRACER.emit(
                "request",
                ts=self.sim.now,
                scheme=self.scheme.name,
                op=req.op.value,
                stripe=req.stripe,
                latency=latency,
                degraded=degraded,
                **ride,
            )

    def request_done(self) -> None:
        """A request was served or failed: count it, fire due failures, and
        (closed loop) start the next request."""
        self.done += 1
        if self.closed:
            self.fire_due_triggers()
            self.next_request()

    def arrive(self, req) -> None:
        """An open-loop arrival: the request starts from a zero-delay entry."""
        self.sim.call_later(0.0, _Request.begin, _Request(self, req, None))

    def price_plans(self, plans, info, t: float, holds: list):
        executor, client = self.executor, self.client
        for plan in plans:
            priced = executor.price(plan, info, client.cpu, client.nic, t)
            if priced is None:
                return None
            t = priced[0]
            holds += priced[1]
        return t

    def next_request(self) -> None:
        req = next(self.pending, None)
        if req is None:
            return
        sim = self.sim
        heap = sim._heap
        plans = None
        if (
            not sim._pending
            and self.chaos is None
            and self.executor.fabric is None
            and (not heap or heap[0][0] > sim.now)
        ):
            plans = self.plan_healthy(req)
            if plans is not None:
                conversions, main = _split_plans(plans)
                info = self.cluster.namenode.lookup(req.stripe)
                holds: list = []
                converted = landing = self.price_plans(conversions, info, sim.now, holds)
                if converted is not None:
                    landing = self.price_plans(main, info, converted, holds)
                if landing is not None and (not heap or heap[0][0] > landing):
                    priced = (self, req, plans, conversions, sim.now, converted, holds)
                    sim._window = (_fall_back, sim.call_at(landing, _land, priced))
                    return
        sim.call_later(0.0, _Request.begin, _Request(self, req, plans))


def _fall_back(priced: tuple) -> None:
    """An intruder closed the window: start the request on the event path."""
    replay = priced[0]
    replay.sim.call_later(0.0, _Request.begin, _Request(replay, priced[1], priced[2]))


def _land(priced: tuple) -> None:
    """The one entry of a priced request: the event path's accounting."""
    replay, req, _, conversions, started, converted, holds = priced
    sim = replay.sim
    sim._window = None
    PlanExecutor.book(holds)
    if conversions:
        latency = converted - started
        if METRICS.enabled:
            replay.histogram("conversion").observe(latency)
        replay.record_conversion(req.stripe, conversions, latency, converted)
    latency = sim.now - converted
    if METRICS.enabled:
        METRICS.histogram(f"cluster.latency.{req.op.value}", unit="s").observe(latency)
    replay.record_request(req, latency, False)
    replay.request_done()


class _Request:
    """One application request on the event path: the state of its chain.

    From its zero-delay start entry: plan (unless a fallen-back window
    already did), ride the repair rebuilding a lost chunk
    (:meth:`RecoveryScheduler.ride_cb`; the ridden read's plans go to the
    client whole) or plan a degraded read, run the conversions
    (journalled, :class:`~repro.cluster.recovery._Conversion`) from a
    kick-off entry of their own, then the main plans through the client
    from another (``Client.start_cb``).  A chunk access failing with
    :class:`DeadNodeError` or :class:`~repro.chaos.PartitionError` ends
    the request as failed; any other error raises out of the simulator.
    The request holds no reference to itself, so it dies by refcount once
    its last entry has fired.
    """

    __slots__ = ("replay", "req", "plans", "degraded", "rode", "main", "t0", "hist")

    def __init__(self, replay: _Replay, req, plans):
        self.replay = replay
        self.req = req
        self.plans = plans
        self.degraded = False
        self.rode = None  # waited on no repair job

    def begin(self) -> None:
        replay, req = self.replay, self.req
        plans = self.plans
        if plans is None:
            plans = replay.plan_healthy(req)
        if plans is None:
            replay.result.degraded_reads += 1
            self.degraded = True
            if METRICS.enabled:
                METRICS.counter("cluster.degraded_reads", unit="requests").inc()
            scheduler = replay.cluster.scheduler
            if scheduler is not None and scheduler.ride_cb(
                replay.scheme, req.stripe, req.block, self.ridden
            ):
                self.t0, self.hist = replay.sim.now, _histogram("cluster.latency.read")
                return
            plans = replay.scheme.plan_degraded_read(req.stripe, req.block)
        conversions, self.main = _split_plans(plans)
        if not conversions:
            self.submit()
            return
        journal = _Conversion(replay, req.stripe, conversions, self)
        client = replay.client
        job = (replay.executor, conversions, req.stripe, client.cpu, client.nic, journal.finish)
        replay.sim.call_later(0.0, _run_plans, job)

    def submit(self) -> None:
        replay, req = self.replay, self.req
        self.t0 = replay.sim.now
        self.hist = None
        if METRICS.enabled:
            self.hist = METRICS.histogram(f"cluster.latency.{req.op.value}", unit="s")
        replay.client.start_cb(self.main, req.stripe, self.served)

    def served(self, _value=None, exc: BaseException | None = None) -> None:
        if exc is not None:
            self.fail(exc)
            return
        replay = self.replay
        latency = replay.sim.now - self.t0
        if self.hist is not None:
            self.hist.observe(latency)
        replay.record_request(self.req, latency, self.degraded, self.rode)
        replay.request_done()

    # -- riding a repair ---------------------------------------------------
    def ridden(self, plans, rode: bool) -> None:
        """The ridden repair landed (read the chunk normally: no duplicate
        reconstruction) or gave up (reconstruct for this read after all);
        either way the read starts from a kick-off entry of its own with
        its plans whole: conversions included, neither journalled nor
        recorded (the store splits them off and journals them)."""
        self.rode = rode
        self.replay.client.start_cb(plans, self.req.stripe, self.served)

    # -- the end -------------------------------------------------------------
    def fail(self, exc: BaseException) -> None:
        """Chaos made the request fail outright: count it, don't hide it."""
        if not isinstance(exc, (PartitionError, DeadNodeError)):
            raise exc
        replay = self.replay
        replay.result.failed_requests += 1
        if METRICS.enabled:
            METRICS.counter("chaos.requests.failed", unit="requests").inc()
        if TRACER.enabled:
            TRACER.emit(
                "request-failed",
                ts=replay.sim.now,
                scheme=replay.scheme.name,
                stripe=self.req.stripe,
                error=str(exc),
            )
        replay.request_done()
