"""Background recovery: executes reconstruction plans for failed chunks.

Decoding happens on the node that receives the rebuilt chunk (the
replacement writer), so recovery compute contends with that node's share
of foreground traffic — the paper's online-recovery interference in
miniature.  With ``pipeline_chunk`` set, reconstruction instead streams
chunked partial combinations hop-by-hop across the surviving helpers
(:mod:`repro.cluster.pipeline`), removing the reconstructor-NIC
serialisation entirely.

Under chaos, repair jobs are *supervised*: a helper read that times out
against a partitioned source retries the whole job with exponential
backoff (the partition usually heals first), while a permanently dead
source fails the job fast with :class:`RecoveryError` — historically this
second case silently hung the event loop, because the job's process
simply never resumed and nothing reported why.  Pipelined jobs inherit
the same supervision: a mid-pipeline partition re-streams the whole job
after backoff, a mid-pipeline kill aborts it loudly.

:class:`RecoveryScheduler` adds admission control on top: multi-stripe
failure storms queue as :class:`RepairJob`\\ s, dispatch most-at-risk
stripe first (more outstanding erasures = closer to data loss), and are
capped per node, per data center, and globally — so a storm cannot pile every
repair onto the same survivors.  Degraded reads *ride* the job that is
already rebuilding their chunk instead of starting a duplicate
reconstruction.

The steps a repair and a degraded read take are written once, here, for
both of their users — ``run_workload``'s campaign and the serving
``ObjectStore``: the repair chain (:class:`_Repair`), the conversion
journal (:class:`_Conversion`) and the ride
(:meth:`RecoveryScheduler.ride_cb`).  What differs between the two
comes from the *sink* each hands in (see :class:`_Repair`).
"""

from __future__ import annotations

from typing import Callable, Generator, Hashable

from ..chaos.faults import PartitionError
from ..hybrid.plans import OpPlan, PlanKind
from ..telemetry import METRICS, TRACER
from ..telemetry.tracing import SpanContext
from .client import DeadNodeError, PlanExecutor
from .events import Event, FIFOResource
from .network import Link
from .pipeline import DEFAULT_CHUNK, run_pipelined_cb

__all__ = ["RecoveryError", "RecoveryManager", "RepairJob", "RecoveryScheduler"]


class RecoveryError(RuntimeError):
    """A reconstruction job gave up; the chunk stays lost (and reported)."""


class RecoveryManager:
    """Coordinates reconstruction jobs.

    Parameters
    ----------
    bandwidth_cap:
        Optional bytes/second shared by *all* background recovery traffic
        (the HDFS-style repair throttle).  Every recovery plan's bytes
        additionally pass through this shared link, so aggressive storms
        cannot starve foreground I/O beyond the cap.
    pipeline_chunk:
        Chunk size in bytes for pipelined (ECPipe-style) reconstruction;
        ``None`` (the default) keeps the conventional pull-everything
        execution, bit-identical to the historical path.
    """

    def __init__(
        self,
        executor: PlanExecutor,
        bandwidth_cap: float | None = None,
        pipeline_chunk: float | None = None,
    ):
        self.executor = executor
        self.jobs_completed = 0
        if pipeline_chunk is not None and pipeline_chunk <= 0:
            raise ValueError("pipeline_chunk must be positive")
        self.pipeline_chunk = pipeline_chunk
        self.throttle: Link | None = None
        if bandwidth_cap is not None:
            if bandwidth_cap <= 0:
                raise ValueError("recovery bandwidth cap must be positive")
            self.throttle = Link(
                executor.sim, name="recovery-throttle", bandwidth=bandwidth_cap, latency=0.0
            )

    def _decode_node(self, plans: list[OpPlan], stripe: Hashable):
        """The node the rebuilt chunk lands on — it decodes and ingests."""
        info = self.executor.namenode.lookup(stripe)
        for plan in reversed(plans):  # the recovery plan is last
            if plan.writes:
                slot = next(iter(plan.writes))
                return self.executor.nodes[info.placement[slot]]
        # conversion-only plan lists still need a worker: the stripe's head node
        return self.executor.nodes[info.placement[0]]

    def submit_cb(
        self,
        plans: list[OpPlan],
        stripe: Hashable,
        done: Callable,
        ctx: SpanContext | None = None,
    ) -> None:
        """One recovery job (conversions + reconstruction), then
        ``done(None, exc)``.

        The job passes the repair throttle, then the fabric, then runs
        its attempts through :meth:`PlanExecutor.run_cb` (or, with
        ``pipeline_chunk``, :func:`~repro.cluster.pipeline.run_pipelined_cb`
        for its reconstruction plan).  With chaos attached,
        :class:`~repro.chaos.PartitionError` from a helper read retries
        the job with exponential backoff up to the profile's
        ``max_retries``; :class:`DeadNodeError` (or exhausted retries)
        ends it with ``exc`` a :class:`RecoveryError` — the job fails
        *fast and loud* instead of hanging the event loop.  Pipelined
        attempts re-stream from chunk 0 on retry (partial sums are never
        persisted mid-flight).  Any other error raises out of the
        simulator.
        """
        _Supervised(self, plans, stripe, done, ctx).throttled()

    def submit(
        self,
        plans: list[OpPlan],
        stripe: Hashable,
        ctx: SpanContext | None = None,
    ) -> Generator:
        """Generator adapter of :meth:`submit_cb`: raises its
        :class:`RecoveryError`."""
        outcome = Event(self.executor.sim)
        self.submit_cb(plans, stripe, outcome.settle, ctx)
        yield outcome


class _Supervised:
    """One :meth:`RecoveryManager.submit_cb` in flight.

    Like the plan executor's runs, a hold hands the job itself to the
    resource with an unbound step function, and the runs it starts report
    to bound methods of it that the job never stores, so a finished job
    dies by refcount.
    """

    __slots__ = (
        "manager", "plans", "stripe", "done", "ctx", "worker", "at", "attempt",
        "attempt_started", "node",
    )

    def __init__(self, manager: RecoveryManager, plans, stripe, done, ctx):
        self.manager = manager
        self.plans = plans
        self.stripe = stripe
        self.done = done
        self.ctx = ctx
        self.worker = manager._decode_node(plans, stripe)
        self.at = 0
        self.attempt = 0

    def throttled(self) -> None:
        """Through the repair throttle, one plan after another."""
        throttle = self.manager.throttle
        if throttle is not None and self.at < len(self.plans):
            plan = self.plans[self.at]
            self.at += 1
            throttle.transfer_cb(plan.transfer_bytes, _Supervised.throttled, self)
            return
        fabric = self.manager.executor.fabric
        if fabric is not None:
            # cross-rack/cross-DC helper bytes queue on the shared
            # oversubscribed uplinks, coordinated at the decode worker
            charged = fabric.charge(self.plans, self.stripe, where=self.worker.node_id)
            if charged is not None:
                charged.wait(self.charged)
                return
        self.charged()

    def charged(self, _fabric: Event | None = None) -> None:
        if METRICS.enabled:
            plans = self.plans
            METRICS.counter("cluster.recovery.jobs", unit="jobs").inc()
            METRICS.counter("cluster.recovery.bytes_read", unit="bytes").inc(
                sum(plan.bytes_read for plan in plans)
            )
            # fan-in: how many helper nodes the job pulls from (repair width)
            METRICS.histogram("cluster.recovery.fan_in", unit="nodes").observe(
                max((len(plan.reads) for plan in plans), default=0)
            )
        self.try_once()

    def try_once(self) -> None:
        """One attempt at the job: conventional or pipelined per plan."""
        manager = self.manager
        self.attempt_started = manager.executor.sim.now
        if manager.pipeline_chunk is None:
            worker = self.worker
            manager.executor.run_cb(
                self.plans, self.stripe, worker.cpu, worker.nic, self.attempted, self.ctx
            )
        else:
            self.at = 0
            self.next_plan()

    def next_plan(self, _value=None, exc: BaseException | None = None) -> None:
        """The pipelined attempt's plans, in order."""
        if exc is not None or self.at == len(self.plans):
            self.attempted(None, exc)
            return
        manager, plan = self.manager, self.plans[self.at]
        self.at += 1
        if plan.kind is PlanKind.RECOVERY and plan.reads and plan.writes:
            run_pipelined_cb(
                manager.executor, plan, self.stripe, self.next_plan,
                chunk_size=manager.pipeline_chunk, ctx=self.ctx,
            )
        else:
            worker = self.worker
            manager.executor.run_cb(
                [plan], self.stripe, worker.cpu, worker.nic, self.next_plan, self.ctx
            )

    def attempted(self, _value=None, exc: BaseException | None = None) -> None:
        manager, stripe = self.manager, self.stripe
        if exc is None:
            manager.jobs_completed += 1
            self.done(None, None)
            return
        if isinstance(exc, DeadNodeError):
            error = RecoveryError(
                f"recovery of stripe {stripe!r} aborted: source {exc} — "
                f"the chunk needs a different repair plan or is unrecoverable"
            )
        elif isinstance(exc, PartitionError):
            self.attempt += 1
            chaos = manager.executor.chaos
            if chaos is not None and self.attempt <= chaos.max_retries:
                chaos.note_retry()
                sim = manager.executor.sim
                self.node = exc.node
                if TRACER.enabled:
                    TRACER.emit(
                        "repair-retry", ts=sim.now, stripe=stripe, attempt=self.attempt,
                        node=exc.node,
                    )
                # deterministic exponential backoff (no jitter: replayable)
                sim.call_later(
                    chaos.retry_backoff * 2 ** (self.attempt - 1), _Supervised.retry, self
                )
                return
            error = RecoveryError(
                f"recovery of stripe {stripe!r} gave up after {self.attempt} "
                f"attempt(s): {exc}"
            )
        else:
            raise exc
        error.__cause__ = exc
        self.done(None, error)

    def retry(self) -> None:
        if self.ctx is not None and TRACER.enabled:
            # the failed attempt's stall + the backoff, minus whatever
            # phase spans the attempt managed to close (the sweep clips
            # overlapping siblings), is retry time
            TRACER.span(
                "phase",
                self.ctx,
                self.attempt_started,
                self.manager.executor.sim.now,
                phase="retry",
                stripe=self.stripe,
                attempt=self.attempt,
                node=self.node,
            )
        self.try_once()


class RepairJob:
    """One queued/running reconstruction, tracked by the scheduler."""

    __slots__ = (
        "stripe",
        "block",
        "plans",
        "waiters",
        "event",
        "seq",
        "queued_at",
        "dispatched_at",
        "nodes",
        "dcs",
        "boosted",
        "state",
        "ctx",
    )

    def __init__(
        self, stripe, block, plans, done, seq, queued_at, nodes, dcs=frozenset(), ctx=None
    ):
        self.stripe = stripe
        self.block = block
        self.plans = plans
        #: completion callbacks, called ``fn(None, exc)`` in registration
        #: order — ``exc`` is ``None``, or the :class:`RecoveryError` of a
        #: job that gave up; ``None`` once the job has finished
        self.waiters: list[Callable] | None = [done]
        #: the :class:`Event` flavour of completion, made by the first
        #: :meth:`RecoveryScheduler.submit` / :meth:`RecoveryScheduler.ride`
        #: that asks for one (``None`` until then)
        self.event: Event | None = None
        self.seq = seq
        self.queued_at = queued_at
        self.dispatched_at: float | None = None
        #: data nodes the job reads from or writes to (concurrency caps)
        self.nodes = nodes
        self.dcs = dcs
        #: a degraded read is waiting on this job — dispatch it first
        self.boosted = False
        self.state = "queued"  # queued | running | done | failed
        #: causal root of this repair's trace (None = untraced job)
        self.ctx: SpanContext | None = ctx

    def wait(self, fn: Callable) -> None:
        """Call ``fn(None, exc)`` when this queued or running job finishes."""
        self.waiters.append(fn)

    def finish(self, exc: RecoveryError | None) -> None:
        waiters, self.waiters = self.waiters, None
        for fn in waiters:
            fn(None, exc)


class RecoveryScheduler:
    """Admission control and prioritisation for background repairs.

    Jobs queue on :meth:`submit` and dispatch whenever capacity frees up,
    most-at-risk first:

    * **priority** — boosted jobs (a degraded read is blocked on them)
      beat unboosted ones; then stripes with *more outstanding erasures*
      (closest to exceeding the code's tolerance) beat healthier ones;
      ties break by submission order, so scheduling stays deterministic;
    * **per-node cap** — at most ``max_per_node`` running jobs may touch
      any one data node (helpers included), keeping a storm from
      serialising every pipeline through the same survivor;
    * **per-DC cap** — optional analogue across data centers: at most
      ``max_per_dc`` running jobs may touch any one data center, so a
      geo-storm cannot saturate a DC's oversubscribed interconnect;
    * **global cap** — ``max_total`` running jobs overall, enforced by a
      multi-server :class:`~repro.cluster.FIFOResource` (capacity =
      ``max_total``), the same primitive the disks and NICs queue on.

    Degraded reads call :meth:`ride` to wait on the job already rebuilding
    their chunk — queued jobs get boosted, running jobs are joined — so a
    client read never triggers a duplicate reconstruction while a repair
    is in flight.
    """

    def __init__(
        self,
        manager: RecoveryManager,
        namenode,
        max_per_node: int = 2,
        max_total: int | None = None,
        max_per_dc: int | None = None,
    ):
        if max_per_node < 1:
            raise ValueError("max_per_node must be at least 1")
        if max_per_dc is not None and max_per_dc < 1:
            raise ValueError("max_per_dc must be at least 1")
        if max_total is not None and max_total < 1:
            raise ValueError("max_total must be at least 1")
        self.manager = manager
        self.namenode = namenode
        self.max_per_node = max_per_node
        self.max_per_dc = max_per_dc
        self.max_total = max_total
        #: bound by the workload driver: the live lost-chunk set that
        #: measures each stripe's durability risk (erasure count)
        self.failed_blocks: set | None = None
        self.queue: list[RepairJob] = []
        self.running: dict[tuple, RepairJob] = {}
        self._node_load: dict[int, int] = {}
        self._dc_load: dict[int, int] = {}
        self._seq = 0
        self.jobs_dispatched = 0
        self.slots: FIFOResource | None = None
        if max_total is not None:
            self.slots = FIFOResource(
                manager.executor.sim, name="repair-slots", capacity=max_total
            )

    # -- introspection -------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet dispatched."""
        return len(self.queue)

    def pending_jobs(self) -> list[RepairJob]:
        """Queued-but-unscheduled jobs (the invariant sweep's at-risk set)."""
        return list(self.queue)

    def ride_job(self, stripe, block) -> RepairJob | None:
        """The :class:`RepairJob` rebuilding ``(stripe, block)``, if any.

        Same contract as :meth:`ride` but returns the job itself, so a
        causally-traced degraded read can split its wait into queue time
        (``queued_at`` → ``dispatched_at``) and repair-ride time.  Riding
        a *queued* job boosts it to the head of the dispatch order.
        """
        job = self.running.get((stripe, block))
        if job is not None:
            return job
        for job in self.queue:
            if job.stripe == stripe and job.block == block:
                job.boosted = True
                return job
        return None

    def ride(self, stripe, block) -> Event | None:
        """The completion event of the job rebuilding ``(stripe, block)``.

        Returns ``None`` when no such job is queued or running.  Riding a
        *queued* job boosts it to the head of the dispatch order — a
        client is now blocked on it.
        """
        job = self.ride_job(stripe, block)
        return None if job is None else self._event(job)

    def _event(self, job: RepairJob) -> Event:
        """``job``'s completion as an :class:`Event` — one per job, a
        waiter of its own from the moment it is first asked for."""
        if job.event is None:
            job.event = Event(self.manager.executor.sim)
            job.wait(job.event.settle)
        return job.event

    # -- admission -----------------------------------------------------------
    def _job_footprint(self, plans, stripe):
        info = self.namenode.lookup(stripe)
        slots = set()
        for plan in plans:
            slots.update(plan.reads)
            slots.update(plan.writes)
        nodes = frozenset(info.placement[slot] for slot in slots)
        racks = {self.namenode.rack_of(node) for node in nodes}
        dcs = frozenset(rack % getattr(self.namenode, "dcs", 1) for rack in racks)
        return nodes, dcs

    def submit_cb(
        self,
        plans: list[OpPlan],
        stripe,
        block,
        done: Callable,
        ctx: SpanContext | None = None,
    ) -> RepairJob:
        """Queue one reconstruction; ``done(None, exc)`` once it finishes.

        ``exc`` is ``None`` when the repair lands and the
        :class:`RecoveryError` of :meth:`RecoveryManager.submit_cb` when
        the job gives up.  With a causal ``ctx`` the job's whole life
        becomes a span tree under it: queue wait at dispatch, the
        execution phases, and a ``recovery`` root span at completion.
        """
        sim = self.manager.executor.sim
        self._seq += 1
        nodes, dcs = self._job_footprint(plans, stripe)
        job = RepairJob(stripe, block, plans, done, self._seq, sim.now, nodes, dcs, ctx=ctx)
        self.queue.append(job)
        if METRICS.enabled:
            METRICS.gauge("cluster.scheduler.queue_depth", unit="jobs").set(
                len(self.queue)
            )
        if TRACER.enabled:
            TRACER.emit(
                "repair-queued",
                ts=sim.now,
                stripe=stripe,
                block=block,
                queue_depth=len(self.queue),
            )
        self._dispatch()
        return job

    def submit(
        self, plans: list[OpPlan], stripe, block, ctx: SpanContext | None = None
    ) -> Event:
        """:meth:`submit_cb` with the completion as an :class:`Event`: it
        succeeds when the repair lands and *fails* with
        :class:`RecoveryError` when the job gives up — the same contract
        as waiting on :meth:`RecoveryManager.submit` directly."""
        event = Event(self.manager.executor.sim)
        self.submit_cb(plans, stripe, block, event.settle, ctx).event = event
        return event

    # -- dispatch ------------------------------------------------------------
    def _risk(self, stripe) -> int:
        """Outstanding erasures on ``stripe`` — more = closer to data loss."""
        if self.failed_blocks is None:
            return 1
        return sum(1 for s, _slot in self.failed_blocks if s == stripe)

    def _eligible(self, job: RepairJob) -> bool:
        # plain loops: this runs per queued job per dispatch, and a
        # generator frame per cap costs more than the caps themselves
        load, cap = self._node_load, self.max_per_node
        for n in job.nodes:
            if load.get(n, 0) >= cap:
                return False
        if self.max_per_dc is not None:
            load, cap = self._dc_load, self.max_per_dc
            for d in job.dcs:
                if load.get(d, 0) >= cap:
                    return False
        return True

    def _pick(self) -> RepairJob | None:
        # gate on the running map, not the slot resource: a dispatched job
        # only acquires its slot when its kick-off entry fires, so the
        # resource undercounts jobs dispatched in the same instant
        if self.max_total is not None and len(self.running) >= self.max_total:
            return None  # every global repair slot is committed
        best = None
        best_key = None
        for job in self.queue:
            if not self._eligible(job):
                continue
            key = (job.boosted, self._risk(job.stripe), -job.seq)
            if best is None or key > best_key:
                best, best_key = job, key
        return best

    def _dispatch(self) -> None:
        sim = self.manager.executor.sim
        while True:
            job = self._pick()
            if job is None:
                return
            self.queue.remove(job)
            job.state = "running"
            job.dispatched_at = sim.now
            self.running[(job.stripe, job.block)] = job
            for n in job.nodes:
                self._node_load[n] = self._node_load.get(n, 0) + 1
            for d in job.dcs:
                self._dc_load[d] = self._dc_load.get(d, 0) + 1
            self.jobs_dispatched += 1
            if METRICS.enabled:
                METRICS.gauge("cluster.scheduler.queue_depth", unit="jobs").set(
                    len(self.queue)
                )
                METRICS.gauge("cluster.scheduler.running", unit="jobs").set(
                    len(self.running)
                )
                METRICS.histogram("cluster.scheduler.queue_wait", unit="s").observe(
                    sim.now - job.queued_at
                )
            if TRACER.enabled:
                TRACER.emit(
                    "repair-dispatched",
                    ts=sim.now,
                    stripe=job.stripe,
                    block=job.block,
                    waited=sim.now - job.queued_at,
                    boosted=job.boosted,
                )
                if job.ctx is not None:
                    TRACER.span(
                        "phase",
                        job.ctx,
                        job.queued_at,
                        sim.now,
                        phase="queue",
                        stripe=job.stripe,
                        block=job.block,
                        boosted=job.boosted,
                    )
            sim.call_later(0.0, self._run, job)

    def _run(self, job: RepairJob) -> None:
        """A dispatched job's kick-off entry: take a global repair slot,
        then run the job under :meth:`RecoveryManager.submit_cb`."""
        if self.slots is not None:
            # dispatch is gated on a free slot, so this grant is immediate;
            # the multi-server resource still serialises any race exactly
            self.slots.acquire().wait(lambda _granted: self._supervise(job))
        else:
            self._supervise(job)

    def _supervise(self, job: RepairJob) -> None:
        self.manager.submit_cb(
            job.plans, job.stripe, lambda _value, exc: self._finish(job, exc), job.ctx
        )

    def _finish(self, job: RepairJob, exc: RecoveryError | None) -> None:
        """The job landed or gave up: free its caps, tell its waiters
        and dispatch whatever that made eligible."""
        self.running.pop((job.stripe, job.block), None)
        for n in job.nodes:
            self._node_load[n] -= 1
        for d in job.dcs:
            self._dc_load[d] -= 1
        if self.slots is not None:
            self.slots.release()
        if METRICS.enabled:
            METRICS.gauge("cluster.scheduler.running", unit="jobs").set(len(self.running))
        job.state = "done" if exc is None else "failed"
        job.finish(exc)
        self._dispatch()

    # -- the ride --------------------------------------------------------------
    def ride_cb(self, scheme, stripe, block, then: Callable, ctx=None) -> bool:
        """The one ride step of a degraded read: wait on the job rebuilding
        ``(stripe, block)`` (as :meth:`ride_job` finds it), then
        ``then(plans, rode)``.

        The plans are ``scheme.plan_read`` when the repair landed
        (``rode`` true) and ``scheme.plan_degraded_read`` when it gave up
        with :class:`RecoveryError`; any other error raises out of the
        simulator.  ``False`` — nothing waited on, nothing planned — when
        no such job is queued or running.  Under a causal ``ctx`` the wait
        splits into a ``queue`` span (until the job dispatched) and a
        ``repair-ride`` span.
        """
        job = self.ride_job(stripe, block)
        if job is None:
            return False
        job.wait(_Ride(scheme, job, then, ctx, self.manager.executor.sim).landed)
        return True


class _Ride:
    """One :meth:`RecoveryScheduler.ride_cb` waiting on its job."""

    __slots__ = ("scheme", "job", "then", "ctx", "sim", "started")

    def __init__(self, scheme, job: RepairJob, then: Callable, ctx, sim):
        self.scheme, self.job, self.then, self.ctx = scheme, job, then, ctx
        self.sim, self.started = sim, sim.now

    def landed(self, _value=None, exc: BaseException | None = None) -> None:
        job, plans = self.job, None
        if exc is None:
            plans = self.scheme.plan_read(job.stripe, job.block)
        elif not isinstance(exc, RecoveryError):
            raise exc
        if self.ctx is not None and TRACER.enabled:
            now, started = self.sim.now, self.started
            dispatched = now if job.dispatched_at is None else job.dispatched_at
            split = min(max(dispatched, started), now)
            if split > started:
                TRACER.span(
                    "phase", self.ctx, started, split, phase="queue", stripe=job.stripe,
                    block=job.block,
                )
            TRACER.span(
                "phase", self.ctx, split, now, phase="repair-ride", stripe=job.stripe,
                block=job.block, rode=exc is None,
            )
        if plans is None:
            plans = self.scheme.plan_degraded_read(job.stripe, job.block)
        self.then(plans, exc is None)


def _split_plans(plans):
    """Separate leading conversion plans from the operation proper."""
    for plan in plans:
        if plan.kind is PlanKind.CONVERSION:
            break
    else:  # nothing to convert (most requests): no new lists
        return (), plans
    conversions = [p for p in plans if p.kind is PlanKind.CONVERSION]
    main = [p for p in plans if p.kind is not PlanKind.CONVERSION]
    return conversions, main


def _submit_recovery(job: tuple) -> None:
    manager, plans, stripe, done, ctx = job
    manager.submit_cb(plans, stripe, done, ctx)


class _Conversion:
    """One journalled code conversion in flight for its *owner* — a
    repair or a request, anything with ``submit()`` (the step after the
    conversion) and ``fail(exc)``.

    Made as its plans start: the chaos journal entry opens.  Its
    :meth:`finish` is the plans' ``done``: it closes the entry (committed
    or aborted), records a committed conversion with the sink, then calls
    ``owner.submit()`` or ``owner.fail(exc)``.  Who runs the plans is the
    caller's: a repair's go through the recovery manager, a request's
    through the client of the campaign or the store.
    """

    __slots__ = ("sink", "stripe", "plans", "owner", "chaos", "t0", "hist")

    def __init__(self, sink, stripe, plans: list[OpPlan], owner):
        self.sink, self.stripe, self.plans, self.owner = sink, stripe, plans, owner
        self.chaos = sink.cluster.executor.chaos
        if self.chaos is not None:
            self.chaos.begin_conversion(stripe, sink.cluster.namenode)
        self.t0, self.hist = sink.sim.now, sink.histogram("conversion")

    def finish(self, _value=None, exc: BaseException | None = None) -> None:
        sink = self.sink
        if self.chaos is not None:
            self.chaos.end_conversion(self.stripe, sink.cluster.namenode, committed=exc is None)
        if exc is None:
            now = sink.sim.now
            latency = now - self.t0
            if self.hist is not None:
                self.hist.observe(latency)
            sink.record_conversion(self.stripe, self.plans, latency, now)
            self.owner.submit()
        else:
            self.owner.fail(exc)


class _Repair:
    """One supervised reconstruction of ``(stripe, block)`` in flight.

    :meth:`plan` asks the planner for it; :meth:`begin` runs its
    conversions (journalled) from a :func:`_submit_recovery` kick-off
    entry, then the reconstruction — through the cluster's
    :class:`RecoveryScheduler` when it has one, else from a kick-off entry
    of its own — then the bookkeeping: the chunk leaves ``failed_blocks``
    (marking it lost is the caller's), comes back clean under chaos and is
    recorded.  A repair that gives up with :class:`RecoveryError` is
    reported as unrecoverable, not raised; anything else raises out of the
    simulator.  Either way ``done(None, None)`` follows, when given.

    The *sink* is the campaign's or the store's side of the chain: its
    ``sim``, ``scheme``, ``cluster`` and ``failed_blocks``; ``traced``
    (each repair is a causal trace of its own); ``histogram(kind)``, the
    ``"conversion"`` or ``"repair"`` latency histogram (``None`` while
    metrics are off); and the reports ``record_conversion(stripe, plans,
    latency, now)``, ``record_repair(repair, latency)`` and
    ``report_unrecoverable(repair, reason)``.
    """

    __slots__ = (
        "sink", "stripe", "block", "done", "scrubbed", "conversions", "main", "started",
        "ctx", "t0", "hist",
    )

    def __init__(self, sink, stripe, block, done: Callable | None = None, scrubbed=False):
        self.sink, self.stripe, self.block, self.done = sink, stripe, block, done
        #: a scrubber-detected corruption (the sink may count it as such)
        self.scrubbed = scrubbed

    def plan(self) -> None:
        plans = self.sink.scheme.plan_recovery(self.stripe, self.block)
        self.conversions, self.main = _split_plans(plans)

    def start(self) -> None:
        self.plan()
        self.begin()

    def begin(self) -> None:
        sink = self.sink
        self.started = sink.sim.now
        self.ctx = TRACER.start_trace() if sink.traced else None
        if not self.conversions:
            self.submit()
            return
        journal = _Conversion(sink, self.stripe, self.conversions, self)
        job = (sink.cluster.recovery, self.conversions, self.stripe, journal.finish, self.ctx)
        sink.sim.call_later(0.0, _submit_recovery, job)

    def submit(self) -> None:
        sink, cluster = self.sink, self.sink.cluster
        self.t0, self.hist = sink.sim.now, sink.histogram("repair")
        if cluster.scheduler is not None:
            cluster.scheduler.submit_cb(self.main, self.stripe, self.block, self.repaired, self.ctx)
        else:
            job = (cluster.recovery, self.main, self.stripe, self.repaired, self.ctx)
            sink.sim.call_later(0.0, _submit_recovery, job)

    def repaired(self, _value=None, exc: BaseException | None = None) -> None:
        if exc is not None:
            self.fail(exc)
            return
        sink, stripe, block = self.sink, self.stripe, self.block
        latency = sink.sim.now - self.t0
        if self.hist is not None:
            self.hist.observe(latency)
        sink.failed_blocks.discard((stripe, block))
        chaos = sink.cluster.executor.chaos
        if chaos is not None:
            chaos.repair_chunk(stripe, block)  # a rebuilt chunk is clean
        sink.record_repair(self, latency)
        if self.done is not None:
            self.done(None, None)

    def fail(self, exc: BaseException) -> None:
        if not isinstance(exc, RecoveryError):
            raise exc
        self.sink.report_unrecoverable(self, str(exc))
        if self.done is not None:
            self.done(None, None)
