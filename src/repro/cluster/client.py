"""Plan execution: turning OpPlans into simulated resource usage.

An :class:`OpPlan` executes in three phases, mirroring a real HDFS-EC
pipeline:

1. **reads** — for each source slot, the owning node's disk then NIC,
   all slots in parallel;
2. **compute** — the coordinator CPU performs the plan's GF operations
   (the client for application ops, the rebuilt node for recovery);
3. **writes** — for each target slot, NIC then disk, in parallel.

:meth:`PlanExecutor.run_cb` is the one implementation: each hop is a
resource callback that starts the next, and the run ends in a
``done(None, exc)`` call.  :meth:`PlanExecutor.run_plans`,
:meth:`PlanExecutor.execute` and :meth:`Client.submit` are generator
adapters over it that yield one :class:`Event` — the same heap entries,
for callers that are processes.

A request's latency is the makespan of its plans executed in order —
conversions emitted by adaptive schemes run before the triggering
operation and are charged to it, exactly as the paper charges EC-Fusion's
transformation overhead to the overall performance (§IV-E).

With a chaos state attached (``executor.chaos``), every chunk starts
from a zero-delay entry of its own and first runs the reachability
check :meth:`PlanExecutor.reach_cb`: a dead node fails fast with
:class:`DeadNodeError` (never a silent hang), and a partitioned node
stalls for the chaos profile's timeout before failing with
:class:`~repro.chaos.PartitionError` — unless the partition heals during
the wait, in which case the access proceeds.  The first failing chunk
ends the run; its siblings keep their holds, unobserved.  Without chaos
attached the chunks issue inline (``node.alive`` is always True in plain
runs).

Execution is causally traceable: pass a
:class:`~repro.telemetry.SpanContext` (``ctx=``) and each plan section
emits a child phase span — read fan-out + coordinator ingest and egress
+ write fan-out under ``phase="network"``, the GF compute under
``phase="decode"``.  Callers that pass nothing (every figure campaign)
take the historical path untouched, event for event.
"""

from __future__ import annotations

from typing import Callable, Generator, Hashable

from ..chaos.faults import PartitionError
from ..fusion.costmodel import SystemProfile
from ..hybrid.plans import OpPlan
from ..telemetry import TRACER
from ..telemetry.tracing import SpanContext
from .events import Event, Simulator
from .namenode import NameNode
from .network import Cpu, Link
from .node import DataNode

__all__ = ["DeadNodeError", "PlanExecutor", "Client"]


class DeadNodeError(RuntimeError):
    """A plan addressed a permanently dead node."""

    def __init__(self, node: int):
        super().__init__(f"node {node} is permanently dead")
        self.node = node


class _FanOut:
    """Counting barrier over the chunk pipelines of one plan phase: the
    last chunk to land calls ``then(run)``, the first to fail
    ``run.done(None, exc)`` — once, whatever its siblings do after."""

    __slots__ = ("remaining", "then", "run")

    def __init__(self, remaining: int, then: Callable, run: "_PlanRun"):
        self.remaining = remaining
        self.then = then
        self.run = run


def _second_hop(hop: tuple) -> None:
    """A chunk left its first resource: occupy the second one."""
    barrier, occupy, nbytes = hop
    occupy(nbytes, _chunk_landed, barrier)


def _chunk_landed(barrier: _FanOut) -> None:
    barrier.remaining -= 1
    if not barrier.remaining:
        barrier.then(barrier.run)


def _chunk_failed(barrier: _FanOut, exc: BaseException) -> None:
    # a failed barrier's count is pushed below zero, where the landings
    # of the siblings still in flight can never bring it back to zero
    if barrier.remaining > 0:
        barrier.remaining = -1
        barrier.run.done(None, exc)


def _chunk_start(chunk: tuple) -> None:
    """Zero-delay kick-off of one chunk under chaos: check its node."""
    executor, _barrier, node, _nbytes, _read = chunk
    executor.reach_cb(node, _chunk_reached, chunk)


def _chunk_reached(chunk: tuple, exc: BaseException | None) -> None:
    _executor, barrier, node, nbytes, read = chunk
    if exc is not None:
        _chunk_failed(barrier, exc)
    elif read:
        node.disk.read_cb(nbytes, _second_hop, (barrier, node.nic.transfer_cb, nbytes))
    else:
        node.nic.transfer_cb(nbytes, _second_hop, (barrier, node.disk.write_cb, nbytes))


def _recheck(wait: tuple) -> None:
    """A partition wait ran out: still dark, dead meanwhile, or healed."""
    chaos, node, fn, arg = wait
    if chaos.is_partitioned(node.node_id):
        chaos.note_partition_timeout(node.node_id)
        fn(arg, PartitionError(node.node_id))
    elif not node.alive:  # died while we waited out the partition
        fn(arg, DeadNodeError(node.node_id))
    else:
        fn(arg, None)


class _PlanRun:
    """One :meth:`PlanExecutor.run_cb` in flight.

    Each hop hands the run itself to the resource as the callback
    argument, with an unbound step function as the callback, so nothing
    on the run refers back to it and a finished run dies by refcount.
    """

    __slots__ = (
        "executor", "plans", "stripe", "cpu", "nic", "done", "ctx",
        "at", "plan", "info", "trace", "started",
    )

    def __init__(self, executor, plans, stripe, cpu, nic, done, ctx):
        self.executor = executor
        self.plans = plans
        self.stripe = stripe
        self.cpu = cpu
        self.nic = nic
        self.done = done
        self.ctx = ctx
        self.at = 0

    def next_plan(self) -> None:
        """Start the next plan, or report the run done."""
        if self.at == len(self.plans):
            self.done(None, None)
            return
        plan = self.plan = self.plans[self.at]
        self.at += 1
        executor = self.executor
        self.info = executor.namenode.lookup(self.stripe)
        self.trace = self.ctx is not None and TRACER.enabled
        if plan.reads:
            self.started = executor.sim.now
            executor._fanout(self, plan.reads.items(), True, _PlanRun.reads_landed)
        else:
            self.compute()

    def reads_landed(self) -> None:
        plan = self.plan
        if plan.distributed:
            self.ingested()
        else:  # ingest at the coordinator
            self.nic.transfer_cb(plan.bytes_read, _PlanRun.ingested, self)

    def ingested(self) -> None:
        if self.trace:
            self.span("network", stage="read", bytes=self.plan.bytes_read)
        self.compute()

    def compute(self) -> None:
        ops = self.plan.compute_ops
        if ops:
            self.started = self.executor.sim.now
            self.cpu.compute_cb(ops, _PlanRun.computed, self)
        else:
            self.write()

    def computed(self) -> None:
        if self.trace:
            self.span("decode", ops=self.plan.compute_ops)
        self.write()

    def write(self) -> None:
        plan = self.plan
        if not plan.writes:
            self.next_plan()
            return
        self.started = self.executor.sim.now
        if plan.distributed:
            self.egressed()
        else:  # egress from the coordinator
            self.nic.transfer_cb(plan.bytes_written, _PlanRun.egressed, self)

    def egressed(self) -> None:
        self.executor._fanout(self, self.plan.writes.items(), False, _PlanRun.written)

    def written(self) -> None:
        if self.trace:
            self.span("network", stage="write", bytes=self.plan.bytes_written)
        self.next_plan()

    def span(self, phase: str, **fields) -> None:
        TRACER.span("phase", self.ctx, self.started, self.executor.sim.now, phase=phase, **fields)


class PlanExecutor:
    """Executes plans against the cluster's nodes.

    Every byte a plan moves funnels through the *coordinator's* NIC — the
    writing client streams all n chunks, a reconstructor pulls all helper
    data — so a plan's transmission cost is serialised exactly as Table III
    counts it (k chunk-times for RS repair, (n−1)/r for MSR repair).
    """

    def __init__(self, sim: Simulator, nodes: list[DataNode], namenode: NameNode):
        self.sim = sim
        self.nodes = nodes
        self.namenode = namenode
        #: optional :class:`~repro.chaos.ChaosState`; None = chaos-free run
        self.chaos = None
        #: optional :class:`~repro.cluster.network.Fabric`; None = flat
        #: non-blocking network (the historical bit-identical default)
        self.fabric = None

    def reach_cb(self, node: DataNode, fn: Callable, arg) -> None:
        """The reachability check of one chunk access: ``fn(arg, None)``
        once ``node`` can be reached, ``fn(arg, exc)`` when it cannot.

        A dead node fails at once with :class:`DeadNodeError`.  A
        partitioned node books one ``partition_timeout`` entry and is
        checked again when it fires: still dark → the timeout is noted
        and :class:`~repro.chaos.PartitionError` reported; died meanwhile
        → :class:`DeadNodeError`; healed → the access proceeds.  Anything
        else proceeds inline, booking nothing.  Public because the
        pipelined repair engine (:mod:`repro.cluster.pipeline`) runs the
        same protocol at every hop of a chunk pipeline.
        """
        if not node.alive:
            fn(arg, DeadNodeError(node.node_id))
            return
        chaos = self.chaos
        if chaos is not None and chaos.is_partitioned(node.node_id):
            self.sim.call_later(chaos.partition_timeout, _recheck, (chaos, node, fn, arg))
            return
        fn(arg, None)

    def _fanout(self, run: _PlanRun, items, read: bool, then: Callable) -> None:
        """Run every chunk pipeline of one plan phase, then ``then(run)``.

        ``read=True`` runs disk → NIC per chunk; ``read=False`` NIC → disk.
        Chunks issue in plan order and their two hops chain through
        resource callbacks under one counting barrier (per chunk a tuple:
        no process, event or closure).  Chaos-free, a chunk issues inline
        and a dead node fails the run at its chunk.  Under chaos each
        chunk starts from a zero-delay entry of its own — same-instant
        work booked ahead of it goes first — and passes :meth:`reach_cb`
        before its first hop; the first chunk that fails ends the run with
        ``run.done(None, exc)``, and its siblings keep booking their holds.
        """
        nodes, placement = self.nodes, run.info.placement
        barrier = _FanOut(len(items), then, run)
        if self.chaos is not None:
            call_later = self.sim.call_later
            for slot, nbytes in items:
                call_later(0.0, _chunk_start, (self, barrier, nodes[placement[slot]], nbytes, read))
            return
        for slot, nbytes in items:
            node = nodes[placement[slot]]
            if not node.alive:
                run.done(None, DeadNodeError(node.node_id))
                return
            if read:
                node.disk.read_cb(nbytes, _second_hop, (barrier, node.nic.transfer_cb, nbytes))
            else:
                node.nic.transfer_cb(nbytes, _second_hop, (barrier, node.disk.write_cb, nbytes))

    def run_cb(
        self,
        plans: list[OpPlan],
        stripe: Hashable,
        cpu: Cpu,
        nic: Link,
        done: Callable,
        ctx: SpanContext | None = None,
    ) -> None:
        """Execute ``plans`` in order, then call ``done(None, exc)``.

        The one implementation of a plan's hop sequence: read fan-out,
        coordinator ingest, compute, coordinator egress, write fan-out
        (a ``distributed`` plan skips the coordinator hops).  ``exc`` is
        ``None`` on success, else the error that stopped the run — a
        :class:`DeadNodeError` or :class:`~repro.chaos.PartitionError`
        from a chunk.  With a causal ``ctx`` the three sections close as
        child phase spans (``network`` / ``decode`` / ``network``).
        """
        _PlanRun(self, plans, stripe, cpu, nic, done, ctx).next_plan()

    # Closed form of ``execute`` for a plan nothing can interleave with
    # (``run_workload``'s quiet window): on idle resources every hold is
    # granted where it is asked for, so the event path's timestamps are a
    # chain of float additions, repeated here in its order and association.

    def _price_fanout(self, info, items, t: float, holds: list, read: bool):
        """Landing time of :meth:`_fanout` issued at ``t``, or ``None``."""
        nodes = self.nodes
        placement = info.placement
        base = len(holds)
        seen = set()
        second = []
        end = last = t
        shuffled = False
        for slot, nbytes in items:
            where = placement[slot]
            node = nodes[where]
            disk, nic = node.disk, node.nic
            if not node.alive or disk._in_service or nic._in_service:
                return None
            seen.add(where)
            if read:
                first, then = disk.access_time(nbytes), nic.transfer_time(nbytes)
                holds.append((disk.book_read, nbytes, first))
                second.append((nic.book_transfer, nbytes, then))
            else:
                first, then = nic.transfer_time(nbytes), disk.access_time(nbytes)
                holds.append((nic.book_transfer, nbytes, first))
                second.append((disk.book_write, nbytes, then))
            mid = t + first
            if mid < last:
                shuffled = True
            last = mid
            landed = mid + then
            if landed > end:
                end = landed
        if len(seen) != len(second):
            return None  # two chunks on one node queue behind each other
        if shuffled:
            # unequal chunks: second hops begin in first-hop completion
            # order, plan order breaking ties (as ``seq`` does)
            mids = [t + hold[2] for hold in holds[base:]]
            second = [second[i] for i in sorted(range(len(mids)), key=mids.__getitem__)]
        holds += second
        return end

    def price(self, plan: OpPlan, info, cpu: Cpu, nic: Link, t: float):
        """``(landing time, holds)`` of ``plan`` started at ``t`` with every
        resource it touches idle and nothing else scheduled — exactly
        what :meth:`execute` would reach, hop by hop — or ``None`` for
        anything this cannot say: chaos or a fabric attached, a dead
        node, two chunks on one node, a resource in service.

        ``holds`` is the accounting the event path would have applied,
        in its order, as ``(book, amount, duration)``; :meth:`book`
        applies it.
        """
        if self.chaos is not None or self.fabric is not None:
            return None
        if cpu._in_service or nic._in_service:
            return None
        holds: list = []
        if plan.reads:
            t = self._price_fanout(info, plan.reads.items(), t, holds, read=True)
            if t is None:
                return None
            if not plan.distributed:
                nbytes = plan.bytes_read
                d = nic.transfer_time(nbytes)
                holds.append((nic.book_transfer, nbytes, d))
                t = t + d
        if plan.compute_ops:
            d = cpu.compute_time(plan.compute_ops)
            holds.append((cpu.book_compute, plan.compute_ops, d))
            t = t + d
        if plan.writes:
            if not plan.distributed:
                nbytes = plan.bytes_written
                d = nic.transfer_time(nbytes)
                holds.append((nic.book_transfer, nbytes, d))
                t = t + d
            t = self._price_fanout(info, plan.writes.items(), t, holds, read=False)
            if t is None:
                return None
        return t, holds

    @staticmethod
    def book(holds: list) -> None:
        """Apply the accounting of priced holds (see :meth:`price`)."""
        for book, amount, duration in holds:
            book(amount, duration)

    def run_plans(
        self,
        plans: list[OpPlan],
        stripe: Hashable,
        cpu: Cpu,
        nic: Link,
        ctx: SpanContext | None = None,
    ) -> Generator:
        """Generator adapter of :meth:`run_cb` (conversion → main operation)."""
        outcome = Event(self.sim)
        self.run_cb(plans, stripe, cpu, nic, outcome.settle, ctx)
        yield outcome

    def execute(
        self,
        plan: OpPlan,
        stripe: Hashable,
        cpu: Cpu,
        nic: Link,
        ctx: SpanContext | None = None,
    ) -> Generator:
        """Generator that performs one plan (:meth:`run_plans` of ``[plan]``)."""
        yield from self.run_plans([plan], stripe, cpu, nic, ctx=ctx)


class Client:
    """An application client: owns the coding CPU and NIC foreground ops use."""

    def __init__(self, sim: Simulator, executor: PlanExecutor, profile: SystemProfile):
        self.sim = sim
        self.executor = executor
        self.cpu = Cpu(sim, name="client-cpu", alpha=profile.alpha)
        self.nic = Link(
            sim, name="client-nic", bandwidth=profile.lam, latency=profile.net_latency
        )

    def submit_cb(
        self,
        plans: list[OpPlan],
        stripe: Hashable,
        done: Callable,
        ctx: SpanContext | None = None,
    ) -> None:
        """One application request (all its plans), then ``done(None, exc)``.

        With an oversubscribed fabric attached, the request's
        cross-domain bytes first queue on the shared rack uplinks / DC
        interconnects (admission at the fabric edge) before the per-node
        pipelines run (:meth:`PlanExecutor.run_cb`).
        """
        executor = self.executor
        if executor.fabric is not None:
            charged = executor.fabric.charge(plans, stripe, where=None)
            if charged is not None:
                charged.wait(
                    lambda _ev: executor.run_cb(plans, stripe, self.cpu, self.nic, done, ctx)
                )
                return
        executor.run_cb(plans, stripe, self.cpu, self.nic, done, ctx)

    def start_cb(
        self,
        plans: list[OpPlan],
        stripe: Hashable,
        done: Callable,
        ctx: SpanContext | None = None,
    ) -> None:
        """:meth:`submit_cb` from a zero-delay entry — the process-start
        hop ``sim.process(client.submit(…))`` pays, kept because
        same-instant work ahead of it must go first."""
        self.sim.call_later(0.0, self._start, (plans, stripe, done, ctx))

    def _start(self, request: tuple) -> None:
        self.submit_cb(*request)

    def submit(
        self,
        plans: list[OpPlan],
        stripe: Hashable,
        ctx: SpanContext | None = None,
    ) -> Generator:
        """Generator adapter of :meth:`submit_cb`."""
        outcome = Event(self.sim)
        self.submit_cb(plans, stripe, outcome.settle, ctx)
        yield outcome
