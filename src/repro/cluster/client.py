"""Plan execution: turning OpPlans into simulated resource usage.

An :class:`OpPlan` executes in three phases, mirroring a real HDFS-EC
pipeline:

1. **reads** — for each source slot, the owning node's disk then NIC,
   all slots in parallel;
2. **compute** — the coordinator CPU performs the plan's GF operations
   (the client for application ops, the rebuilt node for recovery);
3. **writes** — for each target slot, NIC then disk, in parallel.

A request's latency is the makespan of its plans executed in order —
conversions emitted by adaptive schemes run before the triggering
operation and are charged to it, exactly as the paper charges EC-Fusion's
transformation overhead to the overall performance (§IV-E).

With a chaos state attached (``executor.chaos``), every chunk access
first checks the owning node: a dead node fails fast with
:class:`DeadNodeError` (never a silent hang), and a partitioned node
stalls for the chaos profile's timeout before failing with
:class:`~repro.chaos.PartitionError` — unless the partition heals during
the wait, in which case the access proceeds.  Without chaos attached the
paths are unchanged (``node.alive`` is always True in plain runs).

Execution is causally traceable: pass a
:class:`~repro.telemetry.SpanContext` (``ctx=``) and each plan section
emits a child phase span — read fan-out + coordinator ingest and egress
+ write fan-out under ``phase="network"``, the GF compute under
``phase="decode"``.  Callers that pass nothing (every figure campaign)
take the historical path untouched, event for event.
"""

from __future__ import annotations

from typing import Generator, Hashable

from ..chaos.faults import PartitionError
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


class _FanOut(Event):
    """Counting barrier over the chunk pipelines of one plan phase."""

    __slots__ = ("remaining",)


def _second_hop(hop: tuple) -> None:
    """A chunk left its first resource: occupy the second one."""
    barrier, occupy, nbytes = hop
    occupy(nbytes, _chunk_landed, barrier)


def _chunk_landed(barrier: _FanOut) -> None:
    barrier.remaining -= 1
    if not barrier.remaining:
        barrier.succeed()


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

    def check_reachable(self, node: DataNode) -> Generator:
        """Fail fast on dead nodes; time out (or outwait) partitions.

        Public because the pipelined repair engine
        (:mod:`repro.cluster.pipeline`) runs the same reachability
        protocol at every hop of a chunk pipeline.
        """
        if not node.alive:
            raise DeadNodeError(node.node_id)
        chaos = self.chaos
        if chaos is not None and chaos.is_partitioned(node.node_id):
            yield self.sim.timeout(chaos.partition_timeout)
            if chaos.is_partitioned(node.node_id):
                chaos.note_partition_timeout(node.node_id)
                raise PartitionError(node.node_id)
            if not node.alive:  # died while we waited out the partition
                raise DeadNodeError(node.node_id)

    def _read_path(self, node: DataNode, nbytes: float) -> Generator:
        yield from self.check_reachable(node)
        yield node.disk.read_ev(nbytes)
        yield node.nic.transfer_ev(nbytes)

    def _write_path(self, node: DataNode, nbytes: float) -> Generator:
        yield from self.check_reachable(node)
        yield node.nic.transfer_ev(nbytes)
        yield node.disk.write_ev(nbytes)

    # Chaos-free fast path: the two-hop chunk pipelines chained through
    # resource callbacks, with no Process / generator / event / closure per
    # chunk, and one shared counting barrier.  Only usable when no chaos
    # state is attached — reachability checks and partition waits need the
    # generator machinery above.

    def _fanout_ev(self, info, items, read: bool) -> Event:
        """Barrier event for all chunk pipelines of one plan phase.

        ``read=True`` runs disk → NIC per chunk; ``read=False`` NIC → disk.
        Chunks issue in plan order (the same order the process-based path
        starts them) and the barrier fires when the last chunk lands.
        """
        barrier = _FanOut(self.sim)
        barrier.remaining = len(items)
        nodes = self.nodes
        for slot, nbytes in items:
            node = nodes[info.placement[slot]]
            if not node.alive:
                raise DeadNodeError(node.node_id)
            if read:
                node.disk.read_cb(nbytes, _second_hop, (barrier, node.nic.transfer_cb, nbytes))
            else:
                node.nic.transfer_cb(nbytes, _second_hop, (barrier, node.disk.write_cb, nbytes))
        return barrier

    def execute(
        self,
        plan: OpPlan,
        stripe: Hashable,
        cpu: Cpu,
        nic: Link,
        ctx: SpanContext | None = None,
    ) -> Generator:
        """Generator that performs one plan; yield it inside a process.

        With a causal ``ctx`` the three sections close as child phase
        spans (``network`` / ``decode`` / ``network``); without one the
        generator is byte-for-byte the historical hot path.
        """
        info = self.namenode.lookup(stripe)
        fast = self.chaos is None  # chunk paths need no reachability machinery
        trace = ctx is not None and TRACER.enabled
        if plan.reads:
            started = self.sim.now if trace else 0.0
            if fast:
                yield self._fanout_ev(info, plan.reads.items(), read=True)
            else:
                reads = [
                    self.sim.process(
                        self._read_path(self.nodes[info.placement[slot]], nbytes)
                    )
                    for slot, nbytes in plan.reads.items()
                ]
                yield self.sim.all_of(reads)
            if not plan.distributed:
                yield nic.transfer_ev(plan.bytes_read)  # ingest at the coordinator
            if trace:
                TRACER.span(
                    "phase",
                    ctx,
                    started,
                    self.sim.now,
                    phase="network",
                    stage="read",
                    bytes=plan.bytes_read,
                )
        if plan.compute_ops:
            started = self.sim.now if trace else 0.0
            yield cpu.compute_ev(plan.compute_ops)
            if trace:
                TRACER.span(
                    "phase",
                    ctx,
                    started,
                    self.sim.now,
                    phase="decode",
                    ops=plan.compute_ops,
                )
        if plan.writes:
            started = self.sim.now if trace else 0.0
            if not plan.distributed:
                yield nic.transfer_ev(plan.bytes_written)  # egress from the coordinator
            if fast:
                yield self._fanout_ev(info, plan.writes.items(), read=False)
            else:
                writes = [
                    self.sim.process(
                        self._write_path(self.nodes[info.placement[slot]], nbytes)
                    )
                    for slot, nbytes in plan.writes.items()
                ]
                yield self.sim.all_of(writes)
            if trace:
                TRACER.span(
                    "phase",
                    ctx,
                    started,
                    self.sim.now,
                    phase="network",
                    stage="write",
                    bytes=plan.bytes_written,
                )

    # Closed form of ``execute`` for a plan nothing can interleave with
    # (``run_workload``'s quiet window): on idle resources every hold is
    # granted where it is asked for, so the event path's timestamps are a
    # chain of float additions, repeated here in its order and association.

    def _price_fanout(self, info, items, t: float, holds: list, read: bool):
        """Landing time of :meth:`_fanout_ev` issued at ``t``, or ``None``."""
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
        """Execute plans sequentially (conversion → main operation)."""
        for plan in plans:
            yield from self.execute(plan, stripe, cpu, nic, ctx=ctx)


class Client:
    """An application client: owns the coding CPU and NIC foreground ops use."""

    def __init__(
        self,
        sim: Simulator,
        executor: PlanExecutor,
        alpha: float = 5e9,
        net_bandwidth: float = 125e6,
        net_latency: float = 200e-6,
    ):
        self.sim = sim
        self.executor = executor
        self.cpu = Cpu(sim, name="client-cpu", alpha=alpha)
        self.nic = Link(sim, name="client-nic", bandwidth=net_bandwidth, latency=net_latency)

    def submit(
        self,
        plans: list[OpPlan],
        stripe: Hashable,
        ctx: SpanContext | None = None,
    ) -> Generator:
        """Generator for one application request (all its plans).

        With an oversubscribed fabric attached, the request's
        cross-domain bytes first queue on the shared rack uplinks / DC
        interconnects (admission at the fabric edge) before the per-node
        pipelines run.
        """
        if self.executor.fabric is not None:
            yield from self.executor.fabric.charge(plans, stripe, where=None)
        yield from self.executor.run_plans(plans, stripe, self.cpu, self.nic, ctx=ctx)
