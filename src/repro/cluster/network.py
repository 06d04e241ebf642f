"""Simulated network: per-node NIC links with bandwidth λ and fixed latency.

The paper's testbed has a 1 Gbps NIC per node (λ = 125 MB/s, Table VI);
each node's link is a FIFO server, so foreground application traffic and
background recovery traffic queue against each other — the contention at
the heart of the online-recovery scenario.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..telemetry import METRICS
from .events import Event, FIFOResource, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..fusion.costmodel import SystemProfile
    from .namenode import NameNode

__all__ = ["Link", "Uplink", "Fabric", "Cpu"]


class Link(FIFOResource):
    """One node's network interface.

    Parameters
    ----------
    bandwidth:
        λ in bytes/second.
    latency:
        Fixed per-transfer cost in seconds (propagation + protocol).
    """

    def __init__(self, sim: Simulator, name: str, bandwidth: float, latency: float):
        super().__init__(sim, name)
        if bandwidth <= 0 or latency < 0:
            raise ValueError("invalid link parameters")
        self.bandwidth = bandwidth
        self.latency = latency
        self.bytes_moved = 0.0
        #: chaos derating: transfer times are multiplied by this factor while
        #: a link-degradation fault is active (1.0 = healthy, bit-identical)
        self.derate = 1.0

    def transfer_time(self, nbytes: float) -> float:
        """Service time to move ``nbytes`` through this link."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        t = self.latency + nbytes / self.bandwidth if nbytes else 0.0
        if self.derate != 1.0:
            t *= self.derate
        return t

    def transfer_cb(self, nbytes: float, fn, arg=None) -> None:
        """Occupy the link for one transfer, then ``fn(arg)`` (the
        executor's hot path; :meth:`transfer_ev` wraps it)."""
        self.bytes_moved += nbytes
        if METRICS.enabled:
            METRICS.counter(f"cluster.net.bytes.{self.metric_key}", unit="bytes").inc(
                nbytes
            )
        self.use_cb(self.transfer_time(nbytes), fn, arg)

    def book_transfer(self, nbytes: float, duration: float) -> None:
        """:meth:`Disk.book_read` for an uncontended :meth:`transfer_cb`."""
        self.bytes_moved += nbytes
        self.busy_time += duration
        self.served += 1
        if METRICS.enabled:
            METRICS.counter(f"cluster.net.bytes.{self.metric_key}", unit="bytes").inc(
                nbytes
            )
            self._record(duration, 0.0)

    def transfer_ev(self, nbytes: float) -> Event:
        """Event flavour of :meth:`transfer_cb`."""
        done = Event(self.sim)
        self.transfer_cb(nbytes, done.succeed)
        return done

    def stream_ev(self, nbytes: float, first: bool = True):
        """Transfer one chunk of an open stream.

        The pipelined repair path slices a block into many small chunks;
        charging the fixed per-transfer ``latency`` on every chunk would
        tax the pipeline for protocol setup it pays only once per
        connection.  The first chunk of a stream pays the full
        :meth:`transfer_time`; continuation chunks occupy the link for
        their serialisation time only.
        """
        if first:
            return self.transfer_ev(nbytes)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.bytes_moved += nbytes
        if METRICS.enabled:
            METRICS.counter(f"cluster.net.bytes.{self.metric_key}", unit="bytes").inc(
                nbytes
            )
        t = nbytes / self.bandwidth
        if self.derate != 1.0:
            t *= self.derate
        return self.use_ev(t)


class Uplink(Link):
    """A shared aggregation link: one rack's ToR uplink or one DC's interconnect.

    Real fabrics are *oversubscribed*: a rack of ``members`` nodes with
    λ bytes/s NICs shares an uplink of only ``members·λ/oversubscription``
    bytes/s (the Facebook warehouse study reports 5–10× at the ToR).
    Every byte that crosses the rack (or DC) boundary queues here in
    addition to the endpoint NICs, so cross-domain repair traffic
    contends for the thin shared pipe — the regime that actually decides
    recovery speed at scale.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        member_bandwidth: float,
        members: int,
        oversubscription: float,
        latency: float,
    ):
        if oversubscription < 1.0:
            raise ValueError("oversubscription factor must be >= 1")
        if members < 1:
            raise ValueError("uplink needs at least one member node")
        super().__init__(
            sim,
            name=name,
            bandwidth=member_bandwidth * members / oversubscription,
            latency=latency,
        )
        self.oversubscription = oversubscription
        self.members = members


class Fabric:
    """The cluster's aggregation fabric: rack uplinks + DC interconnects.

    Opt-in (built only when the cluster config sets an oversubscription
    factor): each rack gets one :class:`Uplink` sized from its member
    NICs, each DC one interconnect sized from its member count.  A plan's
    bytes are charged to every *remote* domain they touch — a read from a
    node outside the coordinator's rack occupies that rack's uplink, a
    chunk in another DC additionally occupies that DC's interconnect —
    with all domain transfers of one plan batch running in parallel
    (barrier on the slowest), mirroring how the executor fans chunk
    traffic out.  External clients attach at DC 0 (where the frontends
    live) and cross every rack boundary.  Member NICs and link latency are
    the ``profile``'s λ and network latency.
    """

    def __init__(
        self,
        sim: Simulator,
        namenode: "NameNode",
        profile: "SystemProfile",
        rack_oversubscription: float | None = None,
        dc_oversubscription: float | None = None,
    ):
        self.sim = sim
        self.namenode = namenode
        self.rack_uplinks: dict[int, Uplink] = {}
        self.dc_links: dict[int, Uplink] = {}
        if rack_oversubscription is not None and namenode.racks > 1:
            for rack in range(namenode.racks):
                self.rack_uplinks[rack] = Uplink(
                    sim,
                    name=f"rack{rack}-uplink",
                    member_bandwidth=profile.lam,
                    members=len(namenode.nodes_in_rack(rack)),
                    oversubscription=rack_oversubscription,
                    latency=profile.net_latency,
                )
        if dc_oversubscription is not None and namenode.dcs > 1:
            for dc in range(namenode.dcs):
                self.dc_links[dc] = Uplink(
                    sim,
                    name=f"dc{dc}-interconnect",
                    member_bandwidth=profile.lam,
                    members=len(namenode.nodes_in_dc(dc)),
                    oversubscription=dc_oversubscription,
                    latency=profile.net_latency,
                )

    def charge(self, plans, stripe, where: int | None) -> Event | None:
        """Occupy the fabric for one plan batch's cross-domain bytes.

        ``where`` is the coordinating node (the decode worker for
        repairs) or ``None`` for an external client, which attaches at
        DC 0 and is outside every rack.  Chunks local to the
        coordinator's domain are free; remote bytes queue on the remote
        domain's shared link, one parallel transfer per touched link.
        Returns the barrier over those transfers, or ``None`` when the
        batch crosses no shared link.
        """
        if not self.rack_uplinks and not self.dc_links:
            return None
        namenode = self.namenode
        if where is None:
            w_rack, w_dc = None, 0
        else:
            w_rack, w_dc = namenode.rack_of(where), namenode.dc_of(where)
        placement = namenode.lookup(stripe).placement
        load: dict[Uplink, float] = {}
        for plan in plans:
            for items in (plan.reads, plan.writes):
                for slot, nbytes in items.items():
                    if not nbytes:
                        continue
                    node = placement[slot]
                    rack = namenode.rack_of(node)
                    uplink = self.rack_uplinks.get(rack)
                    if uplink is not None and rack != w_rack:
                        load[uplink] = load.get(uplink, 0.0) + nbytes
                    dc_link = self.dc_links.get(rack % namenode.dcs)
                    if dc_link is not None and rack % namenode.dcs != w_dc:
                        load[dc_link] = load.get(dc_link, 0.0) + nbytes
        if not load:
            return None
        return self.sim.all_of([link.transfer_ev(nbytes) for link, nbytes in load.items()])


class Cpu(FIFOResource):
    """A coding CPU: α GF multiply/XOR byte-operations per second."""

    def __init__(self, sim: Simulator, name: str, alpha: float):
        super().__init__(sim, name)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self.ops_done = 0.0
        #: chaos derating: compute times are multiplied by this factor while
        #: a straggler fault is active (1.0 = healthy, bit-identical)
        self.derate = 1.0

    def compute_time(self, ops: float) -> float:
        """Seconds to perform ``ops`` GF operations."""
        if ops < 0:
            raise ValueError("ops must be non-negative")
        t = ops / self.alpha
        if self.derate != 1.0:
            t *= self.derate
        return t

    def compute_cb(self, ops: float, fn, arg=None) -> None:
        """Occupy the CPU for ``ops`` GF operations, then ``fn(arg)``."""
        self.ops_done += ops
        if METRICS.enabled:
            METRICS.counter(f"cluster.cpu.ops.{self.metric_key}", unit="gf-ops").inc(ops)
        self.use_cb(self.compute_time(ops), fn, arg)

    def compute_ev(self, ops: float) -> Event:
        """Event flavour of :meth:`compute_cb`."""
        done = Event(self.sim)
        self.compute_cb(ops, done.succeed)
        return done

    def book_compute(self, ops: float, duration: float) -> None:
        """:meth:`Disk.book_read` for an uncontended :meth:`compute_cb`."""
        self.ops_done += ops
        self.busy_time += duration
        self.served += 1
        if METRICS.enabled:
            METRICS.counter(f"cluster.cpu.ops.{self.metric_key}", unit="gf-ops").inc(ops)
            self._record(duration, 0.0)
