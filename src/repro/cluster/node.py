"""A data node: disk + NIC + coding CPU, the unit of placement and failure."""

from __future__ import annotations

from ..fusion.costmodel import SystemProfile
from .events import Simulator
from .network import Cpu, Link
from .simdisk import Disk

__all__ = ["DataNode"]


class DataNode:
    """One storage server in the simulated cluster.

    Attributes
    ----------
    node_id:
        Dense index within the cluster.
    disk, nic, cpu:
        The three FIFO resources every operation contends on, sized from
        the cluster's :class:`~repro.fusion.costmodel.SystemProfile`.
    alive:
        Liveness flag.  Nothing in a plain simulation ever clears it; the
        chaos engine (or a test) calls :meth:`fail` to model a permanently
        dead node, after which any plan that reads from or writes to this
        node fails fast instead of hanging the event loop.
    """

    def __init__(self, sim: Simulator, node_id: int, profile: SystemProfile):
        self.node_id = node_id
        self.disk = Disk(
            sim,
            name=f"disk{node_id}",
            bandwidth=profile.disk_bandwidth,
            io_latency=profile.io_latency,
            phi=profile.phi,
        )
        self.nic = Link(
            sim, name=f"nic{node_id}", bandwidth=profile.lam, latency=profile.net_latency
        )
        self.cpu = Cpu(sim, name=f"cpu{node_id}", alpha=profile.alpha)
        self.alive = True

    def fail(self) -> None:
        """Mark the node permanently dead (chunk accesses now fail fast)."""
        self.alive = False

    def restore(self) -> None:
        """Bring a failed node back (its chunks are assumed re-ingested)."""
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DataNode {self.node_id}>"
