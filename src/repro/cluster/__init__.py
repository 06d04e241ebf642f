"""Simulated HDFS-like cluster substrate.

Replaces the paper's Hadoop testbed: a discrete-event simulation of data
nodes (disk + NIC + CPU FIFO resources), a namenode, an application client
and a recovery manager.  :func:`repro.cluster.run_workload` replays a
trace + failure stream against any :class:`repro.hybrid.SchemePlanner`.
Reconstruction can run conventionally (pull every helper read into one
node) or as chunked hop-by-hop pipelines (:mod:`repro.cluster.pipeline`)
admitted by a risk-ordered :class:`RecoveryScheduler`.
"""

from .._lazy import lazy_exports

__all__ = [
    "DeadNodeError",
    "RecoveryError",
    "Event",
    "Simulator",
    "Process",
    "AllOf",
    "FIFOResource",
    "Disk",
    "Link",
    "Uplink",
    "Fabric",
    "Cpu",
    "DataNode",
    "NameNode",
    "StripeInfo",
    "PlanExecutor",
    "Client",
    "RecoveryManager",
    "RecoveryScheduler",
    "RepairJob",
    "DEFAULT_CHUNK",
    "pipeline_slices",
    "execute_pipelined",
    "Cluster",
    "ClusterConfig",
    "SimulationResult",
    "run_workload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".client": ("Client", "DeadNodeError", "PlanExecutor"),
    ".cluster": ("Cluster", "ClusterConfig", "SimulationResult", "run_workload"),
    ".events": ("AllOf", "Event", "FIFOResource", "Process", "Simulator"),
    ".namenode": ("NameNode", "StripeInfo"),
    ".network": ("Cpu", "Fabric", "Link", "Uplink"),
    ".node": ("DataNode",),
    ".pipeline": ("DEFAULT_CHUNK", "execute_pipelined", "pipeline_slices"),
    ".recovery": ("RecoveryError", "RecoveryManager", "RecoveryScheduler", "RepairJob"),
    ".simdisk": ("Disk",),
})  # fmt: skip
